import random
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lpairs import specfun
from lpairs import zeros as zeros_mod
from lpairs.errors import (
    CountInconsistent,
    NonMonotonic,
    ParseError,
    PreconditionError,
    RangeExceeded,
)
from lpairs.zeros import ZeroTable, compute_zeros, load_zeros, rvm_band, rvm_estimate

REPO = Path(__file__).resolve().parent.parent
GAMMA_1 = 14.134725141734693790
GAMMA_2 = 21.022039638771554993
GAMMA_3 = 25.010857580145688763


def test_load_three_standard_ordinates(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("# first three ordinates\n14.134725141\n21.022039639 25.010857580\n")
    table = load_zeros(path)
    assert len(table) == 3
    assert table.source == "file"
    assert table.count(22.0) == 2


def test_load_rejects_descending(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("21.02\n14.13\n25.01\n")
    with pytest.raises(NonMonotonic):
        load_zeros(path)


def test_load_rejects_garbage_with_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("14.134725141\nnot-a-number\n")
    with pytest.raises(ParseError) as err:
        load_zeros(path)
    assert err.value.line == 2


def test_load_rejects_fabricated_counts(tmp_path):
    # twenty equally spaced "ordinates" below 30 violate the RvM band
    path = tmp_path / "fake.txt"
    path.write_text("\n".join(str(11.0 + 0.9 * k) for k in range(20)))
    with pytest.raises(CountInconsistent):
        load_zeros(path)


def test_empty_file_is_vacuous_table(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    table = load_zeros(path)
    assert len(table) == 0
    assert table.count(10.0) == 0
    # no ordinate lies below 14.13, so the file claims nothing above the floor
    for t in (100.0, 1e6):
        with pytest.raises(RangeExceeded):
            table.count(t)


def test_compute_20_finds_first_zero():
    table = compute_zeros(20.0)
    assert len(table) == 1
    assert abs(table.ordinates[0] - GAMMA_1) < 1e-9


def test_compute_100_first_three_and_count(zeros100):
    assert len(zeros100) == 29
    for got, want in zip(zeros100.ordinates[:3], (GAMMA_1, GAMMA_2, GAMMA_3)):
        assert abs(got - want) < 1e-9


def test_compute_1000_count(zeros1000):
    assert len(zeros1000) == 649


def test_compute_5000_count_in_rvm_band(zeros5000):
    assert abs(len(zeros5000) - rvm_estimate(5000.0)) <= 3.0
    assert len(zeros5000) == 4520


def test_compute_5000_equals_committed_table(zeros5000):
    # the committed table pins the engine's output bit for bit, including
    # the order of the Euler-Maclaurin sums behind every fallback sign
    committed = load_zeros(REPO / "perfbench" / "data" / "zeros_5000.txt")
    assert np.array_equal(zeros5000.ordinates, committed.ordinates)


def test_counts(zeros100):
    assert zeros100.count(14.0) == 0
    assert zeros100.count(100.0) == 29
    assert zeros100.count(15.0) == 1
    with pytest.raises(RangeExceeded):
        zeros100.count(200.0)


def test_count_rejects_nan(zeros100):
    # searchsorted places nan after every ordinate, so N(nan) used to be
    # the whole table
    with pytest.raises(PreconditionError):
        zeros100.count(float("nan"))
    with pytest.raises(PreconditionError):
        zeros100.up_to(float("nan"))


def test_missed_zeros_fail_both_scans(monkeypatch):
    # a gap audit that drops every other zero leaves the count far outside
    # the RvM band on the first scan and on the denser rescan
    from lpairs.errors import MissedZero

    scans = []
    scan_once = zeros_mod._scan_once

    def recording(t_max, density):
        scans.append(density)
        return scan_once(t_max, density)

    monkeypatch.setattr(zeros_mod, "_scan_once", recording)
    monkeypatch.setattr(zeros_mod, "_gap_audit", lambda gammas, t_max: gammas[::2])
    with pytest.raises(MissedZero):
        compute_zeros(100.0)
    assert scans == [zeros_mod._SCAN_DENSITY, 4.0 * zeros_mod._SCAN_DENSITY]


def test_count_monotone(zeros1000):
    ts = np.linspace(15.0, 1000.0, 300)
    counts = [zeros1000.count(float(t)) for t in ts]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_precondition_range():
    with pytest.raises(PreconditionError):
        compute_zeros(10.0)
    with pytest.raises(PreconditionError):
        compute_zeros(2e4)


def test_gaps_positive_and_rvm_sweep(zeros1000):
    gaps = np.diff(zeros1000.ordinates)
    assert np.all(gaps > 0)
    rng = random.Random(3)
    for _ in range(100):
        t = rng.uniform(15.0, 1000.0)
        n = zeros1000.count(t)
        assert abs(n - rvm_estimate(t)) <= rvm_band(t)


def test_round_trip_is_exact(tmp_path, zeros100):
    path = tmp_path / "computed.txt"
    zeros100.save(path)
    back = load_zeros(path)
    assert np.array_equal(back.ordinates, zeros100.ordinates)


def test_round_trip_property(zeros100):
    # any ascending ordinates above 10 with gaps above 1e-9 that pass the
    # load checks: the zeros below 100, each moved by up to 0.1 (their
    # gaps exceed 1), with one extra ordinate 2e-9 to 1e-3 above another
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    n = len(zeros100)

    @hypothesis.given(st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n),
                      st.integers(0, n), st.floats(2e-9, 1e-3))
    def round_trip(shifts, extra, gap):
        gammas = zeros100.ordinates + np.array(shifts)
        if extra < n:
            gammas = np.insert(gammas, extra + 1, gammas[extra] + gap)
        table = ZeroTable(ordinates=gammas, source="computed",
                          t_max=float(gammas[-1]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "zeros.txt"
            table.save(path)
            assert np.array_equal(load_zeros(path).ordinates, gammas)

    round_trip()


def test_claimed_precision_against_reference(zeros100):
    # spot-check the refined ordinates against 18-digit references
    assert zeros100.precision <= 1e-9
    for got, want in zip(zeros100.ordinates[:3], (GAMMA_1, GAMMA_2, GAMMA_3)):
        assert abs(got - want) <= zeros100.precision


def test_deep_ordinates_against_mpmath_references(zeros100, zeros1000):
    # 30-digit mpmath zetazero values for zeros #29, #100 and #649
    refs = {29: 98.8311942181936922333244201386,
            100: 236.524229665816205802475507956,
            649: 999.791571557412940463163147158}
    for k, want in refs.items():
        table = zeros100 if k <= 29 else zeros1000
        assert abs(table.ordinates[k - 1] - want) <= table.precision


def test_duplicates_within_precision_rejected(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("14.134725141\n14.1347251410000003\n21.022039639\n")
    with pytest.raises(NonMonotonic):
        load_zeros(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
def test_load_rejects_non_finite_with_line_number(tmp_path, token):
    path = tmp_path / "bad.txt"
    path.write_text(f"14.134725141\n21.022039639\n{token}\n")
    with pytest.raises(ParseError) as err:
        load_zeros(path)
    assert err.value.line == 3


def test_hybrid_kernel_table_matches_euler_maclaurin(zeros1000, monkeypatch):
    # every sign the Riemann-Siegel kernel returns is the Euler-Maclaurin
    # sign, so grid, bisection and gap audit take the same decisions
    monkeypatch.setattr(zeros_mod, "_hardy_z_batch",
                        lambda ts: specfun._hardy_z_em(ts, specfun._Z_BATCH_TOL))
    em_only = compute_zeros(1000.0)
    assert np.array_equal(em_only.ordinates, zeros1000.ordinates)


def test_load_rejects_non_utf8_with_line_number(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"14.134725141\n21.022039639\n# caf\xe9\n25.010857580\n")
    with pytest.raises(ParseError, match="not UTF-8") as err:
        load_zeros(path)
    assert err.value.line == 3


def test_load_skips_a_byte_order_mark(tmp_path):
    # a UTF-8 byte-order mark used to be read as part of the first token:
    # "line 1: bad ordinate '\ufeff14.13...'"
    text = "14.134725141\n21.022039639\n25.010857580\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert np.array_equal(load_zeros(marked).ordinates, load_zeros(plain).ordinates)


def test_ordinates_closer_than_the_precision_rejected(tmp_path):
    # distinct doubles 5e-10 apart pass the ascent check and coincide
    # within ORDINATE_PRECISION = 1e-9
    path = tmp_path / "close.txt"
    path.write_text("14.134725141\n14.1347251415\n21.022039639\n")
    with pytest.raises(NonMonotonic, match="entries 1 and 2 coincide"):
        load_zeros(path)


def test_first_ordinate_below_the_floor_rejected(tmp_path):
    # the message names the ordinate as a plain number, not np.float64(9.5)
    path = tmp_path / "low.txt"
    path.write_text("9.5\n14.134725141\n21.022039639\n")
    with pytest.raises(CountInconsistent, match=r"first ordinate 9\.5 <= 10"):
        load_zeros(path)


@pytest.mark.parametrize("dropped", [[5], [5, 6]], ids=["one", "adjacent-pair"])
def test_gap_audit_restores_zeros_the_scan_missed(zeros1000, monkeypatch, dropped):
    # a scan that loses one zero, or two adjacent ones, leaves a gap of two
    # or three mean spacings; the gap audit's fine rescan finds them and
    # merges them back, and the table is the engine's own
    scan_once = zeros_mod._scan_once
    audits = []
    gap_audit = zeros_mod._gap_audit

    def missing(t_max, density):
        return np.delete(scan_once(t_max, density), dropped)

    def recording(gammas, t_max):
        audits.append(len(gammas))
        return gap_audit(gammas, t_max)

    monkeypatch.setattr(zeros_mod, "_scan_once", missing)
    monkeypatch.setattr(zeros_mod, "_gap_audit", recording)
    table = compute_zeros(100.0)
    ref = zeros1000.up_to(100.0)
    assert audits == [len(ref) - len(dropped)]
    assert len(table) == len(ref)
    assert float(np.max(np.abs(table.ordinates - ref))) <= 1e-9
