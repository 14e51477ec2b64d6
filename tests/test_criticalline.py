import concurrent.futures
import math
import threading
import time

import numpy as np
import pytest

import lpairs.criticalline as cl
import lpairs.lfunc as lfunc
from lpairs.characters import character
from lpairs.criticalline import (
    ThmTwoEvaluator,
    c_constant,
    choose_p,
    make_config,
    thm2_report,
    thm2_sweep,
)
from lpairs.errors import AccuracyLoss, OracleAuditFailure, PreconditionError
from lpairs.lfunc import l_oracle, l_oracle_critical_batch
from lpairs.primes import is_prime
from lpairs.summation import neumaier_sum, neumaier_sum_complex

GAMMA_1 = 14.134725141734693790


def test_choose_p_default_pair(chi3, chi5):
    assert choose_p(chi3, chi5) == 7
    assert chi3(7) == 1  # 7 = 1 mod 3 by construction
    assert chi5(7) != 1


def test_choose_p_rejects_equal_moduli(chi5):
    with pytest.raises(PreconditionError):
        choose_p(chi5, character(5, 1))


def test_choose_p_rejects_principal(chi3):
    with pytest.raises(PreconditionError):
        choose_p(chi3, character(5, 0))


def test_choose_p_various_pairs():
    for (q, j1), (l, j2) in (((3, 1), (7, 1)), ((5, 2), (7, 3)), ((11, 1), (3, 1))):
        c1, c2 = character(q, j1), character(l, j2)
        p = choose_p(c1, c2)
        assert is_prime(p) and p % q == 1 and p not in (q, l)
        assert c2.log(p) not in (None, 0)


def test_c_constant_quadratic_mod5_is_minus_one(chi5):
    assert abs(c_constant(chi5, 7) - (-1.0)) < 1e-12


def test_c_constant_unimodular():
    for q in (3, 5, 7):
        for j in range(1, q - 1):
            chi = character(q, j)
            for p in (7, 11, 13):
                if p % q:
                    assert abs(abs(c_constant(chi, p)) - 1.0) < 1e-12


def test_c_constant_reduces_to_conjugate_character(chi5):
    # C_chi = conj(chi)(p), a Gauss-identity consequence
    for q in (3, 5, 7):
        for j in range(1, q - 1):
            chi = character(q, j)
            for p in (7, 11, 13, 18 + 1):
                if p % q and is_prime(p):
                    assert abs(c_constant(chi, p) - chi(p).conjugate()) < 1e-12


def test_c_constant_depends_only_on_residue(chi5):
    assert abs(c_constant(chi5, 7) - c_constant(chi5, 7 + 5 * 6)) < 1e-12


def test_c_constant_requires_coprime(chi5):
    with pytest.raises(PreconditionError):
        c_constant(chi5, 10)


def test_make_config_defaults(chi3, chi5):
    cfg = make_config(chi3, chi5)
    assert cfg.p == 7
    assert abs(cfg.c1 - 1.0) < 1e-12
    assert abs(cfg.c2 + 1.0) < 1e-12
    assert abs(cfg.c1 - cfg.c2) >= 1e-6


def test_make_config_rejects_principal_with_explicit_p(chi5):
    # with p given, choose_p (and its check) is skipped; a principal chi1
    # used to pass whenever no zero lay below T
    with pytest.raises(PreconditionError):
        make_config(character(3, 0), chi5, p=7)


def test_make_config_rejects_p_with_equal_character_values(chi3, chi5):
    # 31 = 1 mod 3 and mod 5: chi1(31) = chi2(31) = 1, so C1 = C2 and the
    # main term (conj C1 - conj C2) (T/2pi) log(T/2pi) vanishes
    with pytest.raises(PreconditionError, match="chi1\\(p\\) = chi2\\(p\\)"):
        make_config(chi3, chi5, p=31)
    # chi1(17) = chi2(17) = -1, at exponents 1 of 2 and 2 of 4
    with pytest.raises(PreconditionError):
        make_config(chi3, chi5, p=17)
    cfg = make_config(chi3, chi5, p=13)  # chi1(13) = 1, chi2(13) = -1
    assert abs(cfg.c1 - cfg.c2) >= 1e-6


def test_evaluator_matches_standalone_afe(chi3, chi5):
    # one AFE value (AfeWindows.value) behind both: the evaluator
    # reproduces l_afe (Delta = 1) exactly
    from lpairs.lfunc import l_afe
    cfg = make_config(chi3, chi5)
    ev = ThmTwoEvaluator(cfg, 600.0)
    for g in (21.0, 88.8, 333.3, 599.0):
        lv1, lv2 = ev.l_values(g)
        ref1 = l_afe(complex(0.5, g), chi3, 1.0)
        ref2 = l_afe(complex(0.5, g), chi5, 1.0)
        assert lv1.value == ref1.value
        assert lv2.value == ref2.value
        assert lv1.bound == ref1.bound


def test_batched_rows_equal_one_height_rows(zeros1000, chi3):
    # rows, a block of heights at a time, against b_value and
    # l_values one height at a time, bit for bit; 5:1 is complex
    ev = ThmTwoEvaluator(make_config(chi3, character(5, 1)), 1000.0)
    gammas = zeros1000.up_to(1000.0)
    batched = ev.rows(gammas, np.empty((len(gammas), 2), dtype=complex))
    expected = []
    for g in gammas.tolist():
        b = ev.b_value(g)
        expected.append([b * lv.value for lv in ev.l_values(g)])
    assert batched.tolist() == expected


def test_a2_modulus_identity(chi3, chi5):
    cfg = make_config(chi3, chi5)
    ev = ThmTwoEvaluator(cfg, 50.0)
    lv1, lv2 = ev.l_values(GAMMA_1)
    a = ev.b_value(GAMMA_1) * (lv1.value - lv2.value)
    assert abs(abs(a) - math.sqrt(7) * abs(lv1.value - lv2.value)) < 1e-12


def _oracle_a(ev, gamma, chi1, chi2):
    """A(gamma) = p^rho (L(rho, chi1) - L(rho, chi2)) through the oracle."""
    s = complex(0.5, gamma)
    return ev.b_value(gamma) * (l_oracle(s, chi1).value - l_oracle(s, chi2).value)


def test_a2_oracle_path_reproducible(chi3, chi5):
    # the oracle-path value is certified: recompute it from first parts
    cfg = make_config(chi3, chi5)
    orc = _oracle_a(ThmTwoEvaluator(cfg, 50.0), GAMMA_1, chi3, chi5)
    assert abs(orc) > 1e-6
    s = complex(0.5, GAMMA_1)
    direct = (7 ** s) * (l_oracle(s, chi3).value - l_oracle(s, chi5).value)
    assert abs(orc - direct) < 1e-7


def test_a2_afe_within_certified_bounds(chi3, chi5):
    cfg = make_config(chi3, chi5)
    ev = ThmTwoEvaluator(cfg, 50.0)
    lv1, lv2 = ev.l_values(GAMMA_1)
    afe = ev.b_value(GAMMA_1) * (lv1.value - lv2.value)
    orc = _oracle_a(ev, GAMMA_1, chi3, chi5)
    # the AFE windows at gamma_1 hold ~4 terms, so the certified remainder
    # bounds are the only honest tolerance here
    assert abs(afe - orc) <= math.sqrt(7) * (lv1.bound + lv2.bound)


def test_report_structure_and_determinism(zeros100, chi3, chi5):
    cfg = make_config(chi3, chi5)
    a = thm2_report(zeros100, 100.0, cfg)
    b = thm2_report(zeros100, 100.0, cfg)
    assert a.csv_row() == b.csv_row()
    assert a.n_zeros == 29
    assert a.sum_abs_a2 > 0
    assert a.lower_bound_count > 0
    assert abs(a.main_term - (a.main_chi1 - a.main_chi2)) < 1e-9
    assert len(a.csv_row().split(",")) == len(a.CSV_HEADER.split(","))


def test_difference_sum_tracks_main_term(zeros5000, chi3, chi5):
    # of the O(T) remainder only the -(T/2pi) log p diagonal is common to
    # both characters and cancels in sum A; the rest, -chi(p) +
    # chi(p) (L'/L)(1, chi) and the dual window, differs by character but
    # is small beside the doubled main term (|C1 - C2| = 2), so the
    # difference converges to (conj C1 - conj C2)(T/2pi) log(T/2pi) much
    # faster than either per-character sum
    cfg = make_config(chi3, chi5)
    rel = {}
    for t in (1000.0, 5000.0):
        rep = thm2_report(zeros5000, t, cfg)
        rel[t] = abs(rep.sum_a - rep.main_term) / abs(rep.main_term)
    assert rel[5000.0] < rel[1000.0]
    assert rel[5000.0] < 0.2


def test_log_derivative_at_one_stieltjes_form(chi3, chi5, log_derivative_at_one):
    # the fixture's Stieltjes form gives the doubles mpmath.dirichlet gives
    # at 20 digits; a wrong formula misses them
    assert log_derivative_at_one(chi3) == 0.36828161597014786
    assert log_derivative_at_one(chi5) == 0.8276794767155049


def test_first_moment_check_is_live(zeros1000, chi3, chi5, first_moment_check):
    # criterion 8's O(T) check holds for the true main terms and fails
    # for each planted wrong one
    cfg = make_config(chi3, chi5)
    rep = thm2_report(zeros1000, 1000.0, cfg)
    ok, rows = first_moment_check(rep, cfg)
    assert ok, rows
    unit = rep.t / (2.0 * math.pi)
    conj_c = (cfg.c1.conjugate(), cfg.c2.conjugate())
    planted = {
        "sign-flipped C_chi": [-c * unit * math.log(unit) for c in conj_c],
        "log T": [c * unit * math.log(rep.t) for c in conj_c],
        "no log": [c * unit for c in conj_c],
    }
    for name, mains in planted.items():
        ok, rows = first_moment_check(rep, cfg, mains)
        assert not ok, f"{name}: {rows}"


def test_first_moment_check_sees_a_swapped_conjugate(zeros5000, first_moment_check):
    # for a complex chi2 a main term with C_chi2 in place of conj C_chi2 is
    # caught at every sweep height; for a real pair (3:1, 5:2) it would
    # equal the true main term, so this needs the complex 5:1
    cfg = make_config(character(3, 1), character(5, 1))
    assert abs(cfg.c2.imag) > 0.5
    for rep in thm2_sweep([1000.0, 2000.0, 5000.0], cfg)(zeros5000):
        ok, rows = first_moment_check(rep, cfg)
        assert ok, rows
        scale = rep.main_chi2 / cfg.c2.conjugate()
        ok, rows = first_moment_check(rep, cfg, (rep.main_chi1, cfg.c2 * scale))
        assert not ok, rows


def test_sweep_checks_every_height_before_any_evaluator(chi3, chi5, monkeypatch):
    # T = 1 used to be found only when the sweep reached it
    def unreachable(*args):
        raise AssertionError("built an evaluator before checking every T")

    monkeypatch.setattr(cl, "ThmTwoEvaluator", unreachable)
    with pytest.raises(PreconditionError, match="2 pi < T"):
        thm2_sweep([100.0, 1.0], make_config(chi3, chi5))
    with pytest.raises(PreconditionError):
        thm2_sweep([], make_config(chi3, chi5))


@pytest.mark.parametrize("method", ["afe", "oracle"])
def test_sweep_equals_separate_reports(zeros100, chi3, chi5, method):
    cfg = make_config(chi3, chi5)
    ts = [100.0, 50.0]
    assert thm2_sweep(ts, cfg, method=method)(zeros100) == [
        thm2_report(zeros100, t, cfg, method=method) for t in ts]


@pytest.mark.parametrize("method", ["afe", "oracle"])
def test_sweep_over_two_oracle_blocks_equals_separate_reports(zeros1000, chi3, chi5,
                                                             method):
    # 649 zeros up to 1000, 341 of them up to 600: the oracle runs the
    # sweep in two blocks of at most 512 heights, on the thread pool
    cfg = make_config(chi3, chi5)
    ts = [600.0, 1000.0]
    assert len(zeros1000.up_to(1000.0)) > lfunc._ORACLE_BLOCK >= len(zeros1000.up_to(600.0))
    assert thm2_sweep(ts, cfg, method=method)(zeros1000) == [
        thm2_report(zeros1000, t, cfg, method=method) for t in ts]


def test_report_audits_table_indices(zeros1000, chi3, chi5, monkeypatch):
    # the audit stride counts table indices: lfunc._AUDIT_STRIDE = 100 audits the 649
    # zeros below 1000 at indices 0, 100, ..., 600, each once
    audited = []
    audit = ThmTwoEvaluator.audit

    def recording(ev, gamma):
        audited.append(gamma)
        audit(ev, gamma)

    monkeypatch.setattr(ThmTwoEvaluator, "audit", recording)
    thm2_report(zeros1000, 1000.0, make_config(chi3, chi5))
    gammas = zeros1000.up_to(1000.0)
    assert len(gammas) == 649
    assert sorted(audited) == [float(g) for g in gammas[::100]]


def test_report_oracle_method(zeros100, chi3, chi5):
    cfg = make_config(chi3, chi5)
    afe = thm2_report(zeros100, 60.0, cfg)
    orc = thm2_report(zeros100, 60.0, cfg, method="oracle")
    # agreement is governed by the per-zero certified AFE remainders,
    # which are wide at these low heights
    ev = ThmTwoEvaluator(cfg, 60.0)
    budget = math.sqrt(7) * sum(
        lv.bound for g in zeros100.up_to(60.0)
        for lv in ev.l_values(float(g)))
    assert abs(afe.sum_a - orc.sum_a) <= budget
    assert abs(afe.sum_a - orc.sum_a) < 0.05 * budget  # and in practice far inside
    with pytest.raises(PreconditionError):
        thm2_report(zeros100, 60.0, cfg, method="fastest")


def test_oracle_pool_keeps_table_order(zeros1000, chi3, chi5, monkeypatch):
    # 649 zeros make 2 oracle blocks per character; the first block is held
    # back so that it finishes last, and the report must still equal a
    # serial reduction in table order, bit for bit
    cfg = make_config(chi3, chi5)
    gammas = zeros1000.up_to(1000.0)
    ev = ThmTwoEvaluator(cfg, 1000.0)
    r1, r2 = [], []
    for start in range(0, len(gammas), 512):
        block = gammas[start:start + 512]
        l1s, _ = l_oracle_critical_batch(block, chi3)
        l2s, _ = l_oracle_critical_batch(block, chi5)
        for g, l1, l2 in zip(block, l1s, l2s):
            b = ev.b_value(float(g))
            r1.append(b * complex(l1))
            r2.append(b * complex(l2))
    diffs = [x - y for x, y in zip(r1, r2)]
    sum_a = neumaier_sum_complex(diffs)
    sum_abs2 = neumaier_sum(abs(a) ** 2 for a in diffs)

    route = lfunc.l_via_hurwitz

    def first_block_last(table, sigma, ts, tol):
        if ts[0] == gammas[0]:
            time.sleep(0.2)
        return route(table, sigma, ts, tol)

    monkeypatch.setattr(lfunc, "l_via_hurwitz", first_block_last)
    rep = thm2_report(zeros1000, 1000.0, cfg, method="oracle")
    assert len(gammas) == 649
    assert rep.n_zeros == 649
    assert rep.sum_chi1 == neumaier_sum_complex(r1)
    assert rep.sum_chi2 == neumaier_sum_complex(r2)
    assert rep.sum_a == sum_a
    assert rep.sum_abs_a2 == sum_abs2
    assert rep.lower_bound_count == abs(sum_a) ** 2 / sum_abs2


def test_oracle_pool_error_propagates_and_joins(zeros1000, chi3, chi5, monkeypatch):
    # a failing block raises through thm2_report, and the pool's threads
    # are gone when it returns
    gammas = zeros1000.up_to(1000.0)
    route = lfunc.l_via_hurwitz

    def second_block_fails(table, sigma, ts, tol):
        if ts[0] == gammas[512]:
            raise AccuracyLoss("planted failure in the second block")
        return route(table, sigma, ts, tol)

    monkeypatch.setattr(lfunc, "l_via_hurwitz", second_block_fails)
    before = threading.active_count()
    with pytest.raises(AccuracyLoss, match="planted"):
        thm2_report(zeros1000, 1000.0, make_config(chi3, chi5), method="oracle")
    assert threading.active_count() == before


def test_oracle_pool_empty_table(zeros100, chi3, chi5, monkeypatch):
    # no zeros up to T: no pool, zero sums
    def no_pool(*args, **kwargs):
        raise AssertionError("an empty table started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    rep = thm2_report(zeros100, 12.0, make_config(chi3, chi5), method="oracle")
    assert rep.n_zeros == 0
    assert rep.sum_a == 0 and rep.sum_abs_a2 == 0.0 and rep.lower_bound_count == 0.0


@pytest.mark.parametrize("t", [1.0, 2.0 * math.pi, math.nan, math.inf])
def test_report_rejects_heights_without_a_main_term(zeros100, chi3, chi5, t):
    # the main term (T/2pi) log(T/2pi) needs T > 2 pi, and csv_row divides
    # by T log^2 T, which is 0 at T = 1
    with pytest.raises(PreconditionError):
        thm2_report(zeros100, t, make_config(chi3, chi5))


def test_audit_fires_on_a_planted_oracle_defect(zeros100, zeros1000, chi3, chi5,
                                                monkeypatch):
    # chi1's oracle value moved by 1e3 at every height above `start`: the
    # first audit there raises, at gamma_1 (index 0) or, for a defect that
    # starts after gamma_1, at index 100, so audits past index 0 fire
    from lpairs.lfunc import LValue

    def shifted(s, chi):
        value = l_oracle(s, chi)
        if chi == chi3 and s.imag > start:
            return LValue(value.value + 1e3, value.bound, value.method)
        return value

    monkeypatch.setattr(cl, "l_oracle", shifted)
    for zeros, t, start, first in ((zeros100, 100.0, 0.0, "14.13"),
                                   (zeros1000, 1000.0, 15.0, "237.769")):
        with pytest.raises(OracleAuditFailure, match=f"A\\({first}"):
            thm2_report(zeros, t, make_config(chi3, chi5))


def test_audit_fires_on_an_oracle_defect_both_characters_share(zeros100, chi3, chi5,
                                                               monkeypatch):
    # both oracle values moved by 1e3 at every height: the shift cancels in
    # the difference L1 - L2, so each character is audited on its own, and
    # the first audit (at gamma_1) raises
    from lpairs.lfunc import LValue

    def shifted(s, chi):
        value = l_oracle(s, chi)
        return LValue(value.value + 1e3, value.bound, value.method)

    monkeypatch.setattr(cl, "l_oracle", shifted)
    with pytest.raises(OracleAuditFailure, match="A\\(14.13"):
        thm2_report(zeros100, 100.0, make_config(chi3, chi5))


@pytest.mark.parametrize("p", [9, 1, 3, 5])
def test_make_config_rejects_explicit_p_not_prime_or_a_modulus(chi3, chi5, p):
    with pytest.raises(PreconditionError, match=f"auxiliary prime {p} must be prime"):
        make_config(chi3, chi5, p=p)


@pytest.mark.parametrize("method", ["afe", "oracle"])
def test_empty_table_tabulates_no_windows(chi3, chi5, method):
    # a table with no ordinates and t_max = inf (load_zeros caps an
    # empty file at the first-zero floor); the evaluator's windows
    # reach its last zero, not T (84.7 MB traced at T = 1e12 when they
    # reached T)
    import tracemalloc

    from lpairs.zeros import ZeroTable
    empty = ZeroTable(np.empty(0), "file", math.inf)
    cfg = make_config(chi3, chi5)
    tracemalloc.start()
    try:
        rep = thm2_report(empty, 1e12, cfg, method=method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_zeros == 0 and rep.sum_a == 0
    assert peak <= 1e6, peak


def test_one_term_polynomial_is_cos_sin(zeros1000, chi3, chi5):
    # B(rho) = p^rho through lfunc.dirichlet_values has the bits of
    # sqrt(p) (cos(gamma log p), sin(gamma log p)) at every zero below 1000
    gammas = zeros1000.ordinates
    for chi2, p in ((chi5, 7), (chi5, 11), (chi5, 13), (character(7, 1), 31)):
        ev = ThmTwoEvaluator(make_config(chi3, chi2, p=p), 50.0)
        amp, log_p = math.sqrt(p), math.log(p)
        assert ev.b_values(gammas).tolist() == [
            amp * complex(math.cos(g * log_p), math.sin(g * log_p))
            for g in gammas.tolist()]
