import concurrent.futures
import math
import warnings

import numpy as np
import pytest

import lpairs.lfunc as lfunc
from lpairs.characters import character
from lpairs.errors import (
    AccuracyLoss,
    DomainTooSmall,
    HeightExceeded,
    OutOfStrip,
    PrincipalCharacter,
)
from lpairs.lfunc import AfeWindows, l_afe, l_oracle, l_oracle_critical_batch

GAMMA_1 = 14.134725141734693790

# mpmath 50-digit value of pi / (3 sqrt 3)
L1_CHI3 = 0.60459978807807261686469275254738524409468874936425


def test_oracle_classical_value_at_one(chi3):
    got = l_oracle(1.0, chi3)
    assert abs(got.value - L1_CHI3) < 1e-9
    assert got.method == "oracle"


def test_oracle_at_one_against_partial_sums(chi3):
    # direct summation of sum chi(n)/n in blocks of 3 converges with
    # tail < 1/(3N); crude but fully independent
    n = np.arange(1, 3_000_001)
    table = chi3.value_table()
    direct = float(np.sum((table[n % 3] / n).real))
    assert abs(l_oracle(1.0, chi3).value - direct) < 1e-6


def test_oracle_at_two_against_direct_sum(chi3):
    n = np.arange(1, 200_001)
    table = chi3.value_table()
    direct = complex(np.sum(table[n % 3] * n ** -2.0))
    # absolutely convergent; tail below 1/N
    assert abs(l_oracle(2.0, chi3).value - direct) < 1e-5
    assert l_oracle(2.0, chi3).bound <= 1e-9


def test_afe_within_bound_at_probe_points(chi3, chi5):
    for chi in (chi3, chi5):
        for sigma in (0.55, 0.75, 0.9):
            for t in (100.0, 1000.0):
                for delta in (1.0, 2.0, math.sqrt(chi.modulus)):
                    s = complex(sigma, t)
                    afe = l_afe(s, chi, delta)
                    orc = l_oracle(s, chi)
                    assert abs(afe.value - orc.value) <= afe.bound


def test_afe_at_first_zero_height(chi5):
    s = complex(0.5, GAMMA_1)
    afe = l_afe(s, chi5)
    orc = l_oracle(s, chi5)
    assert abs(afe.value) > 0.01
    assert abs(afe.value - orc.value) <= afe.bound


def test_afe_delta_invariance(chi3):
    s = complex(0.75, 100.0)
    one = l_afe(s, chi3, 1.0)
    two = l_afe(s, chi3, 2.0)
    assert abs(one.value - two.value) <= one.bound + two.bound


def test_afe_negative_height_reflection(chi5):
    s = complex(0.75, 120.0)
    up = l_afe(s, chi5)
    down = l_afe(s.conjugate(), chi5.conjugate())
    assert down.value == up.value.conjugate()
    assert down.bound == up.bound


def test_preconditions(chi3, chi5):
    with pytest.raises(OutOfStrip):
        l_afe(complex(1.2, 100.0), chi3)
    with pytest.raises(PrincipalCharacter):
        l_afe(complex(0.5, 100.0), character(5, 0))
    with pytest.raises(PrincipalCharacter):
        l_oracle(complex(0.5, 100.0), character(3, 0))
    with pytest.raises(DomainTooSmall):
        l_afe(complex(0.5, 3.0), chi3)
    for delta in (0.5, math.nan, math.inf):
        # nan used to raise a bare ValueError and inf an OverflowError
        with pytest.raises(DomainTooSmall):
            l_afe(complex(0.5, 100.0), chi3, delta=delta)
    with pytest.raises(HeightExceeded):
        l_oracle(complex(0.5, 2e4), chi3)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_heights_rejected(chi5, t):
    # nan used to pass both height checks and fail in int(nan)
    with pytest.raises(HeightExceeded):
        l_oracle(complex(0.5, t), chi5)
    with pytest.raises(DomainTooSmall):
        l_afe(complex(0.75, t), chi5)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_non_finite_real_part_rejected(chi5, sigma):
    # it used to run the Euler-Maclaurin kernel, warn, and raise
    # AccuracyLoss, a numerics error, for a bad argument
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainTooSmall):
            l_oracle(complex(sigma, 100.0), chi5)


def test_batch_oracle_matches_scalar(chi5):
    ts = np.array([20.0, 50.0, 121.3, 400.0])
    batch, bound = l_oracle_critical_batch(ts, chi5)
    assert bound < 1e-9
    for t, got in zip(ts, batch):
        ref = l_oracle(complex(0.5, t), chi5)
        assert abs(got - ref.value) <= bound + ref.bound


def test_batch_oracle_empty_batch(chi5):
    # an empty batch used to reach np.max and raise a bare ValueError
    values, bound = l_oracle_critical_batch(np.array([]), chi5)
    assert values.dtype == complex and values.shape == (0,)
    assert bound == 0.0


def test_batch_oracle_blocks_on_a_pool_in_block_order(chi3, monkeypatch):
    # 1100 heights make 3 blocks of at most 512, each with its own N, run
    # on a pool: the values are the serial blocks' values, bit for bit,
    # and the bound is their worst.  Empty and one-block batches start
    # no pool.
    ts = np.linspace(20.0, 1500.0, 1100)
    blocks = [l_oracle_critical_batch(ts[lo:lo + 512], chi3) for lo in (0, 512, 1024)]
    pools = []
    executor = concurrent.futures.ThreadPoolExecutor

    def recording(*args, **kwargs):
        pools.append(kwargs)
        return executor(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    values, bound = l_oracle_critical_batch(ts, chi3)
    assert values.tobytes() == np.concatenate([v for v, _ in blocks]).tobytes()
    assert bound == max(b for _, b in blocks)
    assert len(pools) == 1
    l_oracle_critical_batch(ts[:512], chi3)
    l_oracle_critical_batch(ts[:0], chi3)
    l_oracle(complex(0.5, 100.0), chi3)
    assert len(pools) == 1


def test_batch_oracle_checks_every_height_against_the_ceiling(chi5):
    # the ceiling used to be read off the last height only, which let a
    # height of 2e4 through with a bound above the 1e-9 certificate
    with pytest.raises(HeightExceeded):
        l_oracle_critical_batch(np.array([2e4, 100.0]), chi5)
    with pytest.raises(HeightExceeded):
        l_oracle_critical_batch(np.array([100.0, math.nan]), chi5)


# (table, N) of the wheel-sum checks: at top = mN - 1, the L-route's, a cut
# floor(top / s) falls exactly on a unit r (204 = 12 x 17, 104 = 8 x 13)
WHEEL_TABLES = ((character(3, 1), 35), (character(5, 2), 41), (character(5, 1), 41))
WHEEL_POINTS = [(sigma, t) for sigma in (0.5, 0.75, 1.3) for t in (0.0, 14.1, 5000.3, 9999.9)]


@pytest.fixture(scope="module")
def literal_sums():
    """{(q, j, top, sigma, t): (sum_{k <= top} chi(k) k^-s at 30 digits, allowance)}
    at top = mN - 1 and at mN, where chi(top + 1) = 1.  The allowance is
    the L-route's rounding model for top terms, 4 eps (t + 2) log(top + 2)
    sqrt(sum |chi(k)|^2 k^(-2 sigma) + 1)."""
    mp = pytest.importorskip("mpmath")
    sums = {}
    for chi, n in WHEEL_TABLES:
        q, table = chi.modulus, chi.value_table()
        for top in (q * n - 1, q * n):
            k = np.arange(1, top + 1)
            for sigma, t in WHEEL_POINTS:
                with mp.workdps(30):
                    s = mp.mpc(sigma, t)
                    ref = complex(mp.fsum(mp.mpc(complex(table[i % q])) * mp.power(i, -s)
                                          for i in range(1, top + 1) if i % q))
                squares = float(np.sum(np.abs(table[k % q]) ** 2 * k ** (-2.0 * sigma)))
                allowance = (4.0 * 2.220446049250313e-16 * (t + 2.0) * math.log(top + 2.0)
                             * math.sqrt(squares + 1.0))
                sums[(q, chi.index, top, sigma, t)] = ref, allowance
    return sums


def _wheel_misses(literal_sums, chi, tops) -> list:
    """The points where wheel_sum is off the literal sum by more than the
    allowance."""
    table = chi.value_table()
    return [key for key, (ref, allowance) in literal_sums.items()
            if key[:2] == (chi.modulus, chi.index) and key[2] in tops
            and abs(lfunc.wheel_sum(table, key[3], [key[4]], key[2])[0] - ref) > allowance]


def test_wheel_sum_matches_the_literal_dirichlet_sum(literal_sums):
    for chi, n in WHEEL_TABLES:
        q, table = chi.modulus, chi.value_table()
        top = q * n - 1
        smooth = math.gcd(top, 2 ** 20 * 3 ** 20)
        assert smooth > 1 and math.gcd(top // smooth, 6 * q) == 1 and table[smooth % q] != 0
        assert _wheel_misses(literal_sums, chi, (top, top + 1)) == []
        # a batch gives each height the bits of that height alone
        ts = np.array([t for _, t in WHEEL_POINTS[:4]] * 2)
        batch = lfunc.wheel_sum(table, 0.75, ts, top)
        alone = [lfunc.wheel_sum(table, 0.75, [t], top)[0] for t in ts]
        assert batch.tolist() == alone


def test_wheel_sum_check_fires_on_planted_defects(literal_sums, monkeypatch):
    wheel = lfunc._wheel
    chi5_1 = character(5, 1)
    # the units r = 5 (mod 6) are dropped: every point misses
    with monkeypatch.context() as m:
        m.setattr(lfunc, "_WHEEL_UNITS", (1,))
        for chi, n in WHEEL_TABLES:
            tops = (chi.modulus * n - 1, chi.modulus * n)
            assert len(_wheel_misses(literal_sums, chi, tops)) == 2 * len(WHEEL_POINTS)
    # cuts at floor((top + 1) / s), which admit k = top + 1: every point
    # misses at top = mN, where chi(top + 1) = 1.  At the L-route's
    # top = mN - 1 the admitted k = mN has chi(mN) = 0, and nothing changes
    with monkeypatch.context() as m:
        m.setattr(lfunc, "_wheel", lambda table, sigma, top: wheel(table, sigma, top + 1))
        for chi, n in WHEEL_TABLES:
            top = chi.modulus * n
            assert len(_wheel_misses(literal_sums, chi, (top,))) == len(WHEEL_POINTS)
            assert _wheel_misses(literal_sums, chi, (top - 1,)) == []

    # chi(2) = i conjugated in the smooth factor s = 2 of the complex 5:1
    def conjugated_two(table, sigma, top):
        tables = wheel(table, sigma, top)
        coef_s = tables.coef_s.copy()
        two = int(np.argmin(np.abs(tables.ilog_s.imag + math.log(2.0))))
        coef_s[two] = coef_s[two].conjugate()
        return tables._replace(coef_s=coef_s)

    assert chi5_1(2) == 1j
    with monkeypatch.context() as m:
        m.setattr(lfunc, "_wheel", conjugated_two)
        tops = (5 * 41 - 1, 5 * 41)
        assert len(_wheel_misses(literal_sums, chi5_1, tops)) == 2 * len(WHEEL_POINTS)


def test_batch_oracle_enforces_its_certificate(chi3, chi5, monkeypatch):
    # a worst bound above 1e-9 raises instead of returning.  A real input:
    # at sigma = 0.05, t = 1e4 the power sums' rounding allowance passes it
    with pytest.raises(AccuracyLoss, match="oracle bound 4.79e-09"):
        l_oracle(complex(0.05, 1e4), chi3)
    # a planted defect: the Hurwitz route reports a 1e-8 bound, and both
    # entry points refuse its values
    route = lfunc.l_via_hurwitz
    monkeypatch.setattr(lfunc, "l_via_hurwitz",
                        lambda *args: (route(*args)[0], 1e-8))
    with pytest.raises(AccuracyLoss):
        l_oracle_critical_batch(np.array([100.0]), chi5)
    with pytest.raises(AccuracyLoss):
        l_oracle(complex(0.5, 100.0), chi5)


def test_afe_windows_match_literal_power_sums(chi3, chi5):
    # the tabulated windows (amplitudes times shared, conjugated phases)
    # against the literal sums of chi(n) n^-s and conj chi(m) m^(s-1);
    # the table is built for a larger t_max than the height it serves
    for chi in (chi3, chi5):
        for sigma, delta, t in ((0.5, 1.0, 100.0), (0.75, 2.0, 1234.5),
                                (0.6, 1.7, 5000.0)):
            (first,), (second,) = AfeWindows(chi, sigma, delta, 2.0 * t).sums([t])
            s = complex(sigma, t)
            root = math.sqrt(chi.modulus * t / (2.0 * math.pi))
            ref1 = sum(chi(n) * n ** (-s) for n in range(1, math.floor(delta * root) + 1))
            ref2 = sum(chi(m).conjugate() * m ** (s - 1.0)
                       for m in range(1, math.floor(root / delta) + 1))
            assert abs(first - ref1) <= 1e-9
            assert abs(second - ref2) <= 1e-9


def test_afe_windows_reject_heights_above_t_max(chi3):
    # a height beyond the tabulated windows used to drop terms silently
    win = AfeWindows(chi3, 0.5, 1.0, 100.0)
    win.sums([100.0])
    with pytest.raises(HeightExceeded):
        win.sums([100.0, 5000.0])


def test_afe_windows_take_an_empty_batch(chi3):
    win = AfeWindows(chi3, 0.5, 1.0, 100.0)
    firsts, seconds = win.sums([])
    assert firsts.shape == seconds.shape == (0,)
    assert win.values([]) == []


def _one_height_sums(win, t):
    """Both window sums at one height, by the one-height formula: a 1-D
    phase array and np.sum over each window."""
    k = math.floor(win.delta * win.root * math.sqrt(t))
    j = math.floor(win.root * math.sqrt(t) / win.delta)
    phases = np.exp(-1j * t * win._logn[:max(k, j)])
    return (complex(np.sum(win._w[:k] * phases[:k])),
            complex(np.sum(win._v[:j] * np.conj(phases[:j]))))


@pytest.mark.parametrize("chi", [character(3, 1), character(5, 2), character(5, 1)],
                         ids=str)
@pytest.mark.parametrize("sigma", [0.5, 0.75])
@pytest.mark.parametrize("delta", [1.0, math.sqrt(5.0), 2.5])
def test_batched_window_sums_equal_one_height_sums(chi, sigma, delta):
    # the groups of equal window lengths (k, j) give every height the bits
    # of the one-height formula; the 400 heights cross many steps of k and
    # of j.  x / y = delta^2, so k and j step together at delta = 1 and
    # sqrt 5, and apart at delta = 2.5
    win = AfeWindows(chi, sigma, delta, 1500.0)
    ts = np.linspace(300.0, 1500.0, 400)
    k, j = win.lengths(ts)
    assert len(set(k.tolist())) > 10 and len(set(j.tolist())) > 3
    firsts, seconds = win.sums(ts)
    expected = [_one_height_sums(win, t) for t in ts.tolist()]
    assert list(zip(firsts.tolist(), seconds.tolist())) == expected
    assert [lv.value for lv in map(win.value, ts.tolist())] == win.values(ts)


class _Products(lfunc.PairEvaluator):
    """A pair evaluator whose row is (B, L1 L2), auditing by recording."""

    @staticmethod
    def _row(b, l1, l2):
        return b, l1 * l2

    def audit(self, gamma):
        self.audited.append(gamma)


@pytest.mark.parametrize("given", [False, True], ids=["afe", "lvalues"])
def test_pair_evaluator_rows_equal_one_height_rows(zeros1000, chi3, chi5, given):
    # 200 zeros cross three block edges; every row has the bits of its
    # height alone, with AFE values or with the L-values handed in
    gammas = zeros1000.ordinates[100:300]
    log_n = np.log([1.0, 2.0, 6.0])
    amp = np.array([1.0, -0.5 + 0.25j, 0.125j]) * np.exp(-0.75 * log_n)
    ev = _Products(chi3, chi5, 0.75, (math.sqrt(5.0), 1.0), float(gammas[-1]), log_n, amp)
    rng = np.random.default_rng(7)
    lvalues = [rng.normal(size=200) + 1j * rng.normal(size=200) for _ in range(2)]
    ev.audited = []
    out = ev.rows(gammas, np.empty((200, 2), dtype=complex), lvalues if given else None)
    # AFE values are audited at every 100th table index, given ones never
    assert ev.audited == ([] if given else [float(gammas[0]), float(gammas[100])])
    expected = []
    for i, g in enumerate(gammas.tolist()):
        b = complex(lfunc.dirichlet_values(log_n, amp, [g])[0])
        assert b == ev.b_value(g)
        assert abs(b - sum(c * n ** complex(-0.75, -g) for c, n in
                           zip(amp * np.exp(0.75 * log_n), [1, 2, 6]))) < 1e-12
        l1, l2 = ((complex(lvalues[0][i]), complex(lvalues[1][i])) if given
                  else (lv.value for lv in ev.l_values(g)))
        expected.append([b, l1 * l2])
    assert out.tolist() == expected


def test_pair_evaluator_audits_table_indices(zeros1000, chi3, chi5, monkeypatch):
    gammas = zeros1000.ordinates[:130]
    ev = _Products(chi3, chi5, 0.5, (1.0, 1.0), float(gammas[-1]), [0.0], [1.0])
    for stride, indices in ((lfunc._AUDIT_STRIDE, [0, 100]), (1, range(130)),
                            (64, [0, 64, 128]), (10 ** 6, [0])):
        monkeypatch.setattr(lfunc, "_AUDIT_STRIDE", stride)
        ev.audited = []
        ev.rows(gammas, np.empty((130, 2), dtype=complex))
        assert ev.audited == [float(gammas[i]) for i in indices]
