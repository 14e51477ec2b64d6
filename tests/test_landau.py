import math
import time
from fractions import Fraction

import pytest

from lpairs.errors import PreconditionError, RangeExceeded
from lpairs.landau import (
    landau_error_budgets,
    landau_main_term,
    landau_zero_sum,
    nearest_pp_distance,
    rational_point,
    von_mangoldt,
)
from lpairs.primes import _integer_root, is_prime, prime_power, primes_upto
from lpairs.summation import neumaier_sum_complex


def sieved_prime_powers(limit: int) -> list[int]:
    """All prime powers p**k <= limit, ascending: the sieve's primes and
    their powers, a reference independent of prime_power."""
    out = []
    for p in primes_upto(limit):
        v = p
        while v <= limit:
            out.append(v)
            v *= p
    out.sort()
    return out


def test_rational_point_parsing():
    assert rational_point("15/2") == Fraction(15, 2)
    assert rational_point(2) == Fraction(2)
    assert rational_point(Fraction(9, 4)) == Fraction(9, 4)
    with pytest.raises(PreconditionError):
        rational_point(1)
    with pytest.raises(PreconditionError):
        rational_point("1/2")


@pytest.mark.parametrize("text", ["3/0", "0/0"])
def test_rational_point_rejects_zero_denominator(text):
    # Fraction raises ZeroDivisionError, which the CLI would not map to exit 1
    with pytest.raises(PreconditionError):
        rational_point(text)


@pytest.mark.parametrize("value", ["1e400", 10 ** 400, math.inf, math.nan],
                         ids=["1e400", "10**400", "inf", "nan"])
def test_rational_point_rejects_non_finite_float(value):
    # the zero sum takes float(x) ** 0.5, which overflowed at 1e400
    with pytest.raises(PreconditionError):
        rational_point(value)


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_is_prime_strong_pseudoprimes():
    # psi_12 passes the Miller-Rabin bases 2..37 and fails base 41;
    # psi_13 passes 2..41, so the witness set cannot decide it
    assert not is_prime(PSI_12)
    assert von_mangoldt(PSI_12) == 0.0
    with pytest.raises(PreconditionError):
        is_prime(PSI_13)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(PSI_13 + 1)  # even: decided by trial division


def test_von_mangoldt_prime_powers():
    assert von_mangoldt(8) == pytest.approx(math.log(2), abs=1e-15)
    assert von_mangoldt(9) == pytest.approx(math.log(3), abs=1e-15)
    assert von_mangoldt(7) == pytest.approx(math.log(7), abs=1e-15)
    assert von_mangoldt(1024) == pytest.approx(math.log(2), abs=1e-15)


def test_von_mangoldt_zero_cases():
    assert von_mangoldt(6) == 0.0
    assert von_mangoldt(Fraction(7, 2)) == 0.0
    assert von_mangoldt(1) == 0.0
    assert von_mangoldt(100) == 0.0  # 100 = 2^2 * 5^2, not p^k


def test_prime_power_detection_exact():
    assert prime_power(2 ** 40) == (2, 40)
    assert prime_power(3 ** 5) == (3, 5)
    assert prime_power(2 ** 40 + 1) is None
    assert prime_power(1) is None


@pytest.mark.parametrize("n", [2, 7, 8, 10 ** 12 - 1, 2 ** 64, 10 ** 50, 10 ** 300,
                               2 ** 1000 + 1, 2 ** 1100, 3 ** 700],
                         ids=["2", "7", "8", "1e12-1", "2^64", "1e50", "1e300",
                              "2^1000+1", "2^1100", "3^700"])
def test_integer_root_is_exact(n):
    # the float seed n ** (1/k) was off by ~1e9 units near 1e50, so the
    # +-1 steps ran for minutes, and raised OverflowError from 2^1024
    for k in (1, 2, 3, 5, 7, 64, 1000, 2000):
        r = _integer_root(n, k)
        assert r ** k <= n < (r + 1) ** k


def test_prime_power_of_large_arguments_is_fast():
    p = 3 * 10 ** 24 + 7  # prime, below psi_13
    start = time.perf_counter()
    assert prime_power(p * p) == (p, 2)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert prime_power(10 ** 50) is None
    assert time.perf_counter() - start < 1.0


def test_nearest_pp_distance_basics():
    assert nearest_pp_distance(10) == 1           # 9 and 11
    assert nearest_pp_distance(Fraction(5, 2)) == Fraction(1, 2)  # 2 and 3
    assert nearest_pp_distance(8) == 1            # 7 and 9, 8 itself excluded
    assert nearest_pp_distance(2) == 1            # 3 (1 is not a prime power)
    assert nearest_pp_distance(Fraction(31, 2)) == Fraction(1, 2)


def test_nearest_pp_distance_is_exact_fraction():
    d = nearest_pp_distance(Fraction(100001, 100))
    # 1000.01 sits next to the prime 997 and prime power 1009; exact arithmetic
    pps = [v for v in sieved_prime_powers(2100)]
    best = min(abs(Fraction(100001, 100) - v) for v in pps)
    assert d == best


def test_nearest_pp_distance_matches_brute_force():
    # the outward scan against the minimum over every prime power up to
    # 2x + 1, at every half and integer x in [3/2, 2000], prime powers
    # among them; in units of 1/2, so the minimum is integer arithmetic
    doubled = [2 * v for v in sieved_prime_powers(4001)]
    for x2 in range(3, 4001):
        best = min(abs(x2 - v2) for v2 in doubled if v2 != x2)
        assert nearest_pp_distance(Fraction(x2, 2)) == Fraction(best, 2), x2


def test_nearest_pp_distance_is_fast_far_out():
    # the sieve up to 2x + 1 used to take seconds from x ~ 1e6
    start = time.perf_counter()
    d = nearest_pp_distance(Fraction(2 * 10 ** 12 + 1, 2))
    assert time.perf_counter() - start < 1.0
    assert d.denominator == 2


def test_zero_sum_empty_below_first_zero(zeros100):
    assert landau_zero_sum(2, zeros100, 12.0) == 0


def test_zero_sum_range_guard(zeros100):
    with pytest.raises(RangeExceeded):
        landau_zero_sum(2, zeros100, 500.0)
    # nan used to sum every zero of the table
    with pytest.raises(PreconditionError):
        landau_zero_sum(2, zeros100, math.nan)


def test_zero_sum_matches_direct_evaluation(zeros100):
    # same formula, written independently, summed in reverse order
    x = Fraction(3, 2)
    got = landau_zero_sum(x, zeros100, 100.0)
    lx = math.log(1.5)
    amp = math.sqrt(1.5)
    direct = sum(amp * complex(math.cos(g * lx), math.sin(g * lx))
                 for g in reversed(zeros100.ordinates))
    assert abs(got - direct) < 1e-10


def test_zero_sum_conjugation_symmetry(zeros100):
    x = Fraction(5, 2)
    forward = landau_zero_sum(x, zeros100, 100.0)
    lx = math.log(2.5)
    amp = math.sqrt(2.5)
    backward = neumaier_sum_complex(
        amp * complex(math.cos(-g * lx), math.sin(-g * lx))
        for g in zeros100.ordinates)
    assert abs(backward - forward.conjugate()) < 1e-14


def test_main_term_recovery_at_1000(zeros1000):
    # Re sum 2^rho = -(T/2pi) log 2 within the budget slack
    t = 1000.0
    s = landau_zero_sum(2, zeros1000, t)
    main = landau_main_term(2, t)
    assert main == pytest.approx(-(t / (2 * math.pi)) * math.log(2), rel=1e-12)
    budget = landau_error_budgets(2, [t])[0]
    assert abs(s.real - main) <= 5.0 * budget


def test_non_prime_power_suppression(zeros1000):
    t = 1000.0
    assert abs(landau_zero_sum(6, zeros1000, t)) < abs(landau_zero_sum(2, zeros1000, t))


def test_main_term_recovery_sweep(zeros5000):
    for x in (2, 3, 4, 5, 8, 9):
        for t in (1000.0, 2000.0, 5000.0):
            s = landau_zero_sum(x, zeros5000, t)
            main = landau_main_term(x, t)
            slack = max(5.0 * landau_error_budgets(x, [t])[0], 0.2 * abs(main))
            assert abs(s.real - main) <= slack


def test_suppression_trend_doubling(zeros5000):
    # no main term for non-prime-powers: |sum|/T is oscillatory noise, so
    # the decrease is read endpoint-to-endpoint (stepwise magnitudes of a
    # random walk are not monotone), against the stable x = 2 reference
    ref = {t: abs(landau_zero_sum(2, zeros5000, t)) / t
           for t in (1000.0, 2000.0, 4000.0)}
    assert max(ref.values()) / min(ref.values()) < 1.2
    for x in (6, 10, Fraction(15, 2)):
        ratios = {t: abs(landau_zero_sum(x, zeros5000, t)) / t
                  for t in (1000.0, 2000.0, 4000.0)}
        assert ratios[4000.0] <= 1.2 * ratios[1000.0]
        for t, r in ratios.items():
            assert r <= 0.2 * ref[t]


def test_budget_symbolic_recomputation():
    # recompute the three budget pieces from their definitions
    x, t = Fraction(2), 1000.0
    dist = nearest_pp_distance(x)  # <2> = 1
    assert dist == 1
    expected = (2.0 * math.log(2.0 * 2.0 * t) * math.log(math.log(6.0))
                + math.log(2.0) * min(t, 2.0 / 1.0)
                + math.log(2.0 * t) * min(t, 1.0 / math.log(2.0)))
    assert landau_error_budgets(x, [t])[0] == pytest.approx(expected, rel=1e-12)


def test_budget_min_saturation_near_one():
    # 1/log x >= T forces the third piece to T log 2T
    x = Fraction(10 ** 6 + 1, 10 ** 6)
    t = 100.0
    budget = landau_error_budgets(x, [t])[0]
    third = math.log(2.0 * t) * t
    assert budget >= third
    assert min(t, 1.0 / math.log(float(x))) == t


def test_budget_requires_valid_domain():
    with pytest.raises(PreconditionError):
        landau_error_budgets(2, [0.5])[0]


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_budget_rejects_non_finite_heights(t):
    # nan used to return a nan budget
    with pytest.raises(PreconditionError):
        landau_error_budgets(2, [t])[0]


def test_budgets_find_the_prime_power_gap_once(monkeypatch):
    # a sweep over T used to scan for <x> once per height; one scan serves
    # them all, and each budget equals the one-height value bit for bit
    import lpairs.landau as landau_mod

    calls = []
    counted = landau_mod.prime_power

    def counting(n):
        calls.append(n)
        return counted(n)

    monkeypatch.setattr(landau_mod, "prime_power", counting)
    x, ts = 10 ** 20, [100.0, 1e3, 1e4, 1e5]
    single = [landau_error_budgets(x, [t])[0] for t in ts]
    per_height = len(calls) // len(ts)
    calls.clear()
    assert landau_error_budgets(x, ts) == single
    assert len(calls) == per_height > 0
