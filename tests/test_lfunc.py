import math
import warnings

import numpy as np
import pytest

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
    with pytest.raises(DomainTooSmall):
        l_afe(complex(0.5, 100.0), chi3, delta=0.5)
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


def test_batch_oracle_checks_every_height_against_the_ceiling(chi5):
    # the ceiling used to be read off the last height only, which let a
    # height of 2e4 through with a bound above the 1e-9 certificate
    with pytest.raises(HeightExceeded):
        l_oracle_critical_batch(np.array([2e4, 100.0]), chi5)
    with pytest.raises(HeightExceeded):
        l_oracle_critical_batch(np.array([100.0, math.nan]), chi5)


def test_batch_oracle_enforces_its_certificate(chi5):
    # like l_oracle, a worst bound above 1e-9 raises instead of returning
    with pytest.raises(AccuracyLoss):
        l_oracle_critical_batch(np.array([100.0]), chi5, tol=1e-6)
    with pytest.raises(AccuracyLoss):
        l_oracle(complex(0.5, 100.0), chi5, tol=1e-6)


def test_afe_windows_match_literal_power_sums(chi3, chi5):
    # the tabulated windows (amplitudes times shared, conjugated phases)
    # against the literal sums of chi(n) n^-s and conj chi(m) m^(s-1);
    # the table is built for a larger t_max than the height it serves
    for chi in (chi3, chi5):
        for sigma, delta, t in ((0.5, 1.0, 100.0), (0.75, 2.0, 1234.5),
                                (0.6, 1.7, 5000.0)):
            first, second = AfeWindows(chi, sigma, delta, 2.0 * t).sums(t)
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
    win.sums(100.0)
    with pytest.raises(HeightExceeded):
        win.sums(5000.0)
