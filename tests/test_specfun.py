import cmath
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from lpairs import specfun
from lpairs.characters import character
from lpairs.errors import (
    AccuracyLoss,
    DomainTooSmall,
    OutOfStrip,
    PoleAtNonPositiveInteger,
    PoleAtOne,
    PrincipalCharacter,
)
from lpairs.lfunc import l_oracle
from lpairs.specfun import (
    hardy_z,
    hurwitz_zeta,
    hurwitz_zeta_certified,
    log_gamma,
    riemann_siegel_theta,
    x_factor,
    x_factor_modulus_constant,
    zeta_em,
)

mp = pytest.importorskip("mpmath")


@pytest.fixture
def dps40():
    """mpmath at 40 digits for the tests that compare against it; the
    setting ends with the test, so other modules keep the default."""
    with mp.workdps(40):
        yield


# 50-digit mpmath references, frozen
LOG_GAMMA_2_3I = complex(-2.0928517530927333495641886250303752616932852964474,
                         2.302396543466867626153707617788581578292789221371)
LOG_GAMMA_REFL = complex(-3.8624060873955760149623364237997394670558529575521,
                         -4.622609407486976368371586298482734595706791200404)
THETA_ROOT = 17.845599540410860816826338412519097035693287433696
THETA_100 = 87.972165231787219625483129113748690868566519706706
GAMMA_1 = 14.134725141734693790457251983562470270784257115699


class TestLogGamma:
    def test_at_one_is_zero(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_at_half_is_log_sqrt_pi(self):
        assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_frozen_reference_2_plus_3i(self):
        got = log_gamma(2 + 3j)
        assert abs(got - LOG_GAMMA_2_3I) <= 1e-12 * max(1.0, abs(LOG_GAMMA_2_3I))

    def test_reflection_region(self):
        got = log_gamma(-1.5 + 2j)
        assert abs(got - LOG_GAMMA_REFL) <= 1e-12 * abs(LOG_GAMMA_REFL)

    def test_poles_raise(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleAtNonPositiveInteger):
                log_gamma(z)

    @pytest.mark.usefixtures("dps40")
    def test_random_grid_against_mpmath(self):
        rng = random.Random(11)
        for _ in range(120):
            z = complex(rng.uniform(0.05, 6.0), rng.uniform(-1e4, 1e4))
            ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
            assert abs(log_gamma(z) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_recurrence_consistency(self):
        z = 0.3 + 40j
        assert abs(log_gamma(z + 1) - (log_gamma(z) + cmath.log(z))) < 1e-12


class TestTheta:
    def test_domain(self):
        with pytest.raises(DomainTooSmall):
            riemann_siegel_theta(0.5)

    def test_positive_root(self):
        # bisect theta on [17, 18.5]; the root is the frozen reference
        lo, hi = 17.0, 18.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if riemann_siegel_theta(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - THETA_ROOT) < 1e-9

    def test_monotone_increasing_above_ten(self):
        ts = np.linspace(10.0, 500.0, 400)
        vals = [riemann_siegel_theta(t) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.usefixtures("dps40")
    def test_against_quadrature_oracle(self):
        # integrate theta'(u) = Re psi(1/4 + iu/2)/2 - log(pi)/2 from an
        # exact anchor at t = 10 up to 100 (independent of the expansion)
        anchor = float(mp.im(mp.loggamma(mp.mpc(0.25, 5.0)))) - 5.0 * math.log(math.pi)
        integral = mp.quad(
            lambda u: 0.5 * mp.re(mp.psi(0, mp.mpc(0.25, u / 2))) - mp.log(mp.pi) / 2,
            [10, 100])
        oracle = anchor + float(integral)
        assert abs(riemann_siegel_theta(100.0) - oracle) < 1e-7
        assert abs(riemann_siegel_theta(100.0) - THETA_100) < 1e-9


class TestZeta:
    def test_basel_value(self):
        assert abs(zeta_em(2.0) - math.pi ** 2 / 6.0) < 1e-12

    def test_pole_raises(self):
        with pytest.raises(PoleAtOne):
            zeta_em(1.0)
        with pytest.raises(PoleAtOne):
            hurwitz_zeta(1.0, 0.5)

    def test_small_at_first_zero(self):
        assert abs(zeta_em(complex(0.5, 14.134725))) < 1e-6

    def test_hurwitz_at_half_shift(self):
        assert abs(hurwitz_zeta(2.0, 0.5) - math.pi ** 2 / 2.0) < 1e-12

    def test_hurwitz_at_shift_one_equals_zeta(self):
        for s in (2.0, 0.5 + 30j, 0.75 + 500j):
            assert hurwitz_zeta(s, 1.0) == zeta_em(s)

    @pytest.mark.usefixtures("dps40")
    def test_certified_bounds_hold_against_mpmath(self):
        rng = random.Random(5)
        for _ in range(40):
            s = complex(rng.uniform(0.05, 2.0), rng.uniform(-1e4, 1e4))
            a = rng.choice([1.0, 0.5, 1.0 / 3.0, 0.2, 0.99])
            got, bound = hurwitz_zeta_certified(s, a)
            ref = complex(mp.zeta(mp.mpc(s.real, s.imag), mp.mpf(a)))
            assert abs(got - ref) <= bound
            # truncation is held at 1e-12; the returned bound adds a
            # float-rounding allowance that grows with |t|, 1/sigma, 1/a
            assert bound <= (1e-9 if 0.4 <= s.real <= 1.05 else 1e-8)
        # canonical oracle operating points keep a tight bound
        for t in (100.0, 1000.0, 5000.0):
            _, bound = hurwitz_zeta_certified(complex(0.75, t), 0.2)
            assert bound <= 2e-10
            _, bound = hurwitz_zeta_certified(complex(0.75, t), 1.0)
            assert bound <= 1e-10

    def test_shift_domain(self):
        with pytest.raises(DomainTooSmall):
            hurwitz_zeta(2.0, 1.5)


class TestHardyZ:
    def test_domain(self):
        with pytest.raises(DomainTooSmall):
            hardy_z(5.0)

    def test_sign_change_in_first_zero_bracket(self):
        assert hardy_z(14.0) * hardy_z(15.0) < 0

    def test_square_is_zeta_modulus_squared(self):
        for t in (14.2, 50.0, 333.3):
            z2 = hardy_z(t) ** 2
            m2 = abs(zeta_em(complex(0.5, t))) ** 2
            assert abs(z2 - m2) < 1e-10

    def test_sign_change_count_10_100(self, zeros100):
        # N(100) = 29 zeros means at least 29 sign changes of Z
        ts = np.linspace(10.0, 100.0, 2000)
        vals = np.array([hardy_z(float(t)) for t in ts])
        changes = int(np.sum(vals[:-1] * vals[1:] < 0))
        assert changes >= 29
        assert len(zeros100) == 29


class TestXFactor:
    def test_critical_line_modulus_one(self):
        for q, j in ((3, 1), (5, 1), (5, 2), (7, 3)):
            chi = character(q, j)
            for t in (1.0, 14.13, 100.0, 2500.0):
                assert abs(abs(x_factor(complex(0.5, t), chi)) - 1.0) < 1e-10

    def test_functional_equation_against_oracle(self):
        s = complex(0.6, 50.0)
        for q, j in ((3, 1), (5, 1), (5, 2), (5, 3)):
            chi = character(q, j)
            lhs = l_oracle(s, chi).value
            rhs = x_factor(s, chi) * l_oracle(1 - s, chi.conjugate()).value
            assert abs(lhs - rhs) < 1e-8

    def test_reflection_product_unimodular(self):
        chi = character(5, 2)
        for sigma in (0.3, 0.6, 0.75):
            for t in (20.0, 100.0, 1000.0):
                s = complex(sigma, t)
                prod = x_factor(s, chi) * x_factor(1 - s, chi.conjugate())
                assert abs(abs(prod) - 1.0) < 1e-8

    def test_rejects_bad_input(self):
        chi = character(5, 2)
        with pytest.raises(OutOfStrip):
            x_factor(complex(1.5, 10.0), chi)
        with pytest.raises(PrincipalCharacter):
            x_factor(complex(0.5, 10.0), character(5, 0))

    def test_stirling_modulus_constant(self):
        # |X(sigma+it)|^2 ~ A (q/pi)^{1-2s} t^{1-2s} with A = 2^{2s-1}
        chi = character(3, 1)
        sigma, t = 0.75, 100.0
        predicted = (x_factor_modulus_constant(sigma)
                     * (3.0 / math.pi) ** (1.0 - 2 * sigma) * t ** (1.0 - 2 * sigma))
        observed = abs(x_factor(complex(sigma, t), chi)) ** 2
        assert abs(observed - predicted) / predicted < 0.05

    def test_stirling_constant_empirical_fit(self):
        # fit A from the data across heights; it should be flat and match
        chi = character(5, 2)
        for sigma in (0.6, 0.75, 0.9):
            ratios = []
            for t in (200.0, 800.0, 3200.0):
                scale = (5.0 / math.pi) ** (1.0 - 2 * sigma) * t ** (1.0 - 2 * sigma)
                ratios.append(abs(x_factor(complex(sigma, t), chi)) ** 2 / scale)
            fitted = sum(ratios) / len(ratios)
            assert max(ratios) / min(ratios) < 1.02
            assert abs(fitted - x_factor_modulus_constant(sigma)) / fitted < 0.02

    def test_modulus_derivative_decay(self):
        # |d/dt |X|^2| <= K t^{-2 sigma} with one constant K per sigma:
        # the scaled derivative must show no growth trend in t
        chi = character(3, 1)
        for sigma in (0.6, 0.75, 0.9):
            scaled = []
            for t in (100.0, 200.0, 500.0, 1000.0, 2500.0, 5000.0):
                h = 1e-3
                up = abs(x_factor(complex(sigma, t + h), chi)) ** 2
                dn = abs(x_factor(complex(sigma, t - h), chi)) ** 2
                scaled.append(abs(up - dn) / (2 * h) * t ** (2 * sigma))
            scaled.sort()
            median = scaled[len(scaled) // 2]
            assert scaled[-1] <= 5.0 * median


def _rs_coefficients_from_psi(degree):
    """C_0..C_4 Taylor coefficients in x = p - 1/2, re-derived from Psi.

    Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p is expanded at p = 1/2 by
    mpmath.taylor; Psi^(m) has x^j coefficient a_{j+m} (j+m)!/j!, and the
    C_k combine the derivatives with Gabcke's weights.
    """
    with mp.workdps(60):
        psi = lambda p: (mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16))
                         / mp.cos(2 * mp.pi * p))
        a = mp.taylor(psi, mp.mpf(1) / 2, degree + 12)
        pi = mp.pi
        weights = (
            ((1, 0),),
            ((-1 / (96 * pi ** 2), 3),),
            ((1 / (64 * pi ** 2), 2), (1 / (18432 * pi ** 4), 6)),
            ((-1 / (64 * pi ** 2), 1), (-1 / (3840 * pi ** 4), 5),
             (-1 / (5308416 * pi ** 6), 9)),
            ((1 / (128 * pi ** 2), 0), (19 / (24576 * pi ** 4), 4),
             (11 / (5898240 * pi ** 6), 8), (1 / (2038431744 * pi ** 8), 12)),
        )
        return [[sum(w * a[j + m] * mp.factorial(j + m) / mp.factorial(j)
                      for w, m in row) for j in range(degree + 1)]
                for row in weights]


# 30-digit-working mpmath.siegelz is exact at double precision here
RS_HEIGHTS = (200.0, 200.5, 226.1946710584651, 263.7, 407.3, 600.0, 1000.0,
              1234.567, 1777.7, 2500.0, 3141.59, 4000.25, 5000.0, 5555.5,
              6283.185, 7005.1, 7777.7, 8600.3, 9400.0, 1e4)


@pytest.mark.usefixtures("dps40")
class TestRiemannSiegel:
    def test_coefficient_table_rederived_from_psi(self):
        derived = _rs_coefficients_from_psi(70)
        deriv_sum = corr_sum = mp.mpf(0)
        for k, (row, ref) in enumerate(zip(specfun._RS_C, derived)):
            powers = range(k % 2, 71, 2)
            assert all(abs(ref[j]) < 1e-40 for j in range(1 - k % 2, 71, 2))
            for c, j in zip(row, powers):
                assert abs(c - ref[j]) <= 2e-16 * abs(ref[j])
            # the table stops where the dropped tail is below 1e-18 on |x| <= 1/2
            last = k % 2 + 2 * (len(row) - 1)
            tail = sum(abs(ref[j]) * mp.mpf(2) ** -j for j in range(last + 2, 71, 2))
            assert tail < 1e-18
            assert abs(ref[last]) * mp.mpf(2) ** -last > 1e-21
            corr_sum += sum(abs(ref[j]) * mp.mpf(2) ** -j for j in range(71))
            deriv_sum += sum(j * abs(ref[j]) * mp.mpf(2) ** (1 - j) for j in range(1, 71))
        # constants the rounding term of the kernel's bound relies on
        assert corr_sum < 1.2
        assert deriv_sum < 4.4

    def test_kernel_within_bound_of_siegelz(self):
        ts = np.array(RS_HEIGHTS)
        z, bound = specfun._rs_z_batch(ts)
        for t, got, b in zip(ts, z, bound):
            ref = float(mp.siegelz(mp.mpf(float(t))))
            assert abs(got - ref) <= b
            # Gabcke's R_4 dominates near 200, float rounding near 1e4
            assert b <= 1e-8

    def test_batch_signs_are_euler_maclaurin_signs(self):
        ts = np.linspace(180.0, 9000.0, 401)
        hybrid = specfun._hardy_z_batch(ts)
        em = specfun._hardy_z_em(ts, 1e-11)
        assert np.array_equal(np.sign(hybrid), np.sign(em))
        assert np.max(np.abs(hybrid - em)) < 1e-8

    def test_audit_fires_on_perturbed_coefficient(self, monkeypatch):
        # a 2% error in the constant term of C2 moves Z by ~1e-7 at t = 1000
        rows = [list(row) for row in specfun._RS_C]
        rows[2][0] += 1e-4
        monkeypatch.setattr(specfun, "_RS_C", tuple(tuple(r) for r in rows))
        for lo in (1000.0, 5000.0, 9990.0):
            with pytest.raises(AccuracyLoss):
                specfun._hardy_z_batch(np.linspace(lo, lo + 1.0, 50))
        t = 1000.0
        z, bound = specfun._rs_z_batch(np.array([t]))
        assert abs(z[0] - float(mp.siegelz(t))) > bound[0]

    def test_audit_fires_without_gabcke_bound(self, monkeypatch):
        # near t = 2 pi 36 the real R_4 remainder is ~4e-9; the rounding
        # allowance alone (~1e-11) cannot cover it
        ts = np.linspace(220.0, 2.0 * math.pi * 36.0, 25)
        specfun._hardy_z_batch(ts)
        monkeypatch.setattr(specfun, "_RS_R4", 0.0)
        with pytest.raises(AccuracyLoss):
            specfun._hardy_z_batch(ts)
        z, bound = specfun._rs_z_batch(ts[-1:])
        assert abs(z[0] - float(mp.siegelz(mp.mpf(float(ts[-1]))))) > bound[0]

    def test_low_heights_stay_on_euler_maclaurin(self):
        ts = np.linspace(10.0, 199.0, 300)
        assert np.array_equal(specfun._hardy_z_batch(ts), specfun._hardy_z_em(ts, 1e-11))


def test_import_does_not_load_mpmath():
    code = "import sys, lpairs; sys.exit('mpmath' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
