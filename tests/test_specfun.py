import cmath
import math
import random
import subprocess
import sys
import tracemalloc
import warnings

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
from lpairs.lfunc import l_oracle, l_via_hurwitz
from lpairs.specfun import (
    _hardy_z_batch,
    hurwitz_zeta_certified,
    log_gamma,
    riemann_siegel_theta,
    x_factor,
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


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_special_functions_refuse_non_finite_arguments(v):
    # theta returned nan (with a RuntimeWarning at inf), x_factor raised
    # ZeroDivisionError (inf) or returned nan, and log_gamma returned nan
    chi = character(5, 2)
    calls = [lambda: riemann_siegel_theta(v),
             lambda: riemann_siegel_theta(np.array([20.0, v])),
             lambda: x_factor(complex(0.5, v), chi), lambda: x_factor(complex(v, 10.0), chi),
             lambda: log_gamma(v), lambda: log_gamma(complex(1.0, v))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainTooSmall):
                call()


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
        assert abs(hurwitz_zeta_certified(2.0, 1.0)[0] - math.pi ** 2 / 6.0) < 1e-12

    def test_pole_raises(self):
        for a in (1.0, 0.5):
            with pytest.raises(PoleAtOne):
                hurwitz_zeta_certified(1.0, a)

    def test_small_at_first_zero(self):
        assert abs(hurwitz_zeta_certified(complex(0.5, 14.134725), 1.0)[0]) < 1e-6

    def test_hurwitz_at_half_shift(self):
        assert abs(hurwitz_zeta_certified(2.0, 0.5)[0] - math.pi ** 2 / 2.0) < 1e-12

    @pytest.mark.usefixtures("dps40")
    def test_hurwitz_at_shift_one_equals_zeta(self):
        # mpmath's zeta(s) is an independent value, held to the bound
        # hurwitz_zeta_certified(s, 1) certifies
        for s in (2.0, 0.5 + 30j, 0.75 + 500j):
            value, bound = hurwitz_zeta_certified(s, 1.0)
            ref = complex(mp.zeta(mp.mpc(complex(s).real, complex(s).imag)))
            assert abs(value - ref) <= bound

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

    def test_l_route_bounds_hold_against_mpmath_low_sigma(self):
        # the L-route's short main sum at the low sigma and shifts a/q where
        # its bound is largest: m^-s sum_a chi(a) zeta(s, a/m) at 30 digits,
        # at the top height of a two-height batch
        with mp.workdps(30):
            for chi, sigma, t in ((character(3, 1), 0.35, 9987.25),
                                  (character(5, 2), 0.2, 9993.5),
                                  (character(7, 3), 0.05, 9999.75)):
                table = chi.value_table()
                q = chi.modulus
                values, bound = l_via_hurwitz(table, sigma, [t - 3.0, t], 1e-11)
                s = mp.mpc(sigma, t)
                ref = sum(mp.mpc(table[a]) * mp.zeta(s, mp.mpf(a) / q)
                          for a in range(1, q)) * mp.power(q, -s)
                assert abs(values[1] - complex(ref)) <= bound

    def test_bound_holds_near_the_pole(self):
        # zeta(s, a) ~ 1/(s - 1) there, and the tail's integral term used to
        # carry float error beyond the bound: 15x it at s = 1.0001, a = 1
        with mp.workdps(30):
            for s in (1.0001, 1.001, complex(1.02, 0.01)):
                for a in (1.0, 1.0 / 3.0, 0.2):
                    got, bound = hurwitz_zeta_certified(s, a)
                    ref = mp.zeta(mp.mpc(complex(s).real, complex(s).imag), mp.mpf(a))
                    assert abs(got - complex(ref)) <= bound

    def test_below_backlund_range_bound_is_honest(self):
        # sigma + 2k + 1 <= 0 used to pass the remainder test with a
        # negative bound, at -29.5 here, and return a wrong value
        got, bound = hurwitz_zeta_certified(complex(-6.5, 3.0), 0.3)
        assert 0.0 < bound
        assert abs(got - complex(mp.zeta(mp.mpc(-6.5, 3.0), 0.3))) <= bound

    def test_shift_domain(self):
        with pytest.raises(DomainTooSmall):
            hurwitz_zeta_certified(2.0, 1.5)[0]

    @pytest.mark.parametrize("s", [complex(math.nan, 100.0), complex(math.inf, 100.0),
                                   complex(-math.inf, 0.0), complex(0.5, math.nan)])
    def test_non_finite_argument_rejected(self, s):
        # a non-finite s used to run the kernel, warn, and raise AccuracyLoss
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (0.2, 1.0):
                with pytest.raises(DomainTooSmall):
                    hurwitz_zeta_certified(s, a)


def _one_shot_kernel(ts, a, tol, sigma, n_terms):
    """(main sum, value) of zeta(sigma + i t, a): the main sum formed for the
    whole batch in one outer-product pass, then the Bernoulli corrections
    added one order at a time, up to the first order whose Backlund bound
    meets tol at every height."""
    base = np.arange(n_terms, dtype=float) + a
    logb = np.log(base)
    amp = base ** -sigma
    main = np.sum(np.exp(np.outer(-1j * ts, logb)) * amp, axis=1)
    s = sigma + 1j * ts
    na = float(n_terms + a)
    values = main + na ** (1.0 - s) / (s - 1.0) + 0.5 * na ** (-s)
    b2k = specfun._B2K_OVER_FACT
    poch = s.copy()
    values += b2k[0] * poch * na ** (-s - 1.0)
    for k in range(2, 32):
        poch = poch * (s + (2 * k - 3)) * (s + (2 * k - 2))
        values += b2k[k - 1] * poch * na ** (-s - 2.0 * k + 1.0)
        next_mag = (abs(b2k[k]) * np.abs(poch * (s + (2 * k - 1)) * (s + 2 * k))
                    * na ** (-sigma - 2.0 * k - 1.0))
        if np.max(np.abs(s + (2 * k + 1)) / (sigma + 2 * k + 1) * next_mag) <= tol:
            return main, values
    raise AssertionError("the reference tail did not converge")


def _stop_orders(tmax, sigma, shifts, n_terms, tol=1e-11):
    """Each shift's first order of _backlund_orders whose remainder bound
    at N + a meets tol; the kernel stops every shift at the highest."""
    k, p, log_c = specfun._backlund_orders(tmax, sigma)
    return [int(k[np.argmax(log_c - p * math.log(n_terms + a) <= math.log(tol))])
            for a in shifts]


def _truncation(tmax, sigma, a, n_terms, order):
    """Backlund's bound at N + a after the given order, at height tmax."""
    k, p, log_c = specfun._backlund_orders(tmax, sigma)
    i = int(np.nonzero(k == order)[0][0])
    return math.exp(log_c[i] - p[i] * math.log(n_terms + a))


class TestEulerMaclaurinKernel:
    @pytest.mark.parametrize("t0", [14.0, 4800.0, 9900.0])
    @pytest.mark.parametrize("sigma", [0.5, 0.75])
    @pytest.mark.parametrize("a", [1.0, 0.2])
    def test_streamed_main_sum_equals_one_shot_pass(self, a, sigma, t0):
        # each height's pairwise sum is the same row of the one-shot pass,
        # so every caller gets the same main sum, at the L-route's N and at
        # Z's; the whole value lies within the kernel's bound of the
        # one-shot value and its tolerance
        ts = np.linspace(t0, t0 + 100.0, 512)
        for n_terms in (specfun._hurwitz_terms(t0 + 100.0, sigma, 1e-11),
                        specfun._em_terms(t0 + 100.0)):
            main, value = _one_shot_kernel(ts, a, 1e-11, sigma, n_terms)
            sums = specfun._power_sums(ts, np.array([a]), sigma, n_terms)
            assert np.array_equal(sums[0], main)
            values, bounds = specfun._hurwitz_critical_batch(ts, [a], 1e-11, sigma,
                                                             n_terms)
            assert np.max(np.abs(values[0] - value)) <= bounds[0] + 1e-11

    def test_memory_is_one_height_of_terms(self):
        # a whole-batch pass holds 512 x 6,208 complex temporaries per shift
        # (~50 MB) at the longer of the two main sums, Z's; the kernel holds
        # one height's terms, shifts x N, for one shift and for the four
        # of 5:2
        ts = np.linspace(9500.0, 1e4, 512)
        for shifts in ([0.2], [0.2, 0.4, 0.6, 0.8]):
            tracemalloc.start()
            try:
                specfun._hurwitz_critical_batch(ts, shifts, 1e-11, 0.5,
                                                specfun._em_terms(1e4))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < len(shifts) * 2 * 2 ** 20

    @pytest.mark.parametrize("heights", [1, 512])
    @pytest.mark.parametrize("sigma", [0.5, 0.75])
    def test_multi_shift_call_equals_one_call_per_shift(self, sigma, heights, dps40):
        # one pass over shifts whose first orders differ stops them all at
        # the highest: each bound carries its shift's truncation there, in
        # place of the truncation at its own first order that a call on it
        # alone carries; each row agrees with that call, and with mpmath,
        # within the bounds
        ts = np.linspace(200.0, 100.0, heights)[::-1]
        shifts = np.array([0.2, 0.4, 0.6, 0.8, 1.0 / 3.0, 2.0 / 3.0, 1.0])
        n_terms = specfun._hurwitz_terms(200.0, sigma, 1e-11)
        own = _stop_orders(200.0, sigma, shifts, n_terms)
        assert len(set(own)) > 1
        values, bounds = specfun._hurwitz_critical_batch(ts, shifts, 1e-11, sigma)
        assert values.shape == (len(shifts), heights) and bounds.shape == (len(shifts),)
        for j, a in enumerate(shifts):
            alone, bound = specfun._hurwitz_critical_batch(ts, [a], 1e-11, sigma, n_terms)
            rounding = bounds[j] - _truncation(200.0, sigma, a, n_terms, max(own))
            alone_rounding = bound[0] - _truncation(200.0, sigma, a, n_terms, own[j])
            assert rounding == pytest.approx(alone_rounding, rel=0.01, abs=1e-15)
            assert np.max(np.abs(values[j] - alone[0])) <= bounds[j] + bound[0]
            for i in range(0, heights, 64):
                ref = complex(mp.zeta(mp.mpc(sigma, ts[i]), mp.mpf(a)))
                assert abs(values[j, i] - ref) <= bounds[j]

    def test_l_route_agrees_with_the_shift_rows(self):
        # on a batch the L-route sums its main sums over the wheel, not in
        # the kernel's shift rows: m^-s sum_a table[a] (row a) agrees with it
        # within both bounds, and its bound keeps every per-shift term, the
        # value's eps 3 |zeta(s, a)| aside, which it takes at the L-value
        ts = np.linspace(9000.0, 9100.0, 40)
        for chi in (character(3, 1), character(5, 2)):
            table = chi.value_table()
            m = len(table)
            values, bound = l_via_hurwitz(table, 0.5, ts, 1e-11)
            rows, bounds = specfun._hurwitz_critical_batch(
                ts, np.arange(1, m) / m, 1e-11, 0.5)
            total = np.exp(-(0.5 + 1j * ts) * math.log(m)) * np.sum(
                table[1:, None] * rows, axis=0)
            assert np.max(np.abs(values - total)) <= bound + m ** -0.5 * np.sum(bounds)
            value_terms = 3.0 * specfun._EPS * np.max(np.abs(rows), axis=1)
            assert bound >= m ** -0.5 * np.sum(bounds - value_terms)
            # a single height takes the kernel's rows, added in shift order
            one, one_bound = l_via_hurwitz(table, 0.5, ts[-1:], 1e-11)
            rows, bounds = specfun._hurwitz_critical_batch(
                ts[-1:], np.arange(1, m) / m, 1e-11, 0.5)
            total = np.zeros(1, dtype=complex)
            ref_bound = 0.0
            for a in range(1, m):
                total += table[a] * rows[a - 1]
                ref_bound += float(bounds[a - 1])
            assert one.tobytes() == (np.exp(-(0.5 + 1j * ts[-1:]) * math.log(m))
                                     * total).tobytes()
            assert one_bound == m ** -0.5 * ref_bound

    def test_remainder_sized_terms_stay_within_float_range(self):
        # at |t| = 1e5 the highest orders' Pochhammer products overflow, and
        # sizing N by them used to leave the kernel no order that converged
        got, bound = hurwitz_zeta_certified(complex(0.5, 1e5), 0.3)
        ref, ref_bound = specfun._hurwitz_critical_batch(
            np.array([1e5]), [0.3], 1e-12, 0.5, specfun._em_terms(1e5))
        assert abs(got - ref[0, 0]) <= bound + ref_bound[0]

    def test_l_route_terms_come_from_the_remainder_bound(self):
        # the kernel meets tol at the N its own Backlund bound asks for,
        # which is well under Z's 0.62 t; at half that N it must refuse
        for sigma in (0.05, 0.25, 0.5, 0.75, 0.95):
            for tmax in (0.0, 14.0, 200.0, 1e3, 5e3, 1e4):
                n_terms = specfun._hurwitz_terms(tmax, sigma, 1e-11)
                assert n_terms <= 0.26 * tmax + 20
                ts = np.array([tmax])
                shifts = [1.0, 1.0 / 3.0, 2.0 / 3.0, 0.2]
                specfun._hurwitz_critical_batch(ts, shifts, 1e-11, sigma, n_terms)
                if tmax >= 200.0:
                    with pytest.raises(AccuracyLoss, match=r"did not reach .* a=1\.0,"):
                        specfun._hurwitz_critical_batch(ts, shifts, 1e-11, sigma,
                                                        n_terms // 2)

    def test_refusal_names_the_shift_that_failed(self):
        # N + a grows with a, so just below the least N a small shift fails
        # where a larger one still passes; the refusal names the small one
        ts = np.array([1e3])

        def meets(a, n_terms):
            try:
                specfun._hurwitz_critical_batch(ts, [a], 1e-11, 0.5, n_terms)
            except AccuracyLoss:
                return False
            return True

        n_terms = specfun._hurwitz_terms(1e3, 0.5, 1e-11)
        while meets(0.2, n_terms):
            n_terms -= 1
        assert meets(1.0, n_terms)
        with pytest.raises(AccuracyLoss, match=r"a=0\.2,"):
            specfun._hurwitz_critical_batch(ts, [1.0, 0.2], 1e-11, 0.5, n_terms)


class TestHardyZ:
    # the zero engine's Z: Euler-Maclaurin below t = 200, Riemann-Siegel above
    def test_sign_change_in_first_zero_bracket(self):
        z14, z15 = _hardy_z_batch(np.array([14.0, 15.0]))
        assert z14 * z15 < 0

    def test_square_is_zeta_modulus_squared(self):
        ts = np.array([14.2, 50.0, 333.3])
        for t, z in zip(ts, _hardy_z_batch(ts)):
            m2 = abs(hurwitz_zeta_certified(complex(0.5, t), 1.0)[0]) ** 2
            assert abs(z ** 2 - m2) < 1e-10

    def test_sign_change_count_10_100(self, zeros100):
        # N(100) = 29 zeros means at least 29 sign changes of Z
        vals = _hardy_z_batch(np.linspace(10.0, 100.0, 2000))
        changes = int(np.sum(vals[:-1] * vals[1:] < 0))
        assert changes >= 29
        assert len(zeros100) == 29

    def test_imaginary_residue_check_fires_on_a_planted_theta_error(self, monkeypatch):
        # theta off by 1e-2 turns Z into Z e^{0.01 i}: the imaginary residue
        # |Z| sin(0.01) is far above 1e-6, and the check raises
        theta = specfun.riemann_siegel_theta
        assert abs(_hardy_z_batch(np.array([20.0]))[0]) > 0.1
        monkeypatch.setattr(specfun, "riemann_siegel_theta", lambda t: theta(t) + 1e-2)
        with pytest.raises(AccuracyLoss, match="imaginary residue"):
            _hardy_z_batch(np.array([20.0]))
        with pytest.raises(AccuracyLoss, match="imaginary residue"):
            specfun._hardy_z_em(np.array([20.0, 50.0, 150.0]), specfun._Z_BATCH_TOL)


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
        predicted = (2 ** (2 * sigma - 1)
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
            assert abs(fitted - 2 ** (2 * sigma - 1)) / fitted < 0.02

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

    @pytest.mark.parametrize("width", [0.0, 0.5, 5.0])
    def test_a_priori_bound_covers_the_kernel_bound(self, width):
        # _em_critical_bound(tmax) decides which Riemann-Siegel heights fall
        # back to Euler-Maclaurin, so it must cover the bound the kernel
        # certifies for a Z batch topped at tmax (a = 1, sigma = 1/2, Z's N)
        for tmax in np.geomspace(14.0, 1e4, 60):
            ts = np.linspace(tmax - width, tmax, 8 if width else 1)
            _, bound = specfun._hurwitz_critical_batch(
                ts, [1.0], specfun._Z_BATCH_TOL, 0.5, specfun._em_terms(tmax))
            assert bound[0] <= specfun._em_critical_bound(tmax)

    def test_low_heights_stay_on_euler_maclaurin(self):
        ts = np.linspace(10.0, 199.0, 300)
        assert np.array_equal(specfun._hardy_z_batch(ts), specfun._hardy_z_em(ts, 1e-11))


def test_import_does_not_load_mpmath(src_env):
    code = "import sys, lpairs; sys.exit('mpmath' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=src_env).returncode == 0
