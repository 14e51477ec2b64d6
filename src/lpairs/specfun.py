"""Complex special functions: log-Gamma, the functional-equation factor,
Riemann-Siegel theta, Euler-Maclaurin zeta / Hurwitz zeta, Hardy's Z.

Accuracy contract: these primitives sit below every error budget in the
workbench, so each evaluator is stricter than any downstream tolerance.
log-Gamma is a Lanczos approximation (relative error ~1e-15 on the
tested domain); zeta and Hurwitz zeta are Euler-Maclaurin with an
explicit Backlund remainder bound plus a rounding allowance, and the
certified-bound variants return that bound alongside the value.

Only double precision is used.  Euler-Maclaurin has one body,
_hurwitz_critical_batch(ts, a, tol, sigma), which needs N ~ 0.62 max|t|
terms.  The scalar routes are batches of one height: hurwitz_zeta,
zeta_em (a = 1) and hardy_z, which is _hardy_z_em on one height.  The
zero engine's Z below t = 200 is _hardy_z_em too.  From t = 200 the zero
engine's batched Z takes the Riemann-Siegel formula with the corrections
C_0..C_4 (about sqrt(t/2pi) terms) and certifies each value with Gabcke's
remainder bound |R_4(t)| <= 0.017 t^(-11/4) plus a float-rounding
allowance B_RS.  A value too close to zero for that certificate to fix
its sign, |Z_RS| <= B_RS + B_EM with B_EM the a priori Euler-Maclaurin
bound, is recomputed by Euler-Maclaurin, so every sign the batch returns
is the Euler-Maclaurin sign; one Riemann-Siegel value per batch is
audited against Euler-Maclaurin.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .characters import DirichletCharacter, epsilon_factor
from .errors import (
    AccuracyLoss,
    DomainTooSmall,
    OutOfStrip,
    PoleAtNonPositiveInteger,
    PoleAtOne,
    PrincipalCharacter,
)

_EPS = 2.220446049250313e-16
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EULER_GAMMA = 0.5772156649015329

# Lanczos g=7, 9-term coefficient set (15-digit accuracy for Re z >= 1.5).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# B_{2k} / (2k)! for k = 1..32 (exact Bernoulli numbers, rounded once).
_B2K_OVER_FACT = (
    0.08333333333333333, -0.001388888888888889,
    3.306878306878307e-05, -8.267195767195768e-07,
    2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13,
    8.586062056277845e-15, -2.174868698558062e-16,
    5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23,
    2.267952452337683e-24, -5.744790668872202e-26,
    1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32,
    5.990671762482134e-34, -1.5174548844682903e-35,
    3.843758125454189e-37, -9.736353072646691e-39,
    2.466247044200681e-40, -6.247076741820743e-42,
    1.5824030244644914e-43, -4.008273685948936e-45,
    1.0153075855569557e-46, -2.5718041582418717e-48,
    6.514456035233815e-50, -1.6501309906896525e-51,
)

# Riemann-Siegel corrections C_0..C_4 as polynomials in x = p - 1/2, with
# p = frac(sqrt(t / 2pi)).  They come from the Taylor coefficients at
# p = 1/2 of Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p and of its
# derivatives up to order 12:
#   C0 = Psi,  C1 = -Psi''' / (96 pi^2),
#   C2 = Psi'' / (64 pi^2) + Psi^(6) / (18432 pi^4),
#   C3 = -Psi' / (64 pi^2) - Psi^(5) / (3840 pi^4) - Psi^(9) / (5308416 pi^6),
#   C4 = Psi / (128 pi^2) + 19 Psi^(4) / (24576 pi^4)
#        + 11 Psi^(8) / (5898240 pi^6) + Psi^(12) / (2038431744 pi^8).
# C_k has the parity of k about p = 1/2, so row k holds the coefficients
# of x^(k mod 2), x^(k mod 2 + 2), ...; each row is cut where the dropped
# tail is below 1e-18 on |x| <= 1/2.  tests/test_specfun.py re-derives
# the table with mpmath.
_RS_C = (
    (  # C0
        0.3826834323650898, 1.7489618723100817, 2.118025207685496,
        -0.8707216670511481, -3.4733112243465167, -1.6626947308999325,
        1.216731288919232, 1.3014304161007977, 0.03051102182736167,
        -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
        0.029999480619902277, -0.0022759396706125644, -0.004382647416580339,
        -0.0004064230183729847, 0.0004006097785422114, 8.971057991388841e-05,
        -2.3025650027239108e-05, -9.380006601906792e-06,
    ),
    (  # C1
        -0.053650205256750697, 0.11027818741081483, 1.2317200154315227,
        1.2634964862799458, -1.695108997559503, -2.9998711967650102,
        -0.10819944959899208, 1.9407662946212714, 0.7838423561500687,
        -0.5054829667900366, -0.38450723496057976, 0.03747264646531532,
        0.09092026610973176, 0.01044923755006451, -0.012582979651583417,
        -0.003399503721151274, 0.0010410950537714891, 0.0005010949051118486,
        -3.956359669003182e-05, -4.7624592453571896e-05,
        -1.8539355338085133e-06,
    ),
    (  # C2
        0.005188542830293168, 0.0012378633552253898, -0.18137505725166997,
        0.14291492748532125, 1.3303391766687565, 0.3522472353403734,
        -2.421001595891951, -1.6760787022538108, 1.3689416723328371,
        1.5539019430222982, -0.1722164273472998, -0.6359068055045431,
        -0.09911649873041208, 0.14033480067387008, 0.04782352019827292,
        -0.017356040641479782, -0.010225012534028593, 0.0009274149159794888,
        0.0013572194372373386, 6.41369012029388e-05, -0.0001230080569819663,
        -1.83135074047892e-05,
    ),
    (  # C3
        -0.0026794321814389136, 0.02995372109103515, -0.042570172541828696,
        -0.28997965779803886, 0.4888831999235446, 1.230855876395746,
        -0.8297560708527408, -2.249763536666567, 0.07845139961005472,
        1.7467492800868893, 0.45968080979749937, -0.6619353471039775,
        -0.31590441036173633, 0.12844792545207495, 0.10073382716626152,
        -0.009530183848825268, -0.019264421687514088, -0.001246463715876929,
        0.0024243969641103086, 0.000437647697741857, -0.00020714032687001792,
        -6.274344504186516e-05,
    ),
    (  # C4
        0.00046483389361763383, -0.004022642946136188, 0.003847177051796127,
        0.06581175135809486, -0.19604124343694448, -0.20854053686358853,
        0.9507754185141751, 0.5341535312914873, -1.67634944117634,
        -1.076747157875129, 1.235339301656597, 1.0257825340057276,
        -0.40124095793988546, -0.5036663995108304, 0.03573487795502745,
        0.14431763086785418, 0.01509152741790347, -0.026098874779194363,
        -0.006126628379519262, 0.003077503129870841, 0.0011562478934088753,
        -0.00022775966758472127, -0.00014189637118181445,
    ),
)


# --- log-Gamma ---------------------------------------------------------------

def log_gamma(s) -> complex:
    """log Gamma(s) via Lanczos + recurrence, on the standard branch
    (the analytic continuation from the positive real axis, with the
    negative real axis approached from above).

    Arguments with Re s < 0.5 go through the reflection formula; the
    winding of log sin(pi z) is tracked so the reflection stays on the
    continuation branch.  The recurrence log Gamma(z) = log Gamma(z+1)
    - log z lifts the rest into the region where the Lanczos sum is
    accurate.
    """
    z = complex(s)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleAtNonPositiveInteger(f"Gamma pole at {z.real}")
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    if z.real < 0.5:
        # analytic branch of log sin(pi z) on Im z >= 0; overflow-free
        log_sin = (-1j * math.pi * z + cmath.log(1.0 - cmath.exp(2j * math.pi * z))
                   + complex(-math.log(2.0), 0.5 * math.pi))
        return math.log(math.pi) - log_sin - log_gamma(1.0 - z)
    shift = 0j
    while z.real < 1.5:
        shift += cmath.log(z)
        z += 1.0
    w = z - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return (w + 0.5) * cmath.log(t) - t + _LOG_SQRT_2PI + cmath.log(acc) - shift


# --- Riemann-Siegel theta ----------------------------------------------------

def riemann_siegel_theta(t):
    """theta(t) by the standard asymptotic expansion (terms through t^-7),
    for a height or an array of heights.

    Absolute error below 1e-8 for t >= 10 (the first omitted term is
    ~4e-13 there); theta is increasing for t >= 7 since theta'(t)
    ~ log(t/2pi)/2.
    """
    if np.min(t) < 1.0:
        raise DomainTooSmall(f"theta expansion needs t >= 1, got {np.min(t)}")
    th = 0.5 * t * np.log(t / (2.0 * math.pi)) - 0.5 * t - math.pi / 8.0
    th += (1.0 / 48.0) / t + (7.0 / 5760.0) / t ** 3
    th += (31.0 / 80640.0) / t ** 5 + (127.0 / 430080.0) / t ** 7
    return th


def _digamma_real(x: float) -> float:
    """psi(x) for x > 0: recurrence into x >= 12, then the Bernoulli series."""
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (
        1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))
    return acc + math.log(x) - 0.5 / x - tail


# --- Euler-Maclaurin Hurwitz zeta -------------------------------------------

def _hurwitz_critical_batch(ts: np.ndarray, a: float, tol: float = 1e-11,
                            sigma: float = 0.5):
    """zeta(sigma + i t, a) over a batch of heights, with one shared truncation.

    The one Euler-Maclaurin body of the workbench: the scalar routes call
    it on a batch of one height.  N = 0.62 max|t| + 8 terms (at least 20)
    form the main sum sum_n (n + a)^{-sigma} e^{-i t log(n + a)} in one
    outer-product pass, so callers should batch heights in narrow windows.
    The truncation remainder after K Bernoulli corrections is bounded by
    Backlund's estimate |(s+2K+1)/(sigma+2K+1)| * |next term|, with K the
    first order where that bound is <= tol at every height.  A
    root-sum-square rounding allowance for the oscillatory power sums
    (phase error ~ |t| log n * eps per term) is added with a factor-4
    margin.  Returns (values, worst certified bound).
    """
    tmax = float(np.max(np.abs(ts)))
    n_terms = max(20, int(math.ceil(0.62 * tmax)) + 8)
    base = np.arange(n_terms, dtype=float) + a
    logb = np.log(base)
    amp = base ** -sigma
    # pairwise np.sum keeps the reduction order fixed (BLAS matvec would
    # not be reproducible)
    values = np.sum(np.exp(np.outer(-1j * ts, logb)) * amp, axis=1)
    s = sigma + 1j * ts
    na = float(n_terms + a)
    values += na ** (1.0 - s) / (s - 1.0) + 0.5 * na ** (-s)

    poch = s.copy()
    values += _B2K_OVER_FACT[0] * poch * na ** (-s - 1.0)
    trunc = None
    for k in range(2, 32):
        poch = poch * (s + (2 * k - 3)) * (s + (2 * k - 2))
        values += _B2K_OVER_FACT[k - 1] * poch * na ** (-s - 2.0 * k + 1.0)
        next_mag = (abs(_B2K_OVER_FACT[k]) * np.abs(poch * (s + (2 * k - 1)) * (s + 2 * k))
                    * na ** (-sigma - 2.0 * k - 1.0))
        bound = float(np.max(np.abs(s + (2 * k + 1)) / (sigma + 2 * k + 1) * next_mag))
        if bound <= tol:
            trunc = bound
            break
    if trunc is None:
        raise AccuracyLoss(f"Euler-Maclaurin remainder did not reach {tol:g} at "
                           f"sigma={sigma}, |t| <= {tmax}, a={a}")
    rounding = (_EPS * (tmax + 2.0) * math.log(na + 2.0)
                * math.sqrt(float(np.sum(base ** (-2.0 * sigma))) + 1.0))
    return values, trunc + 4.0 * rounding


def hurwitz_zeta(s, a, tol: float = 1e-12) -> complex:
    """zeta(s, a) for 0 < a <= 1, s != 1; hurwitz_zeta(s, 1) == zeta_em(s)."""
    value, _ = hurwitz_zeta_certified(s, a, tol)
    return value


def hurwitz_zeta_certified(s, a, tol: float = 1e-12) -> tuple[complex, float]:
    """(value, certified absolute error bound) for zeta(s, a)."""
    s = complex(s)
    if s == 1:
        raise PoleAtOne("zeta(s, a) has a pole at s = 1")
    a = float(a)
    if not 0.0 < a <= 1.0:
        raise DomainTooSmall(f"shift a must lie in (0, 1], got {a}")
    values, bound = _hurwitz_critical_batch(np.array([s.imag]), a, tol, s.real)
    return complex(values[0]), bound


def zeta_em(s, tol: float = 1e-12) -> complex:
    """Riemann zeta by Euler-Maclaurin (the oracle backbone)."""
    value, _ = hurwitz_zeta_certified(s, 1.0, tol)
    return value


# --- Hardy Z -----------------------------------------------------------------

def hardy_z(t: float, tol: float = 1e-12) -> float:
    """Z(t) = e^{i theta(t)} zeta(1/2 + it) by Euler-Maclaurin, guaranteed
    real: _hardy_z_em on a batch of one height.

    The imaginary residue is an internal accuracy check: above 1e-6 it
    signals a broken evaluator and raises AccuracyLoss.
    """
    if t < 10.0:
        raise DomainTooSmall(f"hardy_z requires t >= 10, got {t}")
    return float(_hardy_z_em(np.array([t], dtype=float), tol)[0])


# Riemann-Siegel Z is certified for t >= 200, where Gabcke's bound on the
# remainder after C_4 holds: |R_4(t)| <= 0.017 t^(-11/4).
_RS_T_MIN = 200.0
_RS_R4 = 0.017


def _em_critical_bound(tmax: float, tol: float) -> float:
    """A priori error bound of Euler-Maclaurin Z in a batch topped at tmax.

    It adds the truncation tolerance, 4x the rounding allowance of
    _hurwitz_critical_batch at sigma = 1/2, a = 1 (same N, with
    sum_{n<=N} 1/n bounded by log N + gamma + 1/2N) and the float error
    of theta(tmax) (1 ulp per operation of riemann_siegel_theta, doubled;
    the omitted t^-9 term of the expansion is below 1e-23).  A theta
    error only turns Z into Z cos(error), so this last term also covers
    the rounding of e^{i theta} zeta while |zeta| < 1000.
    """
    n_terms = max(20, int(math.ceil(0.62 * tmax)) + 8)
    harmonic = math.log(n_terms) + _EULER_GAMMA + 0.5 / n_terms
    rounding = (_EPS * (tmax + 2.0) * math.log(n_terms + 3.0)
                * math.sqrt(harmonic + 1.0))
    theta_err = 3.0 * _EPS * tmax * (math.log(tmax / (2.0 * math.pi)) + 2.0)
    return tol + 4.0 * rounding + theta_err


def _rs_z_batch(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Z, certified bound) by Riemann-Siegel with C_0..C_4, heights >= 200.

    Z(t) = 2 sum_{n<=N} n^{-1/2} cos(theta(t) - t log n)
           + (-1)^(N-1) tau^{-1/2} sum_k C_k(p) tau^{-k} + R_4(t),
    tau = sqrt(t/2pi), N = floor(tau), p = tau - N.  The phase is formed
    as t log(tau/n) - t/2 - pi/8 + (theta's 1/t tail), so its float
    error is at most eps (t (4.5 + 4 log(tau/n)) + 3) (1 ulp per
    operation, doubled).  The bound adds Gabcke's R_4, that phase error
    plus the cos, product and summation rounding of each term, and the
    rounding of the corrections (|C_k'| summed over k is below 4.4 on
    0 <= p <= 1, |C_k| summed below 1.2).
    """
    tau = np.sqrt(ts / (2.0 * math.pi))
    n_top = np.floor(tau)
    x = tau - n_top - 0.5
    n = np.arange(1.0, float(n_top.max()) + 1.0)
    amp = np.where(n <= n_top[:, None], n ** -0.5, 0.0)
    log_ratio = np.log(tau[:, None] / n)
    tail = (1.0 / 48.0) / ts + (7.0 / 5760.0) / ts ** 3
    tail += (31.0 / 80640.0) / ts ** 5 + (127.0 / 430080.0) / ts ** 7
    phase = ts[:, None] * log_ratio - (0.5 * ts + math.pi / 8.0 - tail)[:, None]
    main = 2.0 * np.sum(amp * np.cos(phase), axis=1)

    x2 = x * x
    inv_tau = 1.0 / tau
    corr = np.zeros_like(ts)
    for k in range(4, -1, -1):
        poly = np.zeros_like(ts)
        for c in reversed(_RS_C[k]):
            poly = poly * x2 + c
        corr = corr * inv_tau + (poly * x if k % 2 else poly)
    sign = np.where(n_top % 2.0 == 1.0, 1.0, -1.0)
    z = main + sign * corr / np.sqrt(tau)

    amp_sum = np.sum(amp, axis=1)
    phase_err = ts * (4.5 * amp_sum + 4.0 * np.sum(amp * log_ratio, axis=1))
    bound = (_RS_R4 * ts ** -2.75
             + 2.0 * _EPS * (phase_err + (n_top + 8.0) * amp_sum)
             + _EPS * (9.0 * tau + 60.0) * np.sqrt(inv_tau))
    return z, bound


def _hardy_z_em(ts: np.ndarray, tol: float) -> np.ndarray:
    """Euler-Maclaurin Z over an ascending batch; the imaginary residue of
    e^{i theta} zeta is an accuracy check (AccuracyLoss above 1e-6)."""
    zeta_vals, _ = _hurwitz_critical_batch(ts, 1.0, tol)
    z = np.exp(1j * riemann_siegel_theta(ts)) * zeta_vals
    worst = float(np.max(np.abs(z.imag)))
    if worst > 1e-6:
        raise AccuracyLoss(f"batch Z imaginary residue {worst:.3e}")
    return z.real


def _hardy_z_batch(ts: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """Vectorised Z over an ascending batch of heights >= 10.

    Heights t >= 200 take the Riemann-Siegel kernel with its certified
    bound B_RS.  A height falls back to Euler-Maclaurin (EM) when t < 200
    or |Z_RS| <= B_RS + B_EM, B_EM being the a priori EM bound of the
    batch; every Z_RS returned therefore has the sign EM would give.  The
    fallbacks share one EM call with an audit of the largest Riemann-
    Siegel height, which raises AccuracyLoss when the two routes differ
    by more than B_RS + B_EM.  That EM call is topped by the batch's
    largest height, so it uses the same number of terms as an EM call on
    the whole batch.
    """
    ts = np.asarray(ts, dtype=float)
    use_em = ts < _RS_T_MIN
    rs = np.nonzero(~use_em)[0]
    if len(rs) == 0:
        return _hardy_z_em(ts, tol)
    z_rs, b_rs = _rs_z_batch(ts[rs])
    allowed = b_rs + _em_critical_bound(float(ts[-1]), tol)
    certified = np.abs(z_rs) > allowed
    if not certified.any():
        return _hardy_z_em(ts, tol)
    use_em[rs[~certified]] = True
    audit = int(np.nonzero(certified)[0][-1])
    use_em[rs[audit]] = True
    z = np.empty_like(ts)
    z[rs] = z_rs
    z[use_em] = _hardy_z_em(ts[use_em], tol)
    gap = abs(z[rs[audit]] - z_rs[audit])
    if gap > allowed[audit]:
        raise AccuracyLoss(
            f"Riemann-Siegel Z at t={float(ts[rs[audit]])!r} is {gap:.3e} from "
            f"Euler-Maclaurin Z (allowed {allowed[audit]:.3e})")
    return z


# --- functional-equation factor ----------------------------------------------

def x_factor(s, chi: DirichletCharacter) -> complex:
    """X(s, chi) = eps(chi) (q/pi)^{1/2-s} Gamma((1-s+a)/2) / Gamma((s+a)/2).

    Satisfies L(s, chi) = X(s, chi) L(1-s, conj chi) for primitive chi,
    and |X(1/2 + it, chi)| = 1 on the critical line.
    """
    s = complex(s)
    if not 0.0 < s.real < 1.0:
        raise OutOfStrip(f"X(s, chi) needs 0 < Re s < 1, got {s.real}")
    if chi.is_principal:
        raise PrincipalCharacter("X(s, chi) requires a non-principal character")
    q = chi.modulus
    a = chi.parity
    ratio = cmath.exp(log_gamma((1.0 - s + a) / 2.0) - log_gamma((s + a) / 2.0))
    return epsilon_factor(chi) * (q / math.pi) ** (0.5 - s) * ratio


def x_factor_modulus_constant(sigma: float) -> float:
    """The Stirling constant A(sigma) in |X(sigma+it, chi)|^2 ~ A (q/pi)^{1-2s} t^{1-2s}.

    From |Gamma(x + iy)| ~ sqrt(2 pi) |y|^{x - 1/2} e^{-pi |y| / 2}:
    the Gamma-ratio modulus behaves like (t/2)^{(1-2 sigma)/2}, so
    A = 2^{2 sigma - 1}.  Tests fit A empirically and compare.
    """
    return 2.0 ** (2.0 * sigma - 1.0)
