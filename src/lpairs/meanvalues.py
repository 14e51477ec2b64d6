"""Mollified discrete mean values over the Riemann zeros (off the line).

The mollifier is the finite Euler product

    B(s, P) = prod_{p <= P} (1 - chi1(p) p^{-s}) (1 - chi2(p) p^{-s})
            = sum_{n <= R} c_n n^{-s},     R = (prod_{p <= P} p)^2,

whose coefficients are kept exact: every c_n is an integer combination
of roots of unity, so the coefficient identities (convolution versus
closed form, bounds |c_n| <= 2^P, c_{p^3} = 0) are integer statements.

The per-zero statistic at s = sigma + i gamma is

    A(gamma) = B(s,P) (L(s,chi1) conj(L(s,chi2)) - conj(L(s,chi1)) L(s,chi2)),

whose mean tends to C = D - E with

    D = sum d_n conj(chi2)(n) / n^{2 sigma},   B L(s,chi1) = sum d_n n^{-s},

and E the chi-swapped analogue.  D and E are evaluated by two
independent routes (truncated Dirichlet series with a rigorous Abel
tail bound, and the Euler-product form completed exactly through
L(2 sigma, chi1 conj chi2)) which must agree within combined bounds.

The nonvanishing count bound is Cauchy-Schwarz:
#{gamma <= T : A(gamma) != 0} >= |sum A|^2 / sum |A|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .characters import DirichletCharacter, _unit_roots
from .errors import (
    ClosedFormMismatch,
    CutoffTooSmall,
    OracleAuditFailure,
    PreconditionError,
    SeriesProductDisagreement,
)
from .lfunc import AfeWindows, LValue, l_oracle, l_via_hurwitz
from .primes import is_prime, primes_upto
# perfbench/spans.py wraps x_factor and hurwitz_zeta_certified by this
# module's attributes, so the names stay importable here
from .specfun import hurwitz_zeta_certified, x_factor
from .summation import neumaier_sum, neumaier_sum_complex
from .zeros import ZeroTable

_SIEVE_CHUNK = 1 << 21


# --- exact root-of-unity arithmetic ------------------------------------------

class RootSum:
    """Integer combination of order-th roots of unity, kept exact.

    Stored as {exponent mod order: integer coefficient}; addition and
    multiplication never leave the ring, so coefficient identities are
    decided by dictionary equality, not float comparison.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms=None):
        self.order = order
        collected: dict[int, int] = {}
        if terms:
            for k, c in terms.items():
                if c:
                    k %= order
                    collected[k] = collected.get(k, 0) + c
        self.terms = {k: c for k, c in collected.items() if c}

    @classmethod
    def zero(cls, order: int) -> "RootSum":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "RootSum":
        return cls(order, {0: 1})

    @classmethod
    def root(cls, order: int, k: int) -> "RootSum":
        return cls(order, {k % order: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "RootSum") -> "RootSum":
        merged = dict(self.terms)
        for k, c in other.terms.items():
            merged[k] = merged.get(k, 0) + c
        return RootSum(self.order, merged)

    def __neg__(self) -> "RootSum":
        return RootSum(self.order, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "RootSum") -> "RootSum":
        return self + (-other)

    def __mul__(self, other: "RootSum") -> "RootSum":
        out: dict[int, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = (k1 + k2) % self.order
                out[k] = out.get(k, 0) + c1 * c2
        return RootSum(self.order, out)

    def conjugate(self) -> "RootSum":
        return RootSum(self.order, {-k: c for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, RootSum) and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.order, tuple(sorted(self.terms.items()))))

    def to_complex(self) -> complex:
        roots = _unit_roots(self.order)
        return sum((c * roots[k] for k, c in self.terms.items()), 0j)

    def __repr__(self) -> str:
        return f"RootSum({self.order}, {self.terms})"


def chi_root(chi: DirichletCharacter, n: int, order: int) -> RootSum:
    """chi(n) embedded into the order-th cyclotomic ring (q-1 | order)."""
    e = chi.log(n)
    if e is None:
        return RootSum.zero(order)
    return RootSum.root(order, e * (order // (chi.modulus - 1)))


# --- the mollifier -------------------------------------------------------------

@dataclass(frozen=True)
class BPolynomial:
    """B(s, P) as an exact finite coefficient map."""

    cutoff: int
    chi1: DirichletCharacter
    chi2: DirichletCharacter
    coeffs: dict[int, RootSum]       # n -> c_n, only nonzero entries
    support_bound: int               # R = (prod_{p <= P} p)^2
    order: int                       # cyclotomic order lcm(q-1, l-1)

    @property
    def primes(self) -> list[int]:
        return primes_upto(self.cutoff)

    def coefficient(self, n: int) -> RootSum:
        return self.coeffs.get(n, RootSum.zero(self.order))

    def complex_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """(support, values) arrays for numeric evaluation, ascending n."""
        ns = np.array(sorted(self.coeffs), dtype=float)
        cs = np.array([self.coeffs[int(n)].to_complex() for n in ns], dtype=complex)
        return ns, cs

    def sum_abs_coefficients(self) -> float:
        ns, cs = self.complex_coefficients()
        return float(np.sum(np.abs(cs)))

    def evaluate(self, s: complex) -> complex:
        """B(s, P) = sum_n c_n n^{-s} over the (sparse) support."""
        ns, cs = self.complex_coefficients()
        return complex(np.sum(cs * ns ** (-complex(s))))


def build_b_polynomial(cutoff: int, chi1: DirichletCharacter,
                       chi2: DirichletCharacter) -> BPolynomial:
    """Expand prod_{p <= P}(1 - chi1(p) p^{-s})(1 - chi2(p) p^{-s}) exactly.

    Requires P prime with P >= max(q, l) so that both moduli are in the
    prime set (the nonvanishing argument for D - E needs this).
    """
    q, ell = chi1.modulus, chi2.modulus
    if q == ell:
        raise PreconditionError("chi1 and chi2 must have distinct prime moduli")
    if not is_prime(cutoff):
        raise CutoffTooSmall(f"cutoff {cutoff} must be prime")
    if cutoff < max(q, ell):
        raise CutoffTooSmall(
            f"cutoff {cutoff} < max(q, l) = {max(q, ell)}: moduli must lie in the prime set")
    order = math.lcm(q - 1, ell - 1)
    coeffs = {1: RootSum.one(order)}
    radical = 1
    for p in primes_upto(cutoff):
        radical *= p
        # local factor 1 - (chi1(p)+chi2(p)) u + chi1(p) chi2(p) u^2
        a1 = chi_root(chi1, p, order)
        a2 = chi_root(chi2, p, order)
        local = {0: RootSum.one(order), 1: -(a1 + a2), 2: a1 * a2}
        expanded: dict[int, RootSum] = {}
        for n, c in coeffs.items():
            pk = 1
            for j in range(3):
                v = c * local[j]
                if not v.is_zero:
                    key = n * pk
                    expanded[key] = expanded.get(key, RootSum.zero(order)) + v
                pk *= p
        coeffs = {n: c for n, c in expanded.items() if not c.is_zero}
    return BPolynomial(cutoff=cutoff, chi1=chi1, chi2=chi2, coeffs=coeffs,
                       support_bound=radical * radical, order=order)


# --- coefficient calculus ------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSeries:
    """d_n (kind "d") or e_n (kind "e"): the Dirichlet coefficients of
    B(s,P) L(s, chi) for chi = chi1 or chi2 respectively."""

    kind: str
    bpoly: BPolynomial
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("d", "e"):
            raise PreconditionError(f"series kind must be 'd' or 'e', got {self.kind!r}")

    @property
    def inner(self) -> DirichletCharacter:
        """The character convolved against the mollifier coefficients."""
        return self.bpoly.chi1 if self.kind == "d" else self.bpoly.chi2

    @property
    def other(self) -> DirichletCharacter:
        return self.bpoly.chi2 if self.kind == "d" else self.bpoly.chi1

    def convolution(self, n: int) -> RootSum:
        """sum_{n = k m} c_k chi(m), over the sparse mollifier support."""
        order = self.bpoly.order
        total = RootSum.zero(order)
        for k, c in self.bpoly.coeffs.items():
            if n % k == 0:
                total = total + c * chi_root(self.inner, n // k, order)
        return total

    def closed_form(self, n: int) -> RootSum:
        """The factored form: chi(n) off the prime set; zero if p^2 | n for
        a mollifier prime; otherwise (-1)^k chi(n / p_1...p_k) other(p_1...p_k)."""
        order = self.bpoly.order
        m = n
        sign = 1
        twisted = 1
        for p in self.bpoly.primes:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return RootSum.zero(order)
                sign = -sign
                twisted *= p
        value = chi_root(self.inner, m, order) * chi_root(self.other, twisted, order)
        return value if sign > 0 else -value

    def exact(self, n: int) -> RootSum:
        """Coefficient with the convolution/closed-form cross-check."""
        cached = self._cache.get(n)
        if cached is not None:
            return cached
        conv = self.convolution(n)
        closed = self.closed_form(n)
        if conv != closed:
            raise ClosedFormMismatch(
                f"{self.kind}_{n}: convolution {conv!r} != closed form {closed!r}")
        self._cache[n] = conv
        return conv

    def coeff(self, n: int) -> complex:
        return self.exact(n).to_complex()

    def truncated(self, n: int, t: float) -> RootSum:
        """d'_n(t): the convolution restricted to m <= sqrt(q l t / 2 pi).

        Equals the full coefficient for n <= sqrt(q l t / 2 pi).
        """
        q, ell = self.bpoly.chi1.modulus, self.bpoly.chi2.modulus
        cap = math.sqrt(q * ell * t / (2.0 * math.pi))
        order = self.bpoly.order
        total = RootSum.zero(order)
        for k, c in self.bpoly.coeffs.items():
            if n % k == 0 and n // k <= cap:
                total = total + c * chi_root(self.inner, n // k, order)
        return total


# --- the limit constants D and E ----------------------------------------------

@dataclass(frozen=True)
class SeriesConstant:
    """Dual evaluation of D (or E) with certified bounds on both routes."""

    value: complex           # the route with the tighter bound
    bound: float
    series_value: complex
    series_bound: float
    product_value: complex
    product_bound: float
    n_terms: int


_series_memo: dict = {}


def _twist_table(chi_a: DirichletCharacter, chi_b: DirichletCharacter) -> np.ndarray:
    """Value table of chi_a * conj(chi_b) mod q*l (length q*l)."""
    m = chi_a.modulus * chi_b.modulus
    return np.array([chi_a(n) * chi_b(n).conjugate() for n in range(m)],
                    dtype=complex)


def _character_prefix_max(table: np.ndarray) -> float:
    return float(np.max(np.abs(np.cumsum(table))))


def _series_route(series: CoefficientSeries, sigma: float,
                  tol_tail: float) -> tuple[complex, float, int]:
    """Direct truncated Dirichlet series sum_{n <= N} a_n n^{-2 sigma}.

    a_n = coeff(n) * conj(other)(n) factors as (c * conj(other)) convolved
    with the completely multiplicative twist xi = inner * conj(other), so
    Abel summation bounds the tail by 2 (sum |c_k|) S_max(xi) N^{-2 sigma};
    N is chosen to push that bound below tol_tail.

    a_n is periodic in n with period M = lcm(l, p^2 for p <= P, q P#)
    (q the inner modulus, l the other's, P# the primorial): n mod M fixes
    n mod l, which mollifier primes divide n and square-divide it, and
    n / (those primes) mod q.  The sieve computes the same floats in the
    same order for n and n + M, so when M fits in one sieve chunk (M = 900
    for 3:1, 5:2, P = 5) one period is sieved once and each chunk gathers
    pattern[n % M].  Larger periods (M = 5,336,100 at P = 11) are sieved
    chunk by chunk, so memory stays at one chunk for every cutoff.
    """
    bpoly = series.bpoly
    inner, other = series.inner, series.other
    twist = _twist_table(inner, other)
    structural = 2.0 * bpoly.sum_abs_coefficients() * _character_prefix_max(twist)
    n_limit = int(math.ceil((structural / tol_tail) ** (1.0 / (2.0 * sigma))))
    n_limit = max(n_limit, 1000)
    if n_limit > 8 * 10 ** 8:
        raise PreconditionError(
            f"series route needs N = {n_limit:.3g} terms at sigma = {sigma}; "
            "raise tol_tail or sigma")

    mod_inner = inner.modulus
    mod_other = other.modulus
    inner_table = inner.value_table()
    other_conj = np.conj(other.value_table())
    pfac = {p: -other(p) for p in bpoly.primes}

    def sieve(n: np.ndarray) -> np.ndarray:
        """a_n for an int64 array of n."""
        acc = other_conj[n % mod_other].copy()
        m = n.copy()
        dead = np.zeros(len(n), dtype=bool)
        for p in bpoly.primes:
            div = n % p == 0
            dead |= n % (p * p) == 0
            acc[div] *= pfac[p]
            m[div] //= p
        acc *= inner_table[m % mod_inner]
        acc[dead] = 0.0
        return acc

    period = math.lcm(mod_other, mod_inner * math.prod(bpoly.primes),
                      *(p * p for p in bpoly.primes))
    pattern = sieve(np.arange(period, dtype=np.int64)) if period <= _SIEVE_CHUNK else None

    partials = []
    for lo in range(1, n_limit + 1, _SIEVE_CHUNK):
        hi = min(lo + _SIEVE_CHUNK, n_limit + 1)
        n = np.arange(lo, hi, dtype=np.int64)
        acc = pattern[n % period] if pattern is not None else sieve(n)
        acc *= n.astype(float) ** (-2.0 * sigma)
        partials.append(np.sum(acc))
    value = neumaier_sum_complex(partials)
    tail = structural * (n_limit + 1.0) ** (-2.0 * sigma)
    return value, tail + 1e-12, n_limit


def _product_route(series: CoefficientSeries, sigma: float) -> tuple[complex, float]:
    """Euler-product form, completed exactly beyond the mollifier primes.

    D = prod_{p <= P, p != l}(1 - p^{-2s}) * prod_{p > P}(1 - xi(p) p^{-2s})^{-1}
    and the infinite part equals L(2s, xi) * prod_{p <= P}(1 - xi(p) p^{-2s})
    with xi = inner * conj(other) mod q*l, an absolutely convergent
    L-value at 2 sigma > 1 evaluated through Hurwitz zeta.
    """
    bpoly = series.bpoly
    twist = _twist_table(series.inner, series.other)
    two_sigma = 2.0 * sigma
    excluded = series.other.modulus
    finite = 1.0
    for p in bpoly.primes:
        if p != excluded:
            finite *= 1.0 - p ** -two_sigma
    l_val, l_bound = l_via_hurwitz(twist, two_sigma, [0.0], 1e-13)
    l_bound += 1e-13
    completion = 1 + 0j
    for p in bpoly.primes:
        completion *= 1.0 - twist[p % len(twist)] * p ** -two_sigma
    value = finite * complex(l_val[0]) * completion
    return value, abs(finite * completion) * l_bound + 1e-12


def _check_sigma(sigma: float) -> None:
    """Theorem 1's abscissa: 1/2 < sigma < 1 (nan fails the comparison)."""
    if not 0.5 < sigma < 1.0:
        raise PreconditionError(f"need 1/2 < sigma < 1, got {sigma}")


def _series_constant(series: CoefficientSeries, sigma: float,
                     tol_tail: float) -> SeriesConstant:
    _check_sigma(sigma)
    bp = series.bpoly
    key = (series.kind, bp.chi1.modulus, bp.chi1.index, bp.chi2.modulus,
           bp.chi2.index, bp.cutoff, round(sigma, 12), tol_tail)
    hit = _series_memo.get(key)
    if hit is not None:
        return hit
    s_val, s_bound, n_terms = _series_route(series, sigma, tol_tail)
    p_val, p_bound = _product_route(series, sigma)
    if abs(s_val - p_val) > s_bound + p_bound:
        raise SeriesProductDisagreement(
            f"{series.kind}-series {s_val} vs Euler product {p_val}: "
            f"|diff| = {abs(s_val - p_val):.3e} > {s_bound + p_bound:.3e}")
    out = SeriesConstant(value=p_val, bound=p_bound,
                         series_value=s_val, series_bound=s_bound,
                         product_value=p_val, product_bound=p_bound,
                         n_terms=n_terms)
    _series_memo[key] = out
    return out


def series_d(bpoly: BPolynomial, sigma: float, tol_tail: float = 9e-9) -> SeriesConstant:
    """D = sum d_n conj(chi2)(n) n^{-2 sigma}, dual-evaluated."""
    return _series_constant(CoefficientSeries("d", bpoly), sigma, tol_tail)


def series_e(bpoly: BPolynomial, sigma: float, tol_tail: float = 9e-9) -> SeriesConstant:
    """E = sum e_n conj(chi1)(n) n^{-2 sigma}, dual-evaluated."""
    return _series_constant(CoefficientSeries("e", bpoly), sigma, tol_tail)


def predicted_constant(bpoly: BPolynomial, sigma: float) -> complex:
    """C = D - E, the limit of sum A(gamma) / N(T)."""
    return series_d(bpoly, sigma).value - series_e(bpoly, sigma).value


# --- the statistic A(gamma) and its mean ---------------------------------------

class ThmOneEvaluator:
    """Evaluates A(gamma) = B(s,P) * 2i Im(L(s,chi1) conj(L(s,chi2))) fast.

    The windows are Delta = sqrt(l) for chi1 and Delta = 1 for chi2.  The
    proof takes Delta = sqrt(q) R for chi2, which lines the chi2 main
    window up with the mollified coefficients d'_n out to
    R sqrt(q l t / 2 pi); that alignment is a device of the argument, not
    of the numbers: L(s, chi2) is the same value whatever window produces
    it, and Delta = 1 sums about 2 sqrt(l t / 2 pi) terms (126 at t = 5000)
    instead of about 98k, with a remainder bound near 15 instead of 2.3e3.
    Each character's window terms are tabulated once (lfunc.AfeWindows)
    up to t_max; each height costs one phase array exp(-i gamma log n).
    """

    def __init__(self, bpoly: BPolynomial, sigma: float, t_max: float):
        _check_sigma(sigma)
        self.bpoly = bpoly
        self.sigma = sigma
        self.chi1 = bpoly.chi1
        self.chi2 = bpoly.chi2
        self.delta1 = math.sqrt(self.chi2.modulus)
        self.delta2 = 1.0
        self._win1 = AfeWindows(self.chi1, sigma, self.delta1, t_max)
        self._win2 = AfeWindows(self.chi2, sigma, self.delta2, t_max)
        # window roots (x = Delta root sqrt(t)); perfbench/spans.py reads them
        self._root1, self._root2 = self._win1.root, self._win2.root

        ns, cs = bpoly.complex_coefficients()
        self._b_log = np.log(ns)
        self._b_amp = cs * ns ** (-sigma)

    def b_value(self, gamma: float) -> complex:
        return complex(np.sum(self._b_amp * np.exp(-1j * gamma * self._b_log)))

    def l_values(self, gamma: float) -> tuple[LValue, LValue]:
        """AFE values of L(s, chi1), L(s, chi2) at s = sigma + i gamma."""
        return self._win1.value(gamma), self._win2.value(gamma)

    def a_value(self, gamma: float) -> complex:
        lv1, lv2 = self.l_values(gamma)
        inner = 2j * (lv1.value * lv2.value.conjugate()).imag
        return self.b_value(gamma) * inner

    def a_value_oracle(self, gamma: float) -> complex:
        s = complex(self.sigma, gamma)
        l1 = l_oracle(s, self.chi1).value
        l2 = l_oracle(s, self.chi2).value
        return self.b_value(gamma) * 2j * (l1 * l2.conjugate()).imag

    def audit(self, gamma: float) -> None:
        """Re-evaluate through the oracle; abort if beyond combined bounds."""
        lv1, lv2 = self.l_values(gamma)
        o1 = l_oracle(complex(self.sigma, gamma), self.chi1)
        o2 = l_oracle(complex(self.sigma, gamma), self.chi2)
        pair_err = (lv1.bound * (abs(o2.value) + lv2.bound)
                    + abs(o1.value) * lv2.bound + o1.bound + o2.bound)
        b = self.b_value(gamma)
        tol = 2.0 * abs(b) * pair_err + 1e-9
        afe_a = b * 2j * (lv1.value * lv2.value.conjugate()).imag
        oracle_a = self.a_value_oracle(gamma)
        if abs(afe_a - oracle_a) > tol:
            raise OracleAuditFailure(
                f"A({gamma}): AFE {afe_a} vs oracle {oracle_a} "
                f"differ by {abs(afe_a - oracle_a):.3e} > {tol:.3e}")


def a1_gamma(gamma: float, sigma: float, bpoly: BPolynomial,
             method: str = "afe") -> complex:
    """The linear-independence statistic at s = sigma + i gamma (gamma > 10)."""
    if not 10.0 < gamma < math.inf:  # nan fails the comparison
        raise PreconditionError(f"statistic needs a finite gamma > 10, got {gamma}")
    ev = ThmOneEvaluator(bpoly, sigma, gamma)
    if method == "oracle":
        return ev.a_value_oracle(gamma)
    return ev.a_value(gamma)


# --- reports --------------------------------------------------------------------

@dataclass(frozen=True)
class MeanValueReport:
    """Accumulated zero-sum statistics and the predicted limit constant."""

    t: float
    n_zeros: int
    sum_a: complex
    sum_abs_a2: float
    predicted_c: complex
    lower_bound_count: float
    sigma: float

    CSV_HEADER = ("T,N,re_sum_a,im_sum_a,sum_abs_a2,re_c,im_c,"
                  "lower_bound,lower_bound_over_n")

    def csv_row(self) -> str:
        frac = self.lower_bound_count / self.n_zeros if self.n_zeros else 0.0
        cells = [self.t, self.n_zeros, self.sum_a.real, self.sum_a.imag,
                 self.sum_abs_a2, self.predicted_c.real, self.predicted_c.imag,
                 self.lower_bound_count, frac]
        return ",".join(repr(float(c)) if isinstance(c, float) else str(c) for c in cells)


def _audit_stride(audit_rate: float) -> int:
    """Heights per oracle audit for a rate in [0, 1]; 0 means no audits."""
    if not 0.0 <= audit_rate <= 1.0:  # also catches nan
        raise PreconditionError(f"audit rate must lie in [0, 1], got {audit_rate}")
    return int(round(1.0 / audit_rate)) if audit_rate > 0 else 0


def _audited_rows(row, audit, gammas: np.ndarray, stride: int) -> list:
    """row(gamma) at every height in table order; audit(gamma) runs first
    at table indices 0, stride, 2 stride, ... (none when stride is 0)."""
    rows = []
    for i, g in enumerate(gammas):
        g = float(g)
        if stride and i % stride == 0:
            audit(g)
        rows.append(row(g))
    return rows


def _cauchy_schwarz(a_values: list) -> tuple[complex, float, float]:
    """(sum A, sum |A|^2, |sum A|^2 / sum |A|^2), the last a lower bound for
    #{A != 0}; it is 0 when every A vanishes."""
    sum_a = neumaier_sum_complex(a_values)
    sum_abs2 = neumaier_sum(abs(a) ** 2 for a in a_values)
    lower = abs(sum_a) ** 2 / sum_abs2 if sum_abs2 > 0.0 else 0.0
    return sum_a, sum_abs2, lower


def thm1_report(zeros: ZeroTable, t: float, sigma: float,
                chi1: DirichletCharacter, chi2: DirichletCharacter,
                cutoff: int | None = None, audit_rate: float = 0.01) -> MeanValueReport:
    """Accumulate sum A(gamma), sum |A|^2 and the Cauchy-Schwarz count bound.

    cutoff = None resolves to max(q, l), the smallest prime admitted by
    the nonvanishing argument.  audit_rate is the fraction of heights
    re-evaluated through the oracle; a discrepancy beyond combined
    bounds raises OracleAuditFailure.  sum_abs_a2 = 0 is reported (with
    a zero count bound), not raised: it signals that every sampled pair
    was linearly dependent.
    """
    stride = _audit_stride(audit_rate)
    if cutoff is None:
        cutoff = max(chi1.modulus, chi2.modulus)
    bpoly = build_b_polynomial(cutoff, chi1, chi2)
    gammas = zeros.up_to(t)
    evaluator = ThmOneEvaluator(bpoly, sigma, t)
    a_values = _audited_rows(evaluator.a_value, evaluator.audit, gammas, stride)
    sum_a, sum_abs2, lower = _cauchy_schwarz(a_values)
    return MeanValueReport(
        t=t, n_zeros=len(gammas), sum_a=sum_a, sum_abs_a2=sum_abs2,
        predicted_c=predicted_constant(bpoly, sigma),
        lower_bound_count=lower, sigma=sigma)
