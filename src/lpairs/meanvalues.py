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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter, _check_non_principal, _unit_roots
from .errors import (
    ClosedFormMismatch,
    CutoffTooSmall,
    OracleAuditFailure,
    PreconditionError,
    SeriesProductDisagreement,
)
from .lfunc import PairEvaluator, l_oracle, l_via_hurwitz
from .primes import is_prime, primes_upto
# perfbench/spans.py wraps x_factor and hurwitz_zeta_certified by this
# module's attributes, so the names stay importable here
from .specfun import hurwitz_zeta_certified, x_factor
from .summation import neumaier_sum, neumaier_sum_complex
from .zeros import ZeroTable

_SIEVE_CHUNK = 1 << 16  # residues per sieve chunk and floats per grid block
_SERIES_TAIL_TOL = 9e-9  # Abel tail bound of the series route of D and E


# --- exact root-of-unity arithmetic ------------------------------------------

def _divmod_monic(poly, divisor) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, constant term first,
    by a monic divisor."""
    rem, deg = list(poly), len(divisor) - 1
    quotient = [0] * (len(rem) - deg)
    for k in range(len(rem) - 1, deg - 1, -1):
        c = quotient[k - deg] = rem[k]
        if c:
            for j, dj in enumerate(divisor):
                rem[k - deg + j] -= c * dj
    return quotient, rem[:deg]


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n, constant term first: x^n - 1 over Phi_d for each proper divisor d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divmod_monic(poly, _cyclotomic(d))[0]
    return tuple(poly)


class RootSum:
    """Integer combination of order-th roots of unity, kept exact.

    Stored as {exponent: integer coefficient}, reduced modulo the
    cyclotomic polynomial Phi_order to exponents below its degree: that
    form is unique in Z[zeta_order], so a sum that vanishes, like
    1 + zeta^2 at order 4, is stored empty.  Addition and multiplication
    never leave the ring, so coefficient identities are decided by
    dictionary equality, not float comparison.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms=None):
        self.order = order
        dense = [0] * order
        for k, c in (terms or {}).items():
            dense[k % order] += c
        dense = _divmod_monic(dense, _cyclotomic(order))[1]
        self.terms = {k: c for k, c in enumerate(dense) if c}

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
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
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

    def complex_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """(support, values) arrays for numeric evaluation, ascending n."""
        keys = sorted(self.coeffs)  # ints: n above 2^53 does not survive a float
        cs = np.array([self.coeffs[n].to_complex() for n in keys], dtype=complex)
        return np.array(keys, dtype=float), cs


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
        return self.truncated(n, math.inf)

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
        conv = self.convolution(n)
        closed = self.closed_form(n)
        if conv != closed:
            raise ClosedFormMismatch(
                f"{self.kind}_{n}: convolution {conv!r} != closed form {closed!r}")
        return conv

    def truncated(self, n: int, t: float) -> RootSum:
        """d'_n(t): sum_{n = k m} c_k chi(m) restricted to m <= sqrt(q l t / 2 pi).

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

    series_value: complex
    series_bound: float
    product_value: complex
    product_bound: float
    n_terms: int


def _twist_table(chi_a: DirichletCharacter, chi_b: DirichletCharacter) -> np.ndarray:
    """Value table of chi_a * conj(chi_b) mod q*l (length q*l)."""
    m = chi_a.modulus * chi_b.modulus
    return np.array([chi_a(n) * chi_b(n).conjugate() for n in range(m)],
                    dtype=complex)


def _series_size(chi1: DirichletCharacter, chi2: DirichletCharacter, primes: list[int],
                 sigma: float, tol_tail: float) -> tuple[float, int]:
    """(2 sum|c_n| S_max(xi), N) for the series route of B(s, P) over primes,
    from its exact sum|c_n| = prod_p (1 + |chi1(p) + chi2(p)| + |chi1(p) chi2(p)|);
    refuses an N above 8e8 (or one that overflows a float).  S_max(xi) is
    the largest |prefix sum| of xi = chi1 conj(chi2), which D and E share:
    the twist of E is its complex conjugate."""
    sum_abs = math.prod(1.0 + abs(chi1(p) + chi2(p)) + abs(chi1(p) * chi2(p))
                        for p in primes)
    s_max = float(np.max(np.abs(np.cumsum(_twist_table(chi1, chi2)))))
    structural = 2.0 * sum_abs * s_max
    n_float = (structural / tol_tail) ** (1.0 / (2.0 * sigma))
    if not n_float <= 8e8:  # inf or nan fails the comparison
        raise PreconditionError(
            f"series route needs N = {n_float:.3g} terms at sigma = {sigma}; "
            "raise sigma or lower P")
    return structural, max(int(math.ceil(n_float)), 1000)


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
    n / (those primes) mod q.  So with n = k M + r,
    sum_n a_n n^{-2 sigma} = sum_r a_r sum_k (k M + r)^{-2 sigma}, and only
    the residues r with a_r != 0 (about half of them; a_0 = 0) are summed.
    The residues 1 <= r <= min(M - 1, N) are sieved one chunk at a time;
    the chunk's support is summed over every period k in blocks, each one
    float grid, a row per residue, of at most one chunk, whose row sums
    are dotted with a_r.  Only the last period can pass N (r - r_lo < M),
    and its entries beyond N become +inf, so their power is 0.  Every grid
    is filled in place into one buffer of _SIEVE_CHUNK floats, allocated
    once per call, so memory stays at one cache-sized chunk for every
    period (M = 900 for 3:1, 5:2, P = 5; 5,336,100 at P = 11).
    """
    bpoly = series.bpoly
    inner, other = series.inner, series.other
    structural, n_limit = _series_size(bpoly.chi1, bpoly.chi2, bpoly.primes, sigma,
                                       tol_tail)

    mod_inner = inner.modulus
    mod_other = other.modulus
    inner_table = inner.value_table()
    other_conj = np.conj(other.value_table())
    pfac = {p: -other(p) for p in bpoly.primes}

    def sieve(n: np.ndarray) -> np.ndarray:
        """a_n for an int64 array of n."""
        acc = other_conj[n % mod_other]  # fancy indexing copies
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
    r_max = min(period - 1, n_limit)

    partials = []
    buffer = np.empty(_SIEVE_CHUNK)
    for r_lo in range(1, r_max + 1, _SIEVE_CHUNK):
        residues = np.arange(r_lo, min(r_lo + _SIEVE_CHUNK, r_max + 1), dtype=np.int64)
        weights = sieve(residues)
        support = np.flatnonzero(weights)
        if not len(support):
            continue  # a short last chunk can hold only zero coefficients
        residues, weights = residues[support].astype(float), weights[support]
        k_last = (n_limit - r_lo) // period
        k_block = _SIEVE_CHUNK // len(residues)  # >= 1, as |support| <= chunk
        for k_lo in range(0, k_last + 1, k_block):
            k_hi = min(k_lo + k_block, k_last + 1)
            grid = buffer[:len(residues) * (k_hi - k_lo)].reshape(len(residues), -1)
            np.add(residues[:, None], np.arange(k_lo, k_hi, dtype=float) * period, out=grid)
            if k_hi > k_last:
                last = grid[:, -1]
                last[last > n_limit] = np.inf
            np.power(grid, -2.0 * sigma, out=grid)
            partials.append(grid.sum(axis=1) @ weights)
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


def _series_constant(series: CoefficientSeries, sigma: float) -> SeriesConstant:
    _check_sigma(sigma)
    s_val, s_bound, n_terms = _series_route(series, sigma, _SERIES_TAIL_TOL)
    p_val, p_bound = _product_route(series, sigma)
    if abs(s_val - p_val) > s_bound + p_bound:
        raise SeriesProductDisagreement(
            f"{series.kind}-series {s_val} vs Euler product {p_val}: "
            f"|diff| = {abs(s_val - p_val):.3e} > {s_bound + p_bound:.3e}")
    return SeriesConstant(series_value=s_val, series_bound=s_bound,
                          product_value=p_val, product_bound=p_bound,
                          n_terms=n_terms)


def series_d(bpoly: BPolynomial, sigma: float) -> SeriesConstant:
    """D = sum d_n conj(chi2)(n) n^{-2 sigma}, dual-evaluated."""
    return _series_constant(CoefficientSeries("d", bpoly), sigma)


def series_e(bpoly: BPolynomial, sigma: float) -> SeriesConstant:
    """E = sum e_n conj(chi1)(n) n^{-2 sigma}, dual-evaluated."""
    return _series_constant(CoefficientSeries("e", bpoly), sigma)


def predicted_constant(bpoly: BPolynomial, sigma: float) -> complex:
    """C = D - E, the limit of sum A(gamma) / N(T)."""
    return series_d(bpoly, sigma).product_value - series_e(bpoly, sigma).product_value


# --- the statistic A(gamma) and its mean ---------------------------------------

def _statistic(b: complex, l1: complex, l2: complex) -> complex:
    """A = B 2i Im(L1 conj L2) from the mollifier value and the two L-values."""
    return b * 2j * (l1 * l2.conjugate()).imag


def _check_audit(gamma: float, afe_a: complex, oracle_a: complex, tol: float) -> None:
    """Both theorems' audit verdict: raise when |afe_a - oracle_a| > tol."""
    if abs(afe_a - oracle_a) > tol:
        raise OracleAuditFailure(
            f"A({gamma}): AFE {afe_a} vs oracle {oracle_a} "
            f"differ by {abs(afe_a - oracle_a):.3e} > {tol:.3e}")


class ThmOneEvaluator(PairEvaluator):
    """Evaluates A(gamma) = B(s,P) * 2i Im(L(s,chi1) conj(L(s,chi2))) fast.

    The windows are Delta = sqrt(l) for chi1 and Delta = 1 for chi2.  The
    proof takes Delta = sqrt(q) R for chi2, which lines the chi2 main
    window up with the mollified coefficients d'_n out to
    R sqrt(q l t / 2 pi); that alignment is a device of the argument, not
    of the numbers: L(s, chi2) is the same value whatever window produces
    it, and Delta = 1 sums about 2 sqrt(l t / 2 pi) terms (126 at t = 5000)
    instead of about 98k, with a remainder bound near 15 instead of 2.3e3.
    B(s, P), the windows and the loop (rows) are lfunc.PairEvaluator's.
    """

    _row = staticmethod(_statistic)

    def __init__(self, bpoly: BPolynomial, sigma: float, t_max: float):
        _check_sigma(sigma)
        _check_non_principal(bpoly.chi1, bpoly.chi2)
        ns, cs = bpoly.complex_coefficients()
        super().__init__(bpoly.chi1, bpoly.chi2, sigma,
                         (math.sqrt(bpoly.chi2.modulus), 1.0), t_max,
                         np.log(ns), cs * ns ** (-sigma))

    def a_value_oracle(self, gamma: float) -> complex:
        s = complex(self.sigma, gamma)
        l1 = l_oracle(s, self.chi1).value
        l2 = l_oracle(s, self.chi2).value
        return _statistic(self.b_value(gamma), l1, l2)

    def audit(self, gamma: float) -> None:
        """Re-evaluate through the oracle; abort if beyond combined bounds.
        With |L_j - O_j| <= e_j, e1 e2 + min(e1 |L2| + |L1| e2, e1 |O2| + |O1| e2)
        bounds |L1 conj L2 - O1 conj O2|: no defect widens its own tolerance."""
        lv1, lv2 = self.l_values(gamma)
        o1 = l_oracle(complex(self.sigma, gamma), self.chi1)
        o2 = l_oracle(complex(self.sigma, gamma), self.chi2)
        e1, e2 = lv1.bound + o1.bound, lv2.bound + o2.bound
        pair_err = e1 * e2 + min(e1 * abs(lv2.value) + abs(lv1.value) * e2,
                                 e1 * abs(o2.value) + abs(o1.value) * e2)
        b = self.b_value(gamma)
        _check_audit(gamma, _statistic(b, lv1.value, lv2.value),
                     self.a_value_oracle(gamma), 2.0 * abs(b) * pair_err + 1e-9)


# --- reports --------------------------------------------------------------------

def _csv_row(cells) -> str:
    """A CSV row: repr for floats, which round-trips them exactly, str otherwise."""
    return ",".join(repr(float(c)) if isinstance(c, float) else str(c) for c in cells)


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
        return _csv_row([self.t, self.n_zeros, self.sum_a.real, self.sum_a.imag,
                         self.sum_abs_a2, self.predicted_c.real, self.predicted_c.imag,
                         self.lower_bound_count, frac])


def _cauchy_schwarz(a_values: np.ndarray) -> tuple[complex, float, float]:
    """(sum A, sum |A|^2, |sum A|^2 / sum |A|^2), the last a lower bound for
    #{A != 0}; it is 0 when every A vanishes.  The sums run in table order
    over the Python complexes of a_values.tolist()."""
    a_values = a_values.tolist()
    sum_a = neumaier_sum_complex(a_values)
    sum_abs2 = neumaier_sum(abs(a) ** 2 for a in a_values)
    lower = abs(sum_a) ** 2 / sum_abs2 if sum_abs2 > 0.0 else 0.0
    return sum_a, sum_abs2, lower


def thm1_sweep(ts, sigma: float, chi1: DirichletCharacter, chi2: DirichletCharacter,
               cutoff: int | None = None):
    """Check every option and sum C = D - E, then return reports(zeros):
    one MeanValueReport per height in ts, in order, from one audited pass
    to max(ts).  No check waits for a zero table, and sigma and the series
    route's N are checked before B(s, P) is expanded, as _series_size
    needs only the characters and the primes.  cutoff None is max(q, l),
    the least prime the nonvanishing argument admits.
    A(gamma) does not depend on the height the windows are tabulated to,
    so the report at T is the prefix up to N(T) of that pass, bit for bit.
    """
    if len(ts) == 0 or not all(0.0 <= t < math.inf for t in ts):  # nan fails
        raise PreconditionError(f"thm1 needs heights 0 <= T < inf, got {list(ts)}")
    _check_non_principal(chi1, chi2)
    _check_sigma(sigma)
    cutoff = max(chi1.modulus, chi2.modulus) if cutoff is None else cutoff
    if is_prime(cutoff):  # else build_b_polynomial refuses it without a sieve
        _series_size(chi1, chi2, primes_upto(cutoff), sigma, _SERIES_TAIL_TOL)
    bpoly = build_b_polynomial(cutoff, chi1, chi2)
    predicted_c = predicted_constant(bpoly, sigma)

    def reports(zeros: ZeroTable) -> list[MeanValueReport]:
        gammas = zeros.up_to(max(ts))
        evaluator = ThmOneEvaluator(bpoly, sigma, gammas.max(initial=0.0))
        a_values = evaluator.rows(gammas, np.empty(len(gammas), dtype=complex))
        out = []
        for t in ts:
            n = zeros.count(t)
            sum_a, sum_abs2, lower = _cauchy_schwarz(a_values[:n])
            out.append(MeanValueReport(t, n, sum_a, sum_abs2, predicted_c, lower, sigma))
        return out

    return reports


def thm1_report(zeros: ZeroTable, t: float, sigma: float,
                chi1: DirichletCharacter, chi2: DirichletCharacter,
                cutoff: int | None = None) -> MeanValueReport:
    """Sum A(gamma), sum |A|^2 and the Cauchy-Schwarz count bound up to t:
    thm1_sweep at the one height t.  An audit beyond combined bounds raises
    OracleAuditFailure; sum_abs_a2 = 0 (every sampled pair linearly
    dependent) is reported with a zero count bound, not raised."""
    return thm1_sweep([t], sigma, chi1, chi2, cutoff)(zeros)[0]
