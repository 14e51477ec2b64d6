"""Two evaluators for L(s, chi) in the critical strip.

l_afe is the approximate functional equation with window lengths
x = Delta sqrt(qt/2pi), y = Delta^{-1} sqrt(qt/2pi):

    L(s) = sum_{n<=x} chi(n) n^{-s} + X(s,chi) sum_{n<=y} conj(chi)(n) n^{s-1} + R,
    |R| <= C * sqrt(q) (y^{-sigma} + x^{sigma-1} (qt)^{1/2-sigma}) log 2t.

The remainder is an order bound with no explicit constant in the
literature; the implementation fixes C = 10 and the test grid validates
it empirically (observed worst ratio is below 0.01, so the certificate
carries a large margin).  Boundary terms with n = x integral are
included in the first window; both windows use the same convention.
Any real Delta >= 1 is accepted.

The AFE value has one implementation, AfeWindows.value(t): a table of
chi(n) n^{-sigma}, conj chi(m) m^{sigma-1} and log n for one character,
sigma, Delta and t_max gives both window sums; the value is the first
plus X(s, chi) times the second, with the remainder bound.  l_afe builds
the table for its single height; the thm1 and thm2 evaluators build it
once for every height up to T.

l_oracle is the slow independent evaluator through Hurwitz zeta:
L(s, chi) = q^{-s} sum_{a=1}^{q} chi(a) zeta(s, a/q), certified to 1e-9.
That sum has one implementation, l_via_hurwitz(table, sigma, ts, tol):
any sigma, a batch of heights, one Euler-Maclaurin kernel call per
nonzero shift.  It also serves the Euler-product route of the limit
constants, at t = 0.  The oracle contract (non-principal character,
finite sigma, |t| <= 1e4, one rounding allowance, bound <= 1e-9) has one
implementation too: l_oracle applies it to a batch of one height and
l_oracle_critical_batch to a batch at sigma = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import DirichletCharacter
from .errors import (
    AccuracyLoss,
    DomainTooSmall,
    HeightExceeded,
    OutOfStrip,
    PrincipalCharacter,
)
from .specfun import _digamma_real, _hurwitz_critical_batch, x_factor
# perfbench/spans.py wraps hurwitz_zeta_certified by this module's attribute
from .specfun import hurwitz_zeta_certified

AFE_REMAINDER_CONSTANT = 10.0
_AFE_MIN_HEIGHT = 10.0  # below this the Stirling-regime bound degrades


@dataclass(frozen=True)
class LValue:
    """A complex L-value with a certified absolute error bound."""

    value: complex
    bound: float
    method: str  # "afe" or "oracle"


def _require_strip_char(s: complex, chi: DirichletCharacter) -> None:
    if not 0.0 < s.real < 1.0:
        raise OutOfStrip(f"need 0 < Re s < 1, got Re s = {s.real}")
    if chi.is_principal:
        raise PrincipalCharacter("evaluators require a non-principal character")


def afe_remainder_bound(sigma: float, t: float, q: int, delta: float) -> float:
    """Certified |R| for the two-window split at height t."""
    root = math.sqrt(q * t / (2.0 * math.pi))
    x = delta * root
    y = root / delta
    return (AFE_REMAINDER_CONSTANT * math.sqrt(q)
            * (y ** -sigma + x ** (sigma - 1.0) * (q * t) ** (0.5 - sigma))
            * math.log(2.0 * t))


class AfeWindows:
    """The two AFE window sums of one character at s = sigma + i t.

    Tabulates chi(n) n^{-sigma}, conj chi(m) m^{sigma-1} and log n out to
    the first window at t_max; each height then costs one phase array
    e^{-i t log n}, and the second window's phases e^{i t log m} are its
    conjugates.
    """

    def __init__(self, chi: DirichletCharacter, sigma: float, delta: float,
                 t_max: float):
        q = chi.modulus
        self.chi = chi
        self.sigma = sigma
        self.delta = delta
        self.root = math.sqrt(q / (2.0 * math.pi))  # x = delta * root * sqrt(t)
        n = np.arange(1, int(delta * self.root * math.sqrt(t_max)) + 3)
        self._logn = np.log(n)
        table = chi.value_table()
        self._w = table[n % q] * n.astype(float) ** (-sigma)
        self._v = np.conj(table)[n % q] * n.astype(float) ** (sigma - 1.0)

    def sums(self, t: float) -> tuple[complex, complex]:
        """(sum_{n<=x} chi(n) n^{-s}, sum_{m<=y} conj chi(m) m^{s-1}), t <= t_max."""
        k = math.floor(self.delta * self.root * math.sqrt(t))
        j = math.floor(self.root * math.sqrt(t) / self.delta)
        if max(k, j) > len(self._w):
            raise HeightExceeded(f"AFE windows are tabulated to {len(self._w)} terms; "
                                 f"t = {t} needs {max(k, j)}")
        phases = np.exp(-1j * t * self._logn[:max(k, j)])
        return (complex(np.sum(self._w[:k] * phases[:k])),
                complex(np.sum(self._v[:j] * np.conj(phases[:j]))))

    def value(self, t: float) -> LValue:
        """L(sigma + i t, chi) = first + X(s, chi) second, with its remainder bound."""
        first, second = self.sums(t)
        value = first + x_factor(complex(self.sigma, t), self.chi) * second
        return LValue(value, afe_remainder_bound(self.sigma, t, self.chi.modulus,
                                                 self.delta), "afe")


def l_afe(s, chi: DirichletCharacter, delta: float = 1.0) -> LValue:
    """Approximate-functional-equation value of L(s, chi).

    Heights t <= -10 are served through the exact reflection
    L(s, chi) = conj(L(conj s, conj chi)); |t| < 10 is out of range.
    """
    s = complex(s)
    _require_strip_char(s, chi)
    if delta < 1.0:
        raise DomainTooSmall(f"window parameter Delta must be >= 1, got {delta}")
    if not math.isfinite(s.imag):
        raise DomainTooSmall(f"AFE requires a finite height, got t = {s.imag}")
    if s.imag <= -_AFE_MIN_HEIGHT:
        mirrored = l_afe(s.conjugate(), chi.conjugate(), delta)
        return LValue(mirrored.value.conjugate(), mirrored.bound, "afe")
    if s.imag < _AFE_MIN_HEIGHT:
        raise DomainTooSmall(
            f"AFE requires |t| >= {_AFE_MIN_HEIGHT}; use l_oracle for t = {s.imag}")
    return AfeWindows(chi, s.real, delta, s.imag).value(s.imag)


def l_via_hurwitz(table, sigma: float, ts, tol: float) -> tuple[np.ndarray, float]:
    """m^{-s} sum_a table[a] zeta(s, a/m) at s = sigma + i t for a batch
    of heights and a period-m value table, with the certified zeta bounds
    summed and scaled by m^{-sigma}.  One kernel call per nonzero shift;
    its N comes from the batch's largest |t|."""
    ts = np.asarray(ts, dtype=float)
    m = len(table)
    total = np.zeros(len(ts), dtype=complex)
    bound = 0.0
    for a in range(1, m):
        ca = table[a]
        if ca == 0:
            continue
        vals, b = _hurwitz_critical_batch(ts, a / m, tol, sigma)
        total += ca * vals
        bound += b
    return np.exp(-(sigma + 1j * ts) * math.log(m)) * total, m ** -sigma * bound


def _oracle_batch(chi: DirichletCharacter, sigma: float, ts,
                  tol: float) -> tuple[np.ndarray, float]:
    """The oracle contract: L(sigma + i t, chi) over a batch of heights,
    with one worst bound for the batch."""
    if chi.is_principal:
        raise PrincipalCharacter("l_oracle requires a non-principal character")
    if not math.isfinite(sigma):
        raise DomainTooSmall(f"l_oracle needs a finite real part, got {sigma}")
    if len(ts) == 0:
        return np.empty(0, dtype=complex), 0.0
    tmax = float(np.max(np.abs(ts)))
    if not tmax <= 1e4:  # nan fails the comparison
        raise HeightExceeded(f"oracle supports |t| <= 1e4, got {tmax}")
    values, bound = l_via_hurwitz(chi.value_table(), sigma, ts, tol)
    bound += 8.0 * float(np.max(np.abs(values))) * 2.2e-16 + 1e-12
    if bound > 1e-9:
        raise AccuracyLoss(f"oracle bound {bound:.2e} exceeds 1e-9 at "
                           f"sigma={sigma}, |t| <= {tmax}")
    return values, bound


def l_oracle(s, chi: DirichletCharacter, tol: float = 1e-11) -> LValue:
    """High-accuracy independent evaluation via Hurwitz zeta: the oracle
    contract on a batch of one height."""
    s = complex(s)
    if s == 1 and not chi.is_principal:
        # the Hurwitz poles cancel against sum chi(a) = 0, leaving the
        # digamma formula L(1, chi) = -(1/q) sum_a chi(a) psi(a/q)
        q = chi.modulus
        value = -sum(chi(a) * _digamma_real(a / q) for a in range(1, q)) / q
        return LValue(value, 1e-12, "oracle")
    values, bound = _oracle_batch(chi, s.real, [s.imag], tol)
    return LValue(complex(values[0]), bound, "oracle")


def l_oracle_critical_batch(ts: np.ndarray, chi: DirichletCharacter,
                            tol: float = 1e-11) -> tuple[np.ndarray, float]:
    """Oracle values L(1/2 + i t, chi) for an ascending batch of heights:
    the l_oracle contract at sigma = 1/2.  Returns (values, worst bound)."""
    return _oracle_batch(chi, 0.5, ts, tol)
