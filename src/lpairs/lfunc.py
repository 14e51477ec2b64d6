"""Two evaluators for L(s, chi) in the critical strip.

l_afe is the approximate functional equation with window lengths
x = Delta sqrt(qt/2pi), y = Delta^{-1} sqrt(qt/2pi):

    L(s) = sum_{n<=x} chi(n) n^{-s} + X(s,chi) sum_{n<=y} conj(chi)(n) n^{s-1} + R,
    |R| <= C * sqrt(q) (y^{-sigma} + x^{sigma-1} (qt)^{1/2-sigma}) log 2t.

The remainder is an order bound with no explicit constant in the
literature; the implementation fixes C = 10 and the test grid validates
it empirically (observed worst ratio is below 0.01, a large margin; the
constant is fitted, not proven).  Boundary terms with n = x integral are
included in the first window; both windows use the same convention.
Any real Delta >= 1 is accepted.

The AFE value has one implementation, AfeWindows.values(ts): a table of
chi(n) n^{-sigma}, conj chi(m) m^{sigma-1} and log n for one character,
sigma, Delta and t_max gives both window sums at any batch of heights,
by runs of equal window lengths, the same bits as each height summed
alone.  The value is the first sum plus X(s, chi) times the second, one
x_factor call and one Python complex sum per height.  AfeWindows.value(t)
is values on one height with the remainder bound; l_afe builds the table
for its single height.  Both theorems read a Dirichlet polynomial B
(dirichlet_values, also landau's x^rho) beside L(s, chi1), L(s, chi2) at
every zero, in the one loop over a zero table, PairEvaluator.rows, which
audits its AFE values at every _AUDIT_STRIDE-th zero for both theorems.

l_oracle is the slow independent evaluator through Hurwitz zeta:
L(s, chi) = q^{-s} sum_{a=1}^{q} chi(a) zeta(s, a/q), certified to 1e-9.
That sum has one implementation, l_via_hurwitz(table, sigma, ts, tol):
any sigma, a batch of heights.  N is the least main-sum length at which
the Euler-Maclaurin Backlund remainder bound meets tol (about 0.24
max|t| in the critical strip).  On a batch the main sums of all the
nonzero shifts are one Dirichlet sum over k < mN, which wheel_sum forms
over the mod-6 wheel, with a sin and a cos for a third of the k or
fewer; each shift keeps its own tail and bound from specfun's
Euler-Maclaurin kernel (_em_tail), every shift stopping at one Bernoulli
order.  A single height takes the kernel's per-shift sums.  The table
must be completely multiplicative.  It also serves the Euler-product
route of the limit constants, at t = 0.  The oracle contract
(non-principal character, finite sigma, |t| <= 1e4, one rounding
allowance, bound <= 1e-9) has one implementation too, _oracle_batch, on
any batch at any sigma: l_oracle applies it to one height and
l_oracle_critical_batch to a batch at sigma = 1/2.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .characters import DirichletCharacter, _check_non_principal
from .errors import (
    AccuracyLoss,
    DomainTooSmall,
    HeightExceeded,
    OutOfStrip,
)
from .specfun import (
    _EPS,
    _backlund_orders,
    _digamma_real,
    _em_tail,
    _hurwitz_critical_batch,
    _hurwitz_terms,
    x_factor,
)
# perfbench/spans.py wraps hurwitz_zeta_certified by this module's attribute
from .specfun import hurwitz_zeta_certified

AFE_REMAINDER_CONSTANT = 10.0
ORACLE_TOL = 1e-11  # Euler-Maclaurin truncation tolerance per Hurwitz term
_AFE_MIN_HEIGHT = 10.0  # below this the Stirling-regime bound degrades
# heights per PairEvaluator block: its AFE groups' phase matrices and their
# products then stay near 100 kB at the window lengths of thm2 at T = 1e4,
# where runs of equal lengths reach 259 heights (1.1 MB)
_GROUP_ROWS = 64
# heights per oracle block; each block's largest |t| sets the kernel's N
_ORACLE_BLOCK = 512
# table indices per oracle audit: rows audits indices 0, 100, 200, ...
_AUDIT_STRIDE = 100
# residues mod 6 of the wheel's units r, gcd(r, 6) = 1
_WHEEL_UNITS = (1, 5)
# the 3-smooth numbers 2^i 3^j below 2^53, ascending; sorted in Python, as
# with np.sort importing lpairs raised every run's peak RSS by about 0.4 MB
_SMOOTH = np.array(sorted(2 ** i * 3 ** j for i in range(53) for j in range(34)
                          if 2 ** i * 3 ** j < 2 ** 53), dtype=np.int64)
# heights per block of wheel_sum: its complex block then holds 0.2 MB at
# modulus 5, t = 1e4 (3,176 units r), and with its tables stays under the
# 0.46 MB of the per-shift power sums it replaces
_WHEEL_ROWS = 4
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LValue:
    """A complex L-value with an absolute error bound, certified for the oracle only."""

    value: complex
    bound: float
    method: str  # "afe" or "oracle"


def afe_remainder_bound(sigma: float, t: float, q: int, delta: float) -> float:
    """The |R| bound for the two-window split at height t, with the fitted
    C = AFE_REMAINDER_CONSTANT: an empirical bound, not a proven one."""
    root = math.sqrt(q * t / (2.0 * math.pi))
    x = delta * root
    y = root / delta
    return (AFE_REMAINDER_CONSTANT * math.sqrt(q)
            * (y ** -sigma + x ** (sigma - 1.0) * (q * t) ** (0.5 - sigma))
            * math.log(2.0 * t))


class AfeWindows:
    """The two AFE window sums of one character at s = sigma + i t.

    Tabulates chi(n) n^{-sigma}, conj chi(m) m^{sigma-1} and log n out to
    the first window at t_max.  A batch of heights is taken one group at
    a time, a group being a run of consecutive heights with the same
    window lengths (k, j): each group forms one phase matrix
    e^{-i t log n}, a row per height, and the second window's phases
    e^{i t log m} are its conjugates (PairEvaluator.rows passes batches of
    _GROUP_ROWS heights).  numpy gives each row sum the same pairwise
    summation as a one-height array, so every value is the bits of that
    height evaluated alone.
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

    def lengths(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Window lengths (k, j) = (floor x, floor y) at each height of ts."""
        sqrt_t = np.sqrt(ts)
        return (np.floor(self.delta * self.root * sqrt_t).astype(np.int64),
                np.floor(self.root * sqrt_t / self.delta).astype(np.int64))

    def sums(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """(sum_{n<=x} chi(n) n^{-s}, sum_{m<=y} conj chi(m) m^{s-1}) at each
        height of ts, every height <= t_max."""
        ts = np.asarray(ts, dtype=float)
        k, j = self.lengths(ts)
        short = np.flatnonzero(np.maximum(k, j) > len(self._w))
        if len(short):
            i = short[0]
            raise HeightExceeded(f"AFE windows are tabulated to {len(self._w)} terms; "
                                 f"t = {ts[i]} needs {max(k[i], j[i])}")
        firsts = np.empty(len(ts), dtype=complex)
        seconds = np.empty(len(ts), dtype=complex)
        step = (k[1:] != k[:-1]) | (j[1:] != j[:-1])
        edges = [0, *(np.flatnonzero(step) + 1).tolist()] if len(ts) else []
        for lo, hi in zip(edges, edges[1:] + [len(ts)]):
            kg, jg = int(k[lo]), int(j[lo])
            phases = np.exp(-1j * ts[lo:hi, None] * self._logn[None, :max(kg, jg)])
            firsts[lo:hi] = (self._w[:kg] * phases[:, :kg]).sum(axis=1)
            seconds[lo:hi] = (self._v[:jg] * np.conj(phases[:, :jg])).sum(axis=1)
        return firsts, seconds

    def values(self, ts) -> list[complex]:
        """L(sigma + i t, chi) = first + X(s, chi) second at each height of ts:
        one x_factor call per height, and the sum in Python complexes."""
        firsts, seconds = self.sums(ts)
        sigma, chi = self.sigma, self.chi
        return [first + x_factor(complex(sigma, t), chi) * second
                for t, first, second in zip(np.asarray(ts, dtype=float).tolist(),
                                            firsts.tolist(), seconds.tolist())]

    def value(self, t: float) -> LValue:
        """L(sigma + i t, chi) with its remainder bound: values on one height."""
        return LValue(self.values([t])[0], afe_remainder_bound(
            self.sigma, t, self.chi.modulus, self.delta), "afe")


def l_afe(s, chi: DirichletCharacter, delta: float = 1.0) -> LValue:
    """Approximate-functional-equation value of L(s, chi).

    Heights t <= -10 are served through the exact reflection
    L(s, chi) = conj(L(conj s, conj chi)); |t| < 10 is out of range.
    """
    s = complex(s)
    if not 0.0 < s.real < 1.0:
        raise OutOfStrip(f"need 0 < Re s < 1, got Re s = {s.real}")
    _check_non_principal(chi)
    if not 1.0 <= delta < math.inf:  # nan fails the comparison
        raise DomainTooSmall(f"window parameter Delta must be finite and >= 1, "
                             f"got {delta}")
    if not math.isfinite(s.imag):
        raise DomainTooSmall(f"AFE requires a finite height, got t = {s.imag}")
    if s.imag <= -_AFE_MIN_HEIGHT:
        mirrored = l_afe(s.conjugate(), chi.conjugate(), delta)
        return LValue(mirrored.value.conjugate(), mirrored.bound, "afe")
    if s.imag < _AFE_MIN_HEIGHT:
        raise DomainTooSmall(
            f"AFE requires |t| >= {_AFE_MIN_HEIGHT}; use l_oracle for t = {s.imag}")
    return AfeWindows(chi, s.real, delta, s.imag).value(s.imag)


def dirichlet_values(log_n, amp, ts) -> np.ndarray:
    """sum_k amp_k e^{-i t log_n_k} at each height of ts: the row sums of
    one phase matrix, each the bits of its height alone."""
    return (amp * np.exp(-1j * np.asarray(ts, dtype=float)[:, None] * log_n)).sum(axis=1)


class PairEvaluator:
    """(B, L(s, chi1), L(s, chi2)) at s = sigma + i gamma: B the Dirichlet
    polynomial dirichlet_values(b_log, b_amp, gamma), the L-values AFE
    values of windows Delta = deltas tabulated to t_max.  rows is the one
    audited loop over a zero table; a subclass defines _row(b, l1, l2) and audit."""

    def __init__(self, chi1: DirichletCharacter, chi2: DirichletCharacter, sigma: float,
                 deltas: tuple[float, float], t_max: float, b_log, b_amp):
        self.chi1, self.chi2, self.sigma = chi1, chi2, sigma
        self.delta1, self.delta2 = deltas
        self._win1 = AfeWindows(chi1, sigma, self.delta1, t_max)
        self._win2 = AfeWindows(chi2, sigma, self.delta2, t_max)
        # window roots (x = Delta root sqrt(t)); perfbench/spans.py reads them
        self._root1, self._root2 = self._win1.root, self._win2.root
        self._b_log, self._b_amp = b_log, b_amp

    def b_values(self, gammas) -> np.ndarray:
        return dirichlet_values(self._b_log, self._b_amp, gammas)

    def b_value(self, gamma: float) -> complex:
        return complex(self.b_values([gamma])[0])

    def l_values(self, gamma: float) -> tuple[LValue, LValue]:
        """AFE values of L(s, chi1), L(s, chi2) at s = sigma + i gamma."""
        return self._win1.value(gamma), self._win2.value(gamma)

    def rows(self, gammas: np.ndarray, out: np.ndarray, lvalues=None) -> np.ndarray:
        """out[i] = _row(B, L1, L2) at gammas[i], the bits of that height
        alone, filled _GROUP_ROWS heights at a time and returned; lvalues =
        (L1 array, L2 array) over gammas replaces the AFE values, which are
        otherwise audited first at indices 0, _AUDIT_STRIDE, 2 _AUDIT_STRIDE, ..."""
        if lvalues is None:
            for g in gammas[::_AUDIT_STRIDE].tolist():
                self.audit(g)
        for lo in range(0, len(gammas), _GROUP_ROWS):
            ts = gammas[lo:lo + _GROUP_ROWS]
            ls = ((self._win1.values(ts), self._win2.values(ts)) if lvalues is None
                  else [values[lo:lo + len(ts)].tolist() for values in lvalues])
            out[lo:lo + len(ts)] = [self._row(b, l1, l2) for b, l1, l2 in zip(
                self.b_values(ts).tolist(), *ls)]
        return out


class _Wheel(NamedTuple):
    """The height-independent part of wheel_sum(table, sigma, ts, top): the
    units r <= top of the mod-6 wheel with table[r] != 0, the 3-smooth s
    <= top with table[s] != 0, in descending order, and their cuts
    floor(top / s) into the r."""

    log_r: np.ndarray  # log r, ascending r
    coef_r: np.ndarray  # table[r] r^-sigma
    starts: np.ndarray  # reduceat starts of the segments between distinct cuts
    segment: np.ndarray  # the segment that ends at each s's cut
    ilog_s: np.ndarray  # -i log s
    coef_s: np.ndarray  # table[s] s^-sigma


def _wheel(table, sigma: float, top: int) -> _Wheel:
    """The tables of wheel_sum, in a few dozen numpy calls whatever top is.
    The units r with table[r] != 0 repeat with period lcm(6, m), one row
    of the r per period.  The s are _SMOOTH up to top, descending, so that
    their cuts ascend; where table[2] or table[3] is 0, so is every
    multiple's, and those s go."""
    m = len(table)
    period = 6 * m // math.gcd(6, m)
    live = (table != 0).tolist()
    units = [u + v for u in range(0, period, 6) for v in _WHEEL_UNITS if live[(u + v) % m]]
    count = top // period * len(units) + bisect.bisect_right(units, top % period)
    r = np.arange(0.0, top + 1, period)[:, None] + np.array(units, dtype=float)
    amp = r ** -sigma
    coef = table[[u % m for u in units]]
    # real products into the halves: a complex product would first cast
    # amp through numpy's 8,192-element buffers
    coef_r = np.empty(r.shape, dtype=complex)
    np.multiply(amp, coef.real, out=coef_r.real)
    np.multiply(amp, coef.imag, out=coef_r.imag)
    coef_r, r = coef_r.ravel()[:count], r.ravel()[:count]
    s = _SMOOTH[np.searchsorted(_SMOOTH, top, side="right") - 1::-1]
    if not (live[2 % m] and live[3 % m]):
        s = s[table[s % m] != 0]
    cut = np.searchsorted(r, top // s, side="right")  # the r <= floor(top / s)
    new = cut[1:] != cut[:-1]
    return _Wheel(np.log(r), coef_r, np.concatenate(([0], cut[:-1][new])),
                  np.concatenate(([0], np.cumsum(new))), -1j * np.log(s),
                  table[s % m] * s ** -sigma)


def wheel_sum(table, sigma: float, ts, top: int) -> np.ndarray:
    """sum_{1 <= k <= top} table[k mod m] k^{-s} at s = sigma + i t, for a
    completely multiplicative period-m table (a character, or the twist
    table of meanvalues), at each height of ts; top >= 1.

    Each k is 2^i 3^j r with gcd(r, 6) = 1, so the sum is
    sum_s table[s] s^{-s} R(floor(top / s)) over the 3-smooth s, with R(x)
    the sum of table[r] r^{-s} over the wheel's units r <= x.  The cuts
    floor(top / s) cut the r into segments; their pairwise sums
    (np.add.reduceat) and a running sum give R at every cut.  Only the r
    (a third of the k, fewer where table[r] = 0) and a few dozen s take
    a sin and a cos.  Each phase -t log r is reduced to [-pi, pi] first,
    phi - 2 pi rint(phi / 2 pi), where sin and cos run about 1.5x faster;
    the reduction moves it by at most one ulp of |t log r|.  Heights go
    _WHEEL_ROWS at a time through one complex block: the phases and their
    turns are formed in its halves, cos and sin overwrite them, and the
    products by table[r] r^-sigma are taken in place, so the block holds
    16 _WHEEL_ROWS bytes per r beside the tables' 24.  Each height's sum
    is the bits of that height alone.
    """
    ts = np.asarray(ts, dtype=float)
    wheel = _wheel(np.asarray(table), sigma, top)
    out = np.empty(len(ts), dtype=complex)
    terms = np.empty((min(len(ts), _WHEEL_ROWS), len(wheel.log_r)), dtype=complex)
    # the phases go into the cos half, their turns into the sin half
    cos_sin = terms.view(float).reshape(terms.shape + (2,)).transpose(2, 0, 1)
    for lo in range(0, len(ts), _WHEEL_ROWS):
        block = ts[lo:lo + _WHEEL_ROWS]
        rows = len(block)
        phi, turns = cos_sin[0, :rows], cos_sin[1, :rows]
        # one call per row where a call per block would broadcast a row of
        # the tables, which numpy does through a buffer as large as terms
        for row, neg_t in zip(phi, (0.0 - block).tolist()):
            np.multiply(wheel.log_r, neg_t, out=row)
        np.multiply(phi, 1.0 / _TWO_PI, out=turns)
        np.rint(turns, out=turns)
        np.multiply(turns, _TWO_PI, out=turns)
        np.subtract(phi, turns, out=phi)
        np.sin(phi, out=turns)
        np.cos(phi, out=phi)
        for row in terms[:rows]:
            np.multiply(row, wheel.coef_r, out=row)
        cuts = np.add.accumulate(np.add.reduceat(terms[:rows], wheel.starts, axis=1),
                                 axis=1)
        smooth = wheel.coef_s * np.exp(block[:, None] * wheel.ilog_s)
        np.add.reduce(smooth * cuts[:, wheel.segment], axis=1, out=out[lo:lo + rows])
    return out


def l_via_hurwitz(table, sigma: float, ts, tol: float) -> tuple[np.ndarray, float]:
    """m^{-s} sum_a table[a] zeta(s, a/m) at s = sigma + i t for a batch
    of heights and a completely multiplicative period-m table (the
    characters, meanvalues' twist table), with a certified bound.

    N is the kernel's own, _hurwitz_terms at the batch's largest |t|.
    The main sums m^{-s} sum_a table[a] sum_{n<N} (n + a/m)^{-s} are one
    Dirichlet sum, sum_{1 <= k < mN} table[k mod m] k^{-s}, formed over
    the mod-6 wheel (wheel_sum).  Each nonzero shift a/m keeps its own
    Euler-Maclaurin tail and its bound formula term for term (specfun
    _em_tail): Backlund truncation, 4x the rounding allowance, and eps
    times the worst of its tail's rounding weight plus 3 |value|, where
    the value is now the L-value.  The wheel's per-term phase error is
    fl(t log r) plus at most one ulp of |t log r| from its range
    reduction, and the smooth factor's fl(t log s): within the
    allowance's per-term model of |t| log n eps with its factor-4 margin.
    A single height (l_oracle, the constants at t = 0) takes the
    kernel's per-shift main sums instead, _hurwitz_critical_batch: the
    wheel's tables cost a few dozen numpy calls, more than they save on
    one pass.  The shifts' rows (their tails alone on the wheel) are added
    in shift order, and the bounds summed and scaled by m^{-sigma}.
    """
    ts = np.asarray(ts, dtype=float)
    table = np.asarray(table)
    m = len(table)
    nonzero = np.flatnonzero(table[1:]) + 1
    if len(ts) == 1:
        rows, bounds = _hurwitz_critical_batch(ts, nonzero / m, tol, sigma)
    else:
        tmax = float(np.maximum.reduce(np.abs(ts)))
        backlund = _backlund_orders(tmax, sigma)
        n_terms = _hurwitz_terms(tmax, sigma, tol, backlund)
        rows = np.zeros((len(nonzero), len(ts)), dtype=complex)
        bounds, sizes = _em_tail(ts, nonzero / m, tol, sigma, n_terms, backlund, rows)
    total = np.zeros(len(ts), dtype=complex)
    for a, row in zip(nonzero.tolist(), rows):
        total += table[a] * row
    values = np.exp(-(sigma + 1j * ts) * math.log(m)) * total
    if len(ts) > 1:
        values += wheel_sum(table, sigma, ts, m * n_terms - 1)
        bounds += _EPS * np.maximum.reduce(sizes + 3.0 * np.abs(values), axis=1)
    bound = 0.0
    for b in bounds.tolist():
        bound += b
    return values, m ** -sigma * bound


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _oracle_batch(chi: DirichletCharacter, sigma: float, ts) -> tuple[np.ndarray, float]:
    """The oracle contract: L(sigma + i t, chi) over a batch of heights in
    blocks of _ORACLE_BLOCK, with the worst bound of its blocks.  numpy
    releases the GIL in the kernel's rows, so the blocks run on one thread
    per CPU; they land in block order, the same bits on any number of CPUs."""
    _check_non_principal(chi)
    if not math.isfinite(sigma):
        raise DomainTooSmall(f"l_oracle needs a finite real part, got {sigma}")
    ts = np.asarray(ts, dtype=float)
    if len(ts) == 0:
        return np.empty(0, dtype=complex), 0.0
    tmax = float(np.max(np.abs(ts)))
    if not tmax <= 1e4:  # nan fails the comparison
        raise HeightExceeded(f"oracle supports |t| <= 1e4, got {tmax}")
    table = chi.value_table()

    def block(lo: int) -> tuple[np.ndarray, float]:
        values, bound = l_via_hurwitz(table, sigma, ts[lo:lo + _ORACLE_BLOCK],
                                      ORACLE_TOL)
        bound += 8.0 * float(np.max(np.abs(values))) * 2.2e-16 + 1e-12
        if bound > 1e-9:
            raise AccuracyLoss(f"oracle bound {bound:.2e} exceeds 1e-9 at "
                               f"sigma={sigma}, |t| <= {tmax}")
        return values, bound

    starts = range(0, len(ts), _ORACLE_BLOCK)
    if len(starts) == 1:
        return block(0)
    # imported here: at module level it costs every run start-up time
    from concurrent.futures import ThreadPoolExecutor

    out = np.empty(len(ts), dtype=complex)
    worst = 0.0
    with ThreadPoolExecutor(max_workers=min(_cpu_count(), len(starts))) as pool:
        for lo, (values, bound) in zip(starts, pool.map(block, starts)):
            out[lo:lo + len(values)] = values
            worst = max(worst, bound)
    return out, worst


def l_oracle(s, chi: DirichletCharacter) -> LValue:
    """High-accuracy independent evaluation via Hurwitz zeta: the oracle
    contract on a batch of one height."""
    s = complex(s)
    if s == 1 and not chi.is_principal:
        # the Hurwitz poles cancel against sum chi(a) = 0, leaving the
        # digamma formula L(1, chi) = -(1/q) sum_a chi(a) psi(a/q)
        q = chi.modulus
        value = -sum(chi(a) * _digamma_real(a / q) for a in range(1, q)) / q
        return LValue(value, 1e-12, "oracle")
    values, bound = _oracle_batch(chi, s.real, [s.imag])
    return LValue(complex(values[0]), bound, "oracle")


def l_oracle_critical_batch(ts, chi: DirichletCharacter) -> tuple[np.ndarray, float]:
    """Oracle values L(1/2 + i t, chi) for a batch of heights: the l_oracle
    contract at sigma = 1/2.  Returns (values, worst bound)."""
    return _oracle_batch(chi, 0.5, ts)
