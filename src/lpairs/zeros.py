"""Ordered Riemann-zero ordinates: file ingestion and direct computation.

Zeros are located as sign changes of Hardy's Z on an adaptive grid and
refined by bisection.  Z comes from specfun._hardy_z_batch: Riemann-
Siegel with a certified remainder from t = 200, Euler-Maclaurin below
that and wherever |Z| is too small for the Riemann-Siegel certificate to
fix its sign.  The engine reads only signs, and each sign is the one
Euler-Maclaurin gives, so the grid, the bisection and the gap audit
decide exactly as an Euler-Maclaurin-only engine would.

Completeness is certified by the Riemann-von Mangoldt count (not
Turing's method -- at desk heights the RvM band with slack
2 + 0.5 log T is empirically sufficient and far simpler).  All
downstream sums only need a complete ordered list.

Ordinate precision target is 1e-9: downstream terms x^{i gamma} with
x <= 1e4 amplify ordinate error by log x <= 10, keeping phase error
below 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CountInconsistent,
    MissedZero,
    NonMonotonic,
    ParseError,
    PreconditionError,
    RangeExceeded,
)
from .specfun import _hardy_z_batch

_FIRST_ZERO_FLOOR = 10.0  # every nontrivial zero has gamma > 14.13
_BISECTION_STEPS = 30     # bracket width 0.5 / 2^30 < 5e-10


def rvm_estimate(t: float) -> float:
    """Riemann-von Mangoldt main term (T/2pi) log(T/2pi) - T/2pi + 7/8."""
    x = t / (2.0 * math.pi)
    return x * math.log(x) - x + 0.875


def rvm_band(t: float) -> float:
    """Allowed |N(T) - estimate| slack: 2 + 0.5 log T."""
    return 2.0 + 0.5 * math.log(t)


@dataclass(frozen=True)
class ZeroTable:
    """Ascending positive ordinates with provenance and claimed precision."""

    ordinates: np.ndarray
    source: str              # "file" or "computed"
    precision: float
    t_max: float             # height up to which the table is complete

    def __len__(self) -> int:
        return len(self.ordinates)

    def count(self, t: float) -> int:
        """N(t): number of ordinates <= t.  Monotone in t."""
        if t > self.t_max:
            raise RangeExceeded(
                f"N({t}) requested but table only covers heights <= {self.t_max}")
        return int(np.searchsorted(self.ordinates, t, side="right"))

    def up_to(self, t: float) -> np.ndarray:
        if t > self.t_max:
            raise RangeExceeded(
                f"zeros up to {t} requested but table covers <= {self.t_max}")
        return self.ordinates[: self.count(t)]

    def save(self, path) -> None:
        """One repr-rounded ordinate per line; round-trips exactly."""
        with open(path, "w", encoding="utf-8") as fh:
            for g in self.ordinates:
                fh.write(f"{float(g)!r}\n")


def _validate_ordinates(gammas: np.ndarray, context: str,
                        precision: float = 1e-9) -> None:
    if len(gammas) == 0:
        return
    if np.any(gammas[:-1] >= gammas[1:]):
        k = int(np.argmax(gammas[:-1] >= gammas[1:]))
        raise NonMonotonic(
            f"{context}: ordinates not strictly ascending near entry {k + 1} "
            f"({gammas[k]!r} then {gammas[k + 1]!r})")
    if len(gammas) > 1 and float(np.min(np.diff(gammas))) <= precision:
        k = int(np.argmin(np.diff(gammas)))
        raise NonMonotonic(
            f"{context}: entries {k + 1} and {k + 2} coincide within the "
            f"claimed precision {precision:g}")
    if gammas[0] <= _FIRST_ZERO_FLOOR:
        raise CountInconsistent(
            f"{context}: first ordinate {gammas[0]!r} <= {_FIRST_ZERO_FLOOR} "
            "(first Riemann zero is near 14.13)")
    # RvM count check at every ordinate: the k-th zero must sit where
    # N(gamma_k) = k is inside the band.
    ks = np.arange(1, len(gammas) + 1, dtype=float)
    x = gammas / (2.0 * math.pi)
    est = x * np.log(x) - x + 0.875
    band = 2.0 + 0.5 * np.log(gammas)
    bad = np.abs(ks - est) > band
    if np.any(bad):
        k = int(np.argmax(bad))
        raise CountInconsistent(
            f"{context}: zero #{k + 1} at {gammas[k]!r} violates the "
            f"Riemann-von Mangoldt count band (expected ~{est[k]:.2f})")


def _rvm_coverage(gammas: np.ndarray) -> float:
    """Largest height a file table provably covers.

    A file ends at its last ordinate, but the absence of further entries
    is consistent with completeness up to the height where the RvM
    count would drift out of its band; e.g. a table of the 29 zeros
    below 100 is usable for N(T) queries slightly past its last entry
    at 98.83.  Found by bisection (the band edge is monotone).
    """
    last = float(gammas[-1])
    n = len(gammas)
    lo, hi = last, 4.0 * last + 100.0
    if rvm_estimate(hi) - rvm_band(hi) <= n:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if rvm_estimate(mid) - rvm_band(mid) <= n:
            lo = mid
        else:
            hi = mid
    return lo


def load_zeros(path, precision: float = 1e-9) -> ZeroTable:
    """Parse a whitespace-separated ordinate file ('#' comments allowed).

    Accepts the common public zero-table dumps unmodified; a token that
    is not a finite number (including nan and inf) is a ParseError with
    its line number.  The parsed table is validated: strictly ascending, all entries above the first-
    zero floor, and the RvM count band holds at every ordinate.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            for token in body.split():
                try:
                    value = float(token)
                except ValueError:
                    raise ParseError(f"bad ordinate {token!r}", line=lineno)
                if not math.isfinite(value):
                    raise ParseError(f"non-finite ordinate {token!r}", line=lineno)
                values.append(value)
    gammas = np.asarray(values, dtype=float)
    _validate_ordinates(gammas, str(path), precision)
    # an empty file is a valid (vacuous) table: N(T) = 0 for every T
    t_max = _rvm_coverage(gammas) if len(gammas) else math.inf
    return ZeroTable(ordinates=gammas, source="file", precision=precision,
                     t_max=t_max)


def _scan_windows(t_max: float, density: float):
    """Deterministic scan windows [lo, hi) with per-window grid step.

    Step is the local mean zero gap 2pi/log(t/2pi) divided by `density`,
    capped at 0.5 near the bottom of the range.
    """
    edges = list(np.arange(_FIRST_ZERO_FLOOR, t_max, 250.0)) + [t_max]
    for lo, hi in zip(edges[:-1], edges[1:]):
        mean_gap = 2.0 * math.pi / math.log(hi / (2.0 * math.pi))
        step = min(0.5, mean_gap / density)
        n_pts = int(math.ceil((hi - lo) / step)) + 1
        yield np.linspace(lo, hi, n_pts)


def _refine_brackets(lo: np.ndarray, hi: np.ndarray, z_lo: np.ndarray) -> np.ndarray:
    """Lockstep bisection of sign-change brackets down to ~5e-10."""
    lo = lo.copy()
    hi = hi.copy()
    sign_lo = np.sign(z_lo)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        z_mid = _hardy_z_batch(mid)
        left = np.sign(z_mid) == sign_lo
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def _merge_found(parts: list[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=float)
    gammas = np.concatenate(parts)
    gammas.sort()
    # windows share endpoints; drop any duplicate root found twice
    if len(gammas) > 1:
        keep = np.concatenate(([True], np.diff(gammas) > 1e-6))
        gammas = gammas[keep]
    return gammas


def _sign_changes(grid: np.ndarray) -> np.ndarray:
    """Refined zeros at the sign flips of Z on one grid (none: no refinement)."""
    z = _hardy_z_batch(grid)
    flips = np.nonzero(z[:-1] * z[1:] < 0.0)[0]
    if len(flips) == 0:
        return np.empty(0, dtype=float)
    return _refine_brackets(grid[flips], grid[flips + 1], z[flips])


def _scan_interval(lo: float, hi: float, step: float) -> np.ndarray:
    n_pts = int(math.ceil((hi - lo) / step)) + 1
    return _sign_changes(np.linspace(lo, hi, max(n_pts, 3)))


def _scan_once(t_max: float, density: float) -> np.ndarray:
    return _merge_found([_sign_changes(grid) for grid in _scan_windows(t_max, density)])


def _mean_gap(t: float) -> float:
    return 2.0 * math.pi / math.log(max(t, 15.0) / (2.0 * math.pi))


def _gap_audit(gammas: np.ndarray, t_max: float) -> np.ndarray:
    """Rescan suspiciously wide gaps at high density.

    A close pair hiding inside one scan step (the Lehmer-pair
    phenomenon, e.g. the 0.038-wide pair near t = 7005) leaves a gap of
    about two mean spacings between the zeros that were found; every
    gap above 1.45 mean spacings is re-swept on a much finer grid until
    the picture is stable.
    """
    fineness = 64.0
    for _ in range(3):
        edges = np.concatenate(([_FIRST_ZERO_FLOOR], gammas, [t_max]))
        new_parts = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo <= 1.45 * _mean_gap(hi):
                continue
            pad = 1e-6
            found = _scan_interval(lo + pad, hi - pad, _mean_gap(hi) / fineness)
            if len(found):
                new_parts.append(found)
        if not new_parts:
            return gammas
        gammas = _merge_found([gammas] + new_parts)
        fineness *= 4.0
    return gammas


def compute_zeros(t_max: float, density: float = 12.0) -> ZeroTable:
    """All zeros with gamma <= t_max, bisection-refined to 1e-9.

    Completeness is certified in two layers: wide-gap rescans (which
    catch close pairs that slip between grid points) and the RvM count
    invariant.  A table that still fails the count check raises
    MissedZero.
    """
    if not 15.0 <= t_max <= 1e4:
        raise PreconditionError(f"compute_zeros needs 15 <= T <= 1e4, got {t_max}")
    gammas = _gap_audit(_scan_once(t_max, density), t_max)
    try:
        _validate_ordinates(gammas, "computed table")
    except (NonMonotonic, CountInconsistent):
        gammas = _gap_audit(_scan_once(t_max, 4.0 * density), t_max)
        try:
            _validate_ordinates(gammas, "computed table (rescanned)")
        except (NonMonotonic, CountInconsistent) as exc:
            raise MissedZero(f"zero scan failed its count certificate: {exc}")
    return ZeroTable(ordinates=gammas, source="computed", precision=1e-9,
                     t_max=float(t_max))
