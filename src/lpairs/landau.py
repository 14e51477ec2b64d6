"""The Gonek-Landau discrete explicit formula over the zero table.

For x > 1 the zero sum sum_{0<gamma<=T} x^rho picks up a main term
-(T/2pi) Lambda(x) exactly when x is a prime power, with error terms

    x log(2xT) loglog(3x)  +  log x * min(T, x/<x>)  +  log 2T * min(T, 1/log x),

where <x> is the distance from x to the nearest prime power other than
x itself.  Sample points x are exact rationals so that Lambda(x) and
<x> never suffer float misclassification; only the final x^{1/2}
e^{i gamma log x}, the one-term Dirichlet polynomial x^s at rho that
lfunc.dirichlet_values evaluates, is floating point.  The order-bound
constants are unknowable from the asymptotic statement; the budget
fixes them all at 1 and the test suite applies a slack factor of 5.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError
from .lfunc import dirichlet_values
from .primes import prime_power
from .summation import neumaier_sum_complex
from .zeros import ZeroTable


def rational_point(value) -> Fraction:
    """Normalise a sample point to an exact Fraction > 1.

    Accepts Fraction, int, or a string like "15/2"; a zero denominator
    or a point without a finite float value is a PreconditionError.
    """
    try:
        x = Fraction(value)
        float(x)  # the zero sum takes x^{1/2} in floating point
    except ZeroDivisionError:
        raise PreconditionError(f"sample point has a zero denominator: {value!r}") from None
    except (OverflowError, ValueError) as exc:
        raise PreconditionError(f"sample point {value!r} is not a finite number: {exc}") from None
    if x <= 1:
        raise PreconditionError(f"sample point must exceed 1, got {x}")
    return x


def von_mangoldt(x) -> float:
    """Lambda(x): log p on integer prime powers p^k, zero elsewhere.

    The function is extended to the rationals by 0 off the integers;
    detection is exact integer arithmetic.
    """
    x = Fraction(x)
    if x.denominator != 1:
        return 0.0
    pp = prime_power(x.numerator)
    return math.log(pp[0]) if pp else 0.0


def nearest_pp_distance(x) -> Fraction:
    """<x>: exact distance to the nearest prime power p^k != x.

    Scans the integers outward from x, testing each with the exact
    prime_power, and stops at the first prime power above x and at the
    first one below it that is nearer.  Bertrand's postulate puts a
    prime in (m, 2m) for m = floor(x) + 1 >= 2, so the upward scan ends
    within m steps; in practice it ends after a prime gap, O(log^2 x)
    integers.
    """
    x = rational_point(x)
    above = math.floor(x) + 1
    while prime_power(above) is None:
        above += 1
    best = above - x
    below = math.ceil(x) - 1
    while below >= 2 and x - below < best:
        if prime_power(below) is not None:
            return x - below
        below -= 1
    return best


def landau_zero_sum(x, zeros: ZeroTable, t: float) -> complex:
    """sum_{0 < gamma <= T} x^{1/2} e^{i gamma log x} (RH form of rho):
    lfunc.dirichlet_values of the one-term polynomial x^s, summed with
    compensation in ascending-gamma order; empty below the first zero.
    """
    x = rational_point(x)
    log_x = math.log(x.numerator) - math.log(x.denominator)
    return neumaier_sum_complex(dirichlet_values(
        [-log_x], [math.sqrt(float(x))], zeros.up_to(t)).tolist())


def landau_main_term(x, t: float) -> float:
    """-(T/2pi) Lambda(x), the prime-power main term."""
    return -(t / (2.0 * math.pi)) * von_mangoldt(x)


def landau_error_budgets(x, ts) -> list[float]:
    """Sum of the three error expressions with all implied constants 1, at
    each height T of ts; <x> is found once for them all."""
    x = rational_point(x)
    for t in ts:
        if not 1.0 < t < math.inf:  # nan fails the comparison
            raise PreconditionError(f"error budget needs 1 < T < inf, got {t}")
    xf = float(x)
    log_x = math.log(xf)
    x_over_gap = float(x / nearest_pp_distance(x))
    return [xf * math.log(2.0 * xf * t) * math.log(math.log(3.0 * xf))
            + log_x * min(t, x_over_gap) + math.log(2.0 * t) * min(t, 1.0 / log_x)
            for t in ts]
