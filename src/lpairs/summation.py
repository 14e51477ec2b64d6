"""Compensated summation helpers.

All long reductions in the workbench go through these routines so that
results are deterministic and reproducible: Neumaier (improved Kahan)
accumulation in a fixed order gives bit-identical sums on every rerun.
"""

from __future__ import annotations


def neumaier_sum(values) -> float:
    """Compensated sum of an iterable of floats, in iteration order."""
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def neumaier_sum_complex(values) -> complex:
    """Compensated complex sum: neumaier_sum over the real parts, then over
    the imaginary parts, of any iterable (a generator is read once)."""
    values = list(values)
    return complex(neumaier_sum(v.real for v in values),
                   neumaier_sum(v.imag for v in values))
