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
    """Compensated complex sum; real and imaginary parts tracked separately."""
    tr = cr = ti = ci = 0.0
    for v in values:
        x = v.real
        t = tr + x
        if abs(tr) >= abs(x):
            cr += (tr - t) + x
        else:
            cr += (x - t) + tr
        tr = t
        y = v.imag
        t = ti + y
        if abs(ti) >= abs(y):
            ci += (ti - t) + y
        else:
            ci += (y - t) + ti
        ti = t
    return complex(tr + cr, ti + ci)

