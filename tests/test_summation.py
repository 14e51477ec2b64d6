"""The compensated sums and the array form of the Riemann-von Mangoldt count.

neumaier_sum_complex is neumaier_sum over the real parts and then over the
imaginary parts, so the two must agree bit for bit, also when the input is
a generator that can be read only once.  neumaier_sum itself is checked
against math.fsum, the correctly rounded sum.
"""

import math

import numpy as np
import pytest

from lpairs.summation import neumaier_sum, neumaier_sum_complex
from lpairs.zeros import rvm_band, rvm_estimate

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

EPS = 2.0 ** -52
finite = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)


@hypothesis.given(st.lists(complexes, max_size=40))
def test_complex_sum_is_the_sum_of_each_part(values):
    expected = complex(neumaier_sum([v.real for v in values]),
                       neumaier_sum([v.imag for v in values]))
    got = neumaier_sum_complex(values)
    one_shot = neumaier_sum_complex(v for v in values)
    for z in (got, one_shot):
        assert (z.real, z.imag) == (expected.real, expected.imag)


@hypothesis.given(st.lists(finite, max_size=40))
def test_real_sum_is_within_a_few_ulp_of_fsum(values):
    scale = math.fsum(abs(v) for v in values)
    assert abs(neumaier_sum(values) - math.fsum(values)) <= 4.0 * EPS * scale


def test_empty_sums_are_zero():
    assert neumaier_sum([]) == 0.0
    assert neumaier_sum_complex(iter(())) == 0j


def test_rvm_count_on_an_array_matches_the_scalar_calls():
    heights = np.linspace(15.0, 1e4, 2001)
    for f in (rvm_estimate, rvm_band):
        scalars = np.array([f(float(t)) for t in heights])
        assert np.all(np.abs(f(heights) - scalars) <= np.spacing(np.abs(scalars)))
