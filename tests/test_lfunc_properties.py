"""Symmetries of L(s, chi) as properties over characters and heights.

chi runs over the non-principal characters mod 3, 5 and 7, sigma over
[0.05, 0.95] and t over [10, 1e4].  The oracle declines to certify some
low-sigma, high-t points (the rounding allowance of its power sums passes
1e-9 there and it raises AccuracyLoss); those draws are rejected, not
compared.

The batched Hurwitz route l_via_hurwitz is checked against l_oracle off
the critical line: its truncation N comes from the top height of the
batch, so every lower height shares a longer main sum than its own.
"""

import pytest

from lpairs.characters import character
from lpairs.errors import AccuracyLoss
from lpairs.lfunc import l_afe, l_oracle, l_via_hurwitz
from lpairs.specfun import x_factor

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

CHARACTERS = [character(q, j) for q in (3, 5, 7) for j in range(1, q - 1)]
chars = st.sampled_from(CHARACTERS)
sigmas = st.floats(0.05, 0.95)
heights = st.floats(10.0, 1e4)
batches = st.lists(heights, min_size=2, max_size=8, unique=True).map(sorted)


def _oracle(s, chi):
    try:
        return l_oracle(s, chi)
    except AccuracyLoss:
        hypothesis.reject()


@hypothesis.given(chi=chars, sigma=sigmas, t=heights)
@hypothesis.example(chi=character(5, 2), sigma=0.7, t=77.0)
def test_conjugation_symmetry_both_evaluators(chi, sigma, t):
    # L(conj s, conj chi) = conj L(s, chi)
    s = complex(sigma, t)
    orc = _oracle(s, chi)
    orc_conj = _oracle(s.conjugate(), chi.conjugate())
    assert abs(orc_conj.value - orc.value.conjugate()) <= orc.bound + orc_conj.bound
    afe = l_afe(s, chi)
    afe_conj = l_afe(s.conjugate(), chi.conjugate())
    assert abs(afe_conj.value - afe.value.conjugate()) < 1e-12


@hypothesis.given(chi=chars, sigma=sigmas, t=heights)
@hypothesis.example(chi=character(5, 1), sigma=0.6, t=50.0)
@hypothesis.example(chi=character(5, 2), sigma=0.6, t=50.0)
@hypothesis.example(chi=character(5, 3), sigma=0.6, t=50.0)
def test_functional_equation_through_x_factor(chi, sigma, t):
    # L(s, chi) = X(s, chi) L(1 - s, conj chi)
    s = complex(sigma, t)
    lhs = _oracle(s, chi)
    dual = _oracle(1.0 - s, chi.conjugate())
    x = x_factor(s, chi)
    assert abs(lhs.value - x * dual.value) <= lhs.bound + abs(x) * dual.bound


@hypothesis.given(chi=chars, sigma=st.floats(0.5, 0.95), ts=batches)
@hypothesis.example(chi=character(7, 3), sigma=0.8, ts=[12.0, 4000.0, 9999.0])
def test_batched_hurwitz_route_matches_scalar_oracle(chi, sigma, ts):
    try:
        values, bound = l_via_hurwitz(chi.value_table(), sigma, ts, 1e-11)
    except AccuracyLoss:
        hypothesis.reject()
    for t, value in zip(ts, values):
        ref = _oracle(complex(sigma, t), chi)
        assert abs(value - ref.value) <= bound + ref.bound
