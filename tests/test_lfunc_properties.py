"""Symmetries of L(s, chi) as properties over characters and heights.

chi runs over the non-principal characters mod 3, 5 and 7, sigma over
[0.05, 0.95] and t over [10, 1e4].  The oracle declines to certify some
low-sigma, high-t points (the rounding allowance of its power sums passes
1e-9 there and it raises AccuracyLoss); those draws are rejected, not
compared.

The batched Hurwitz route l_via_hurwitz is checked against l_oracle off
the critical line: its truncation N comes from the top height of the
batch, so every lower height shares a longer main sum than its own.

Exact multiplicativity is checked in integers: the discrete logs of the
characters add, the mollified coefficients d_n and e_n are multiplicative
over coprime arguments, and a RootSum is zero exactly when its complex
value is.
"""

import functools
import math

import pytest

from lpairs.characters import character
from lpairs.errors import AccuracyLoss
from lpairs.lfunc import l_afe, l_oracle, l_via_hurwitz
from lpairs.meanvalues import CoefficientSeries, RootSum, build_b_polynomial
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


@hypothesis.given(chi=st.sampled_from([character(q, j) for q in (3, 5, 7)
                                       for j in range(q - 1)]),
                  m=st.integers(1, 10 ** 6), n=st.integers(1, 10 ** 6))
def test_character_log_is_additive(chi, m, n):
    # chi(mn) = chi(m) chi(n) as exponents mod q - 1, and 0 exactly when q | mn
    q = chi.modulus
    log_mn = chi.log(m * n)
    assert (log_mn is None) == (m * n % q == 0)
    if log_mn is not None:
        assert log_mn == (chi.log(m) + chi.log(n)) % (q - 1)


# (chi1, chi2, P): distinct moduli, both at most the mollifier cutoff P
MOLLIFIED = [(chi1, chi2, cutoff) for chi1 in CHARACTERS for chi2 in CHARACTERS
             for cutoff in (5, 7)
             if chi1.modulus != chi2.modulus
             and max(chi1.modulus, chi2.modulus) <= cutoff]


@functools.cache
def _series(chi1, chi2, cutoff, kind):
    return CoefficientSeries(kind, build_b_polynomial(cutoff, chi1, chi2))


@hypothesis.given(setup=st.sampled_from(MOLLIFIED), kind=st.sampled_from("de"),
                  m=st.integers(1, 3000), n=st.integers(1, 3000))
@hypothesis.example(setup=(character(3, 1), character(5, 2), 7), kind="d", m=7, n=4)
def test_coefficients_multiplicative(setup, kind, m, n):
    # d_mn = d_m d_n (and e likewise) for coprime m, n, and the
    # convolution over B's support equals the closed form
    hypothesis.assume(math.gcd(m, n) == 1)
    series = _series(*setup, kind)
    assert series.convolution(m * n) == series.closed_form(m * n)
    assert series.exact(m * n) == series.exact(m) * series.exact(n)


@st.composite
def root_sums(draw):
    """(order, terms): an integer combination of order-th roots of unity,
    plus a multiple of a vanishing sum of the p-th roots, p | order."""
    order = draw(st.sampled_from((2, 4, 6, 12)))
    terms = draw(st.dictionaries(st.integers(0, order - 1), st.integers(-3, 3),
                                 max_size=4))
    p = draw(st.sampled_from([p for p in (2, 3) if order % p == 0]))
    shift = draw(st.integers(0, order - 1))
    times = draw(st.integers(-2, 2))
    for j in range(p):
        k = (shift + j * order // p) % order
        terms[k] = terms.get(k, 0) + times
    return order, terms


@hypothesis.given(combo=root_sums())
@hypothesis.example(combo=(12, {0: 1, 4: 1, 8: 1}))
@hypothesis.example(combo=(4, {0: 1, 2: 1}))
def test_root_sum_zero_exactly_when_value_is(combo):
    # a nonzero element of Z[zeta_12] with coefficients this small has
    # modulus far above 1e-9
    r = RootSum(*combo)
    assert r.is_zero == (abs(r.to_complex()) < 1e-9)
