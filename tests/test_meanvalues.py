import math

import numpy as np
import pytest

from lpairs.characters import character
from lpairs.errors import CutoffTooSmall, PreconditionError
from lpairs.meanvalues import (
    CoefficientSeries,
    RootSum,
    ThmOneEvaluator,
    a1_gamma,
    build_b_polynomial,
    chi_root,
    predicted_constant,
    series_d,
    series_e,
    thm1_report,
)

GAMMA_1 = 14.134725141734693790


@pytest.fixture(scope="module")
def bpoly(chi3, chi5):
    return build_b_polynomial(5, chi3, chi5)


class TestRootSum:
    def test_ring_axioms(self):
        a = RootSum.root(8, 3)
        b = RootSum.root(8, 7)
        assert a * b == RootSum.root(8, 2)
        assert (a + b) - b == a
        assert a * RootSum.one(8) == a
        assert (a - a).is_zero

    def test_conjugation(self):
        a = RootSum.root(12, 5) + RootSum.root(12, 2)
        c = a.conjugate()
        assert abs(c.to_complex() - a.to_complex().conjugate()) < 1e-15

    def test_embedding(self):
        z = RootSum.root(8, 1).to_complex()
        assert abs(z - complex(math.cos(math.pi / 4), math.sin(math.pi / 4))) < 1e-15

    def test_chi_root_matches_character(self, chi5):
        order = 8
        for n in range(1, 12):
            got = chi_root(chi5, n, order).to_complex()
            assert abs(got - chi5(n)) < 1e-15


class TestBPolynomial:
    def test_cutoff_too_small(self, chi3, chi5):
        with pytest.raises(CutoffTooSmall):
            build_b_polynomial(3, chi3, chi5)

    def test_cutoff_must_be_prime(self, chi3, chi5):
        with pytest.raises(CutoffTooSmall):
            build_b_polynomial(6, chi3, chi5)

    def test_same_modulus_rejected(self, chi5):
        with pytest.raises(PreconditionError):
            build_b_polynomial(5, chi5, character(5, 1))

    def test_support_and_unit_coefficient(self, bpoly):
        assert bpoly.support_bound == 900  # (2*3*5)^2
        assert bpoly.coefficient(1) == RootSum.one(bpoly.order)
        assert all(900 % n == 0 or n <= 900 for n in bpoly.coeffs)
        assert max(bpoly.coeffs) <= 900
        # support divides R = (prod p)^2
        for n in bpoly.coeffs:
            assert 900 % n == 0

    def test_cubes_vanish(self, bpoly):
        for p in (2, 3, 5):
            assert bpoly.coefficient(p ** 3).is_zero

    def test_coefficient_magnitude_bound(self, bpoly):
        bound = 2.0 ** bpoly.cutoff
        for n, c in bpoly.coeffs.items():
            assert abs(c.to_complex()) <= bound + 1e-12

    def test_evaluate_matches_direct_product(self, bpoly, chi3, chi5):
        s = complex(0.75, 33.0)
        direct = 1 + 0j
        for p in (2, 3, 5):
            direct *= (1 - chi3(p) * p ** -s) * (1 - chi5(p) * p ** -s)
        assert abs(bpoly.evaluate(s) - direct) < 1e-12


class TestCoefficients:
    def test_d1_is_one(self, bpoly):
        d = CoefficientSeries("d", bpoly)
        assert d.exact(1) == RootSum.one(bpoly.order)

    def test_d2_closed_form_value(self, bpoly, chi5):
        # d_2 = -chi2(2) = +1 for the quadratic character mod 5
        d = CoefficientSeries("d", bpoly)
        assert d.coeff(2) == 1
        e = CoefficientSeries("e", bpoly)
        assert e.coeff(2) == 1  # e_2 = -chi1(2) = +1

    def test_d4_vanishes(self, bpoly):
        assert CoefficientSeries("d", bpoly).coeff(4) == 0

    def test_duality_small_range(self, bpoly):
        d = CoefficientSeries("d", bpoly)
        e = CoefficientSeries("e", bpoly)
        for n in range(1, 2001):
            assert d.convolution(n) == d.closed_form(n)
            assert e.convolution(n) == e.closed_form(n)

    def test_coefficients_bounded(self, bpoly):
        # |d_n| <= 2^P (h+1)^3 with h = #{primes < P}
        d = CoefficientSeries("d", bpoly)
        h = len([p for p in bpoly.primes if p < bpoly.cutoff])
        cap = 2.0 ** bpoly.cutoff * (h + 1) ** 3
        for n in range(1, 500):
            assert abs(d.coeff(n)) <= cap
            assert abs(d.coeff(n)) <= 1.0 + 1e-12  # closed form: root of unity or 0

    def test_truncated_equals_full_in_range(self, bpoly):
        d = CoefficientSeries("d", bpoly)
        for t in (100.0, 1000.0):
            cap = math.sqrt(15.0 * t / (2.0 * math.pi))
            for n in range(1, int(cap) + 1):
                assert d.truncated(n, t) == d.exact(n)

    def test_multiplicativity_of_closed_form(self, bpoly):
        d = CoefficientSeries("d", bpoly)
        for (m, n) in ((7, 11), (2, 7), (49, 11), (13, 4)):
            if math.gcd(m, n) == 1:
                assert d.closed_form(m * n) == d.closed_form(m) * d.closed_form(n)

    def test_mismatch_is_surfaced(self, bpoly, monkeypatch):
        from lpairs.errors import ClosedFormMismatch
        broken = CoefficientSeries("d", bpoly)
        monkeypatch.setattr(CoefficientSeries, "closed_form",
                            lambda self, n: RootSum.one(self.bpoly.order))
        with pytest.raises(ClosedFormMismatch):
            broken.exact(2)


class TestSeriesConstants:
    def test_dual_agreement_at_point_75(self, bpoly):
        d = series_d(bpoly, 0.75)
        assert abs(d.series_value - d.product_value) <= 1e-8
        assert d.bound < 1e-9

    def test_real_pair_structure(self, bpoly):
        # with two real characters both constants are real and related by
        # swapping which modulus is excluded from the finite product
        sigma = 0.75
        d = series_d(bpoly, sigma).value
        e = series_e(bpoly, sigma).value
        assert abs(d.imag) < 1e-9 and abs(e.imag) < 1e-9
        ratio = (1.0 - 5.0 ** -(2 * sigma)) / (1.0 - 3.0 ** -(2 * sigma))
        assert abs(e.real / d.real - ratio) < 1e-8

    def test_nonvanishing_difference(self, bpoly):
        c = predicted_constant(bpoly, 0.75)
        assert abs(c) > 1e-6

    def test_sigma_domain(self, bpoly):
        with pytest.raises(PreconditionError):
            series_d(bpoly, 0.4)


class TestStatistic:
    def test_a1_oracle_path_reproducible(self, bpoly):
        from lpairs.lfunc import l_oracle
        oracle = a1_gamma(GAMMA_1, 0.75, bpoly, method="oracle")
        assert abs(oracle) > 1e-6
        # recompute the statistic from its parts through the slow oracle
        s = complex(0.75, GAMMA_1)
        l1 = l_oracle(s, bpoly.chi1).value
        l2 = l_oracle(s, bpoly.chi2).value
        direct = bpoly.evaluate(s) * 2j * (l1 * l2.conjugate()).imag
        assert abs(oracle - direct) < 1e-8

    def test_a1_afe_within_certified_bounds(self, bpoly):
        ev = ThmOneEvaluator(bpoly, 0.75, 50.0)
        lv1, lv2 = ev.l_values(GAMMA_1)
        afe = a1_gamma(GAMMA_1, 0.75, bpoly)
        oracle = a1_gamma(GAMMA_1, 0.75, bpoly, method="oracle")
        budget = 2.0 * abs(ev.b_value(GAMMA_1)) * (
            lv1.bound * (abs(lv2.value) + lv2.bound) + abs(lv1.value) * lv2.bound)
        assert abs(afe - oracle) <= budget

    def test_evaluator_matches_standalone_afe(self, bpoly):
        # one AFE value (AfeWindows.value) behind both: the evaluator
        # reproduces l_afe at its window choices exactly
        from lpairs.lfunc import l_afe
        ev = ThmOneEvaluator(bpoly, 0.75, 200.0)
        for g in (14.2, 60.5, 199.0):
            lv1, lv2 = ev.l_values(g)
            s = complex(0.75, g)
            ref1 = l_afe(s, bpoly.chi1, ev.delta1)
            ref2 = l_afe(s, bpoly.chi2, ev.delta2)
            assert lv1.value == ref1.value
            assert lv2.value == ref2.value
            assert lv1.bound == ref1.bound
            assert lv2.bound == ref2.bound

    def test_chi2_window_short_and_within_its_bound(self, bpoly):
        # chi2 takes Delta = 1; the proof's Delta = sqrt(q) R summed ~98k
        # terms per zero at t = 5000 with a bound near 2.3e3
        from lpairs.lfunc import l_oracle
        ev = ThmOneEvaluator(bpoly, 0.75, 5000.0)
        for g in np.linspace(1000.0, 5000.0, 20):
            _, lv2 = ev.l_values(g)
            oracle = l_oracle(complex(0.75, g), bpoly.chi2)
            assert abs(lv2.value - oracle.value) <= lv2.bound
            assert lv2.bound < 100.0
            reach = ev._root2 * math.sqrt(g)
            terms = math.floor(ev.delta2 * reach) + math.floor(reach / ev.delta2)
            assert terms <= 2.0 * math.sqrt(5.0 * g / (2.0 * math.pi)) + 2.0

    def test_a1_inner_factor_purely_imaginary(self, bpoly):
        ev = ThmOneEvaluator(bpoly, 0.75, 50.0)
        lv1, lv2 = ev.l_values(GAMMA_1)
        inner = lv1.value * lv2.value.conjugate() - (lv1.value * lv2.value.conjugate()).conjugate()
        assert abs(inner.real) < 1e-15

    def test_a1_antisymmetric_under_swap(self, chi3, chi5):
        fwd = build_b_polynomial(5, chi3, chi5)
        rev = build_b_polynomial(5, chi5, chi3)
        a = a1_gamma(GAMMA_1, 0.75, fwd, method="oracle")
        b = a1_gamma(GAMMA_1, 0.75, rev, method="oracle")
        assert abs(a + b) < 1e-10  # B is symmetric, the inner factor flips

    def test_a1_requires_height(self, bpoly):
        with pytest.raises(PreconditionError):
            a1_gamma(5.0, 0.75, bpoly)


class TestReport:
    def test_report_structure(self, zeros100, chi3, chi5):
        rep = thm1_report(zeros100, 100.0, 0.75, chi3, chi5)
        assert rep.n_zeros == 29
        assert rep.sum_abs_a2 > 0
        assert 0 < rep.lower_bound_count <= rep.n_zeros
        assert rep.predicted_c.real != 0
        row = rep.csv_row()
        assert len(row.split(",")) == len(rep.CSV_HEADER.split(","))

    def test_report_deterministic_and_parallel_identical(self, zeros100, chi3, chi5):
        a = thm1_report(zeros100, 100.0, 0.75, chi3, chi5)
        b = thm1_report(zeros100, 100.0, 0.75, chi3, chi5)
        c = thm1_report(zeros100, 100.0, 0.75, chi3, chi5, parallel=True)
        assert a.csv_row() == b.csv_row() == c.csv_row()

    def test_report_audit_runs(self, zeros100, chi3, chi5):
        # audit_rate = 1 re-checks every height through the oracle
        rep = thm1_report(zeros100, 50.0, 0.75, chi3, chi5, audit_rate=1.0)
        assert rep.n_zeros == zeros100.count(50.0)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_report_audits_table_indices_across_chunks(self, zeros1000, chi3, chi5,
                                                       monkeypatch, parallel):
        # the 649 zeros below 1000 span two 512-height chunks; the audit
        # stride counts table indices, so rate 0.01 audits indices 0, 100,
        # ..., 600 (a stride counted within each chunk would audit 512 and
        # 612 instead of 600)
        audited = []
        audit = ThmOneEvaluator.audit

        def recording(ev, gamma):
            audited.append(gamma)
            audit(ev, gamma)

        monkeypatch.setattr(ThmOneEvaluator, "audit", recording)
        thm1_report(zeros1000, 1000.0, 0.75, chi3, chi5, audit_rate=0.01,
                    parallel=parallel)
        gammas = zeros1000.up_to(1000.0)
        assert len(gammas) == 649
        assert sorted(audited) == [float(g) for g in gammas[::100]]

    @pytest.mark.parametrize("rate", [3.0, -1.0, math.nan, math.inf])
    def test_report_rejects_out_of_range_audit_rate(self, zeros100, chi3, chi5, rate):
        # a rate outside [0, 1] used to switch the audits off silently
        with pytest.raises(PreconditionError):
            thm1_report(zeros100, 50.0, 0.75, chi3, chi5, audit_rate=rate)

    def test_report_on_empty_table_reports_zero_bound(self, tmp_path, chi3, chi5):
        # a vacuous zero set yields sum_abs_a2 = 0; the count bound is
        # reported as 0 rather than crashing on the division
        from lpairs.zeros import load_zeros
        path = tmp_path / "empty.txt"
        path.write_text("")
        rep = thm1_report(load_zeros(path), 50.0, 0.75, chi3, chi5)
        assert rep.n_zeros == 0
        assert rep.sum_abs_a2 == 0.0
        assert rep.lower_bound_count == 0.0
        assert rep.csv_row().startswith("50.0,0,")


class TestSeriesRoute:
    """The series route against the exact coefficient calculus.

    Cutoff 5 has coefficient period M = 900 <= N, so the route gathers a_n
    from one sieved period; cutoff 11 has M = 5,336,100, beyond one sieve
    chunk, so every chunk is sieved.  A complex chi2 (5:1) checks the
    imaginary parts as well.
    """

    @pytest.mark.parametrize("cutoff", [5, 11])
    @pytest.mark.parametrize("index", [2, 1])
    @pytest.mark.parametrize("kind", ["d", "e"])
    def test_matches_exact_coefficients(self, chi3, cutoff, index, kind):
        from lpairs.meanvalues import _series_route
        sigma, tol_tail = 0.75, 1e-3  # N = 2,097 at cutoff 5, 5,284 at cutoff 11
        series = CoefficientSeries(kind, build_b_polynomial(cutoff, chi3, character(5, index)))
        value, bound, n_terms = _series_route(series, sigma, tol_tail)
        assert 900 <= n_terms <= 6000
        reference = sum(series.exact(n).to_complex() * series.other(n).conjugate()
                        * n ** (-2.0 * sigma) for n in range(1, n_terms + 1))
        assert abs(value - reference) < 1e-12
        assert bound < 1.01 * tol_tail
