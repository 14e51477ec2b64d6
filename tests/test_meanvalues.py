import math

import numpy as np
import pytest

from lpairs.characters import character, parse_character
from lpairs.errors import (
    CutoffTooSmall,
    OracleAuditFailure,
    PreconditionError,
    SeriesProductDisagreement,
)
from lpairs.meanvalues import (
    CoefficientSeries,
    RootSum,
    ThmOneEvaluator,
    build_b_polynomial,
    chi_root,
    predicted_constant,
    series_d,
    series_e,
    thm1_report,
    thm1_sweep,
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

    def test_vanishing_sums_are_zero(self):
        # 1 + zeta^2 = 0 at order 4 and 1 + zeta^4 + zeta^8 = 0 at order
        # 12: the form reduced modulo Phi_order is empty, so they equal zero
        for order, terms in ((4, {0: 1, 2: 1}), (12, {0: 1, 4: 1, 8: 1}),
                             (12, {1: 2, 7: 2})):
            r = RootSum(order, terms)
            assert r.is_zero
            assert r == RootSum.zero(order)
            assert hash(r) == hash(RootSum.zero(order))
        assert RootSum(4, {2: 1}) == -RootSum.one(4)
        assert RootSum(12, {4: 1}) + RootSum(12, {8: 1}) == -RootSum.one(12)

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
        assert bpoly.coeffs[1] == RootSum.one(bpoly.order)
        assert all(900 % n == 0 or n <= 900 for n in bpoly.coeffs)
        assert max(bpoly.coeffs) <= 900
        # support divides R = (prod p)^2
        for n in bpoly.coeffs:
            assert 900 % n == 0

    def test_cubes_vanish(self, bpoly):
        # the support holds only nonzero coefficients: a missing key is zero
        for p in (2, 3, 5):
            assert p ** 3 not in bpoly.coeffs

    def test_support_holds_only_nonzero_coefficients(self, chi3, chi5):
        # at P = 7, c_7 = -(chi1(7) + chi2(7)) = -(1 - 1) and 11 more
        # coefficients cancel exactly; 24 of the 36 products remain
        b7 = build_b_polynomial(7, chi3, chi5)
        assert 7 not in b7.coeffs
        assert len(b7.coeffs) == 24
        assert all(abs(c.to_complex()) > 0.5 for c in b7.coeffs.values())

    def test_coefficient_magnitude_bound(self, bpoly):
        bound = 2.0 ** bpoly.cutoff
        for n, c in bpoly.coeffs.items():
            assert abs(c.to_complex()) <= bound + 1e-12

    def test_evaluate_matches_direct_product(self, bpoly, chi3, chi5):
        # B(s, P) by the evaluator's path at every zero, PairEvaluator.b_values
        s = complex(0.75, 33.0)
        direct = 1 + 0j
        for p in (2, 3, 5):
            direct *= (1 - chi3(p) * p ** -s) * (1 - chi5(p) * p ** -s)
        b = ThmOneEvaluator(bpoly, s.real, 50.0).b_values([s.imag])[0]
        assert abs(b - direct) < 1e-12

    def test_complex_coefficients_past_two_to_the_53(self, chi3, chi5):
        # at P = 29 the support reaches 2.79e18 > 2^53, and the lookup by
        # the float-rounded index raised a KeyError
        b29 = build_b_polynomial(29, chi3, chi5)
        keys = sorted(b29.coeffs)
        assert keys[-1] > 2 ** 53
        ns, cs = b29.complex_coefficients()
        assert ns.tolist() == [float(n) for n in keys]
        assert cs.tolist() == [b29.coeffs[n].to_complex() for n in keys]


class TestCoefficients:
    def test_d1_is_one(self, bpoly):
        d = CoefficientSeries("d", bpoly)
        assert d.exact(1) == RootSum.one(bpoly.order)

    def test_d2_closed_form_value(self, bpoly, chi5):
        # d_2 = -chi2(2) = +1 for the quadratic character mod 5
        d = CoefficientSeries("d", bpoly)
        assert d.exact(2).to_complex() == 1
        e = CoefficientSeries("e", bpoly)
        assert e.exact(2).to_complex() == 1  # e_2 = -chi1(2) = +1

    def test_d4_vanishes(self, bpoly):
        assert CoefficientSeries("d", bpoly).exact(4).to_complex() == 0

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
            dn = d.exact(n).to_complex()
            assert abs(dn) <= cap
            assert abs(dn) <= 1.0 + 1e-12  # closed form: root of unity or 0

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
        # d_2 = 1 agrees with the planted closed form; d_4 = 0 does not
        assert broken.exact(2) == RootSum.one(bpoly.order)
        with pytest.raises(ClosedFormMismatch):
            broken.exact(4)


class TestSeriesConstants:
    def test_dual_agreement_at_point_75(self, bpoly):
        d = series_d(bpoly, 0.75)
        assert abs(d.series_value - d.product_value) <= 1e-8
        assert d.product_bound < 1e-9

    def test_real_pair_structure(self, bpoly):
        # with two real characters both constants are real and related by
        # swapping which modulus is excluded from the finite product
        sigma = 0.75
        d = series_d(bpoly, sigma).product_value
        e = series_e(bpoly, sigma).product_value
        assert abs(d.imag) < 1e-9 and abs(e.imag) < 1e-9
        ratio = (1.0 - 5.0 ** -(2 * sigma)) / (1.0 - 3.0 ** -(2 * sigma))
        assert abs(e.real / d.real - ratio) < 1e-8

    def test_nonvanishing_difference(self, bpoly):
        c = predicted_constant(bpoly, 0.75)
        assert abs(c) > 1e-6

    @pytest.mark.parametrize("spec1, spec2", [("3:1", "5:1"), ("5:1", "7:2"),
                                              ("5:3", "7:4")])
    def test_swap_negates_c_for_complex_pairs(self, spec1, spec2):
        # a complex character (chi != conj chi) in either slot: C = D - E
        # changes sign exactly when the characters swap.  C = D - conj(E)
        # breaks that, and no check on the quadratic 3:1 / 5:2 sees it
        chi1, chi2 = parse_character(spec1), parse_character(spec2)
        cutoff = max(chi1.modulus, chi2.modulus)
        c = predicted_constant(build_b_polynomial(cutoff, chi1, chi2), 0.9)
        swapped = predicted_constant(build_b_polynomial(cutoff, chi2, chi1), 0.9)
        assert abs(c) > 1e-6
        assert swapped == -c

    def test_sigma_domain(self, bpoly):
        with pytest.raises(PreconditionError):
            series_d(bpoly, 0.4)

    def test_disagreement_is_surfaced(self, bpoly, monkeypatch):
        # the product route moved by 1e-6 at sigma = 0.9, past the 9e-9
        # the two routes' bounds allow; a first honest call with the same
        # arguments must not let the second skip the certificate
        import lpairs.meanvalues as mv
        product = mv._product_route
        series_d(bpoly, 0.9)

        def shifted(series, sigma):
            value, bound = product(series, sigma)
            return value + 1e-6, bound

        monkeypatch.setattr(mv, "_product_route", shifted)
        with pytest.raises(SeriesProductDisagreement):
            series_d(bpoly, 0.9)


class TestStatistic:
    def test_a1_oracle_path_reproducible(self, bpoly):
        from lpairs.lfunc import l_oracle
        oracle = ThmOneEvaluator(bpoly, 0.75, 50.0).a_value_oracle(GAMMA_1)
        assert abs(oracle) > 1e-6
        # recompute the statistic from its parts through the slow oracle
        s = complex(0.75, GAMMA_1)
        l1 = l_oracle(s, bpoly.chi1).value
        l2 = l_oracle(s, bpoly.chi2).value
        b = ThmOneEvaluator(bpoly, 0.75, 50.0).b_values([GAMMA_1])[0]
        direct = b * 2j * (l1 * l2.conjugate()).imag
        assert abs(oracle - direct) < 1e-8

    def test_a1_afe_within_certified_bounds(self, bpoly):
        ev = ThmOneEvaluator(bpoly, 0.75, 50.0)
        lv1, lv2 = ev.l_values(GAMMA_1)
        afe = ev.rows(np.array([GAMMA_1]), np.empty(1, dtype=complex))[0]
        oracle = ev.a_value_oracle(GAMMA_1)
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

    def test_batched_statistic_equals_one_height_statistic(self, zeros1000, bpoly):
        # rows, a block of heights at a time, against
        # rows one height at a time, bit for bit
        ev = ThmOneEvaluator(bpoly, 0.6, 1000.0)
        gammas = zeros1000.up_to(1000.0)
        batched = ev.rows(gammas, np.empty(len(gammas), dtype=complex))
        assert batched.tolist() == [ev.rows(np.array([g]), np.empty(1, dtype=complex))[0]
                                    for g in gammas.tolist()]
        assert ev.b_values(gammas[:50]).tolist() == [ev.b_value(g)
                                                      for g in gammas[:50].tolist()]

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
        a = ThmOneEvaluator(fwd, 0.75, 50.0).a_value_oracle(GAMMA_1)
        b = ThmOneEvaluator(rev, 0.75, 50.0).a_value_oracle(GAMMA_1)
        assert abs(a + b) < 1e-10  # B is symmetric, the inner factor flips


class TestReport:
    def test_report_structure(self, zeros100, chi3, chi5):
        rep = thm1_report(zeros100, 100.0, 0.75, chi3, chi5)
        assert rep.n_zeros == 29
        assert rep.sum_abs_a2 > 0
        assert 0 < rep.lower_bound_count <= rep.n_zeros
        assert rep.predicted_c.real != 0
        row = rep.csv_row()
        assert len(row.split(",")) == len(rep.CSV_HEADER.split(","))

    def test_report_deterministic(self, zeros100, chi3, chi5):
        a = thm1_report(zeros100, 100.0, 0.75, chi3, chi5)
        b = thm1_report(zeros100, 100.0, 0.75, chi3, chi5)
        assert a.csv_row() == b.csv_row()

    def test_report_audit_runs(self, zeros100, chi3, chi5, monkeypatch):
        # a stride of 1 re-checks every height through the oracle
        import lpairs.lfunc as lfunc
        monkeypatch.setattr(lfunc, "_AUDIT_STRIDE", 1)
        rep = thm1_report(zeros100, 50.0, 0.75, chi3, chi5)
        assert rep.n_zeros == zeros100.count(50.0)

    def test_report_audits_table_indices(self, zeros1000, chi3, chi5, monkeypatch):
        # the audit stride counts table indices: lfunc._AUDIT_STRIDE = 100 audits the 649
        # zeros below 1000 at indices 0, 100, ..., 600, each once
        audited = []
        audit = ThmOneEvaluator.audit

        def recording(ev, gamma):
            audited.append(gamma)
            audit(ev, gamma)

        monkeypatch.setattr(ThmOneEvaluator, "audit", recording)
        thm1_report(zeros1000, 1000.0, 0.75, chi3, chi5)
        gammas = zeros1000.up_to(1000.0)
        assert len(gammas) == 649
        assert sorted(audited) == [float(g) for g in gammas[::100]]

    def test_audit_fires_on_a_planted_afe_defect(self, zeros100, chi3, chi5,
                                                 monkeypatch):
        # AFE values 100 times too large: the first audit (at gamma_1) raises
        from lpairs.lfunc import LValue
        l_values = ThmOneEvaluator.l_values

        def scaled(ev, gamma):
            return tuple(LValue(lv.value * 100.0, lv.bound, lv.method)
                         for lv in l_values(ev, gamma))

        monkeypatch.setattr(ThmOneEvaluator, "l_values", scaled)
        with pytest.raises(OracleAuditFailure, match="A\\(14.13"):
            thm1_report(zeros100, 100.0, 0.75, chi3, chi5)

    def test_audit_fires_on_a_planted_oracle_defect(self, zeros100, zeros1000, chi3,
                                                    chi5, monkeypatch):
        # chi1's oracle value moved by 1e4 at every height above `start`: the
        # first audit there raises, at gamma_1 (index 0) or, for a defect
        # that starts after gamma_1, at index 100, so audits past index 0
        # fire; a tolerance taken from the oracle values alone would grow
        # with the defect and stay silent
        import lpairs.meanvalues as mv
        from lpairs.lfunc import LValue
        l_oracle = mv.l_oracle

        def shifted(s, chi):
            value = l_oracle(s, chi)
            if chi == chi3 and s.imag > start:
                return LValue(value.value + 1e4, value.bound, value.method)
            return value

        monkeypatch.setattr(mv, "l_oracle", shifted)
        for zeros, t, start, first in ((zeros100, 100.0, 0.0, "14.13"),
                                       (zeros1000, 1000.0, 15.0, "237.769")):
            with pytest.raises(OracleAuditFailure, match=f"A\\({first}"):
                thm1_report(zeros, t, 0.75, chi3, chi5)

    def test_report_rejects_principal_characters(self, zeros100, chi5):
        # no zero lies below T = 10, so no x_factor call rejects chi1 = 3:0
        with pytest.raises(PreconditionError):
            thm1_report(zeros100, 10.0, 0.75, character(3, 0), chi5)

    def test_csv_cells(self):
        from fractions import Fraction

        from lpairs.meanvalues import _csv_row
        cells = [1.0, 2, Fraction(15, 2), np.float64(0.1), -0.0]
        assert _csv_row(cells) == "1.0,2,15/2,0.1,-0.0"

    @pytest.mark.parametrize("t", [math.nan, math.inf, -5.0])
    def test_report_rejects_bad_height(self, zeros100, chi3, chi5, t, monkeypatch):
        # checked before the mollifier or the AFE windows are built; nan
        # and -5 used to reach int() and math.sqrt in lfunc.AfeWindows
        import lpairs.meanvalues as mv

        def unreachable(*args):
            raise AssertionError("built the mollifier before checking T")

        monkeypatch.setattr(mv, "build_b_polynomial", unreachable)
        with pytest.raises(PreconditionError, match="0 <= T < inf"):
            thm1_report(zeros100, t, 0.75, chi3, chi5)

    def test_report_refuses_a_principal_character_before_d_and_e(
            self, zeros100, chi5, monkeypatch):
        # a principal chi1 used to be refused only by the evaluator, after
        # the series route had summed D and E
        import lpairs.meanvalues as mv
        summed = []
        monkeypatch.setattr(mv, "_series_route", lambda *a: summed.append(a))
        with pytest.raises(PreconditionError, match="non-principal"):
            thm1_report(zeros100, 50.0, 0.75, character(3, 0), chi5)
        assert summed == []

    def test_sweep_needs_a_height(self, chi3, chi5):
        with pytest.raises(PreconditionError, match="heights"):
            thm1_sweep([], 0.75, chi3, chi5)

    def test_report_on_empty_table_reports_zero_bound(self, zeros100, chi3, chi5):
        # no zero below T = 14.0 yields sum_abs_a2 = 0; the count bound is
        # reported as 0 rather than crashing on the division
        rep = thm1_report(zeros100, 14.0, 0.75, chi3, chi5)
        assert rep.n_zeros == 0
        assert rep.sum_abs_a2 == 0.0
        assert rep.lower_bound_count == 0.0
        assert rep.csv_row().startswith("14.0,0,")


def _coefficient(series, n):
    """a_n = coeff(n) conj(other)(n) from the exact coefficient calculus."""
    return series.exact(n).to_complex() * series.other(n).conjugate()


class TestSeriesRoute:
    """The series route against the exact coefficient calculus.

    The route sieves the residues of one coefficient period M chunk by
    chunk and sums each chunk's nonzero residues over every period up to
    N, masking the terms of the last period beyond N.  Cutoff 5 has
    M = 900 <= N, so the last period is partial and masked; cutoff 7
    (M = 44,100) and cutoff 11 (M = 5,336,100) have N < M, so only the
    residues up to N are sieved and summed.  A complex chi2 (5:1) checks
    the imaginary parts as well.
    """

    @pytest.mark.parametrize("cutoff", [5, 7, 11])
    @pytest.mark.parametrize("index", [2, 1])
    @pytest.mark.parametrize("kind", ["d", "e"])
    def test_matches_exact_coefficients(self, chi3, cutoff, index, kind):
        from lpairs.meanvalues import _series_route
        # N = 2,097 at cutoff 5, 3,329 at cutoff 7, 5,284 at cutoff 11 (5:2)
        sigma, tol_tail = 0.75, 1e-3
        series = CoefficientSeries(kind, build_b_polynomial(cutoff, chi3, character(5, index)))
        value, bound, n_terms = _series_route(series, sigma, tol_tail)
        assert 900 <= n_terms <= 6000
        reference = sum(_coefficient(series, n) * n ** (-2.0 * sigma)
                        for n in range(1, n_terms + 1))
        assert abs(value - reference) < 1e-12
        assert bound < 1.01 * tol_tail

    @pytest.mark.parametrize("cutoff", [5, 7])
    @pytest.mark.parametrize("index", [2, 1])
    @pytest.mark.parametrize("kind", ["d", "e"])
    def test_chunk_invariance(self, chi3, cutoff, index, kind, monkeypatch):
        # the same series with the residues sieved in chunks of 512, 1024 and
        # 2^21 and in the default chunk: at cutoff 5 a chunk of 512 < M splits
        # the residues in two and 1024 >= M sums them in blocks of 2 periods;
        # at cutoff 7 (N > M) both split them into chunks whose last period
        # is k = 1 below r = N - M and k = 0 above it; 2^21 sieves every
        # residue in one chunk
        import lpairs.meanvalues as mv
        # N = 9,732 (5:2), 5,304 (5:1) at cutoff 5; 71,703, 55,821 at cutoff 7
        sigma = 0.75
        tol_tail, period = {5: (1e-4, 900), 7: (1e-5, 44_100)}[cutoff]
        series = CoefficientSeries(kind, build_b_polynomial(cutoff, chi3, character(5, index)))
        default = mv._series_route(series, sigma, tol_tail)
        n_terms = default[2]
        assert n_terms > period and n_terms % period
        for chunk in (512, 1024, 1 << 21):
            monkeypatch.setattr(mv, "_SIEVE_CHUNK", chunk)
            chunked = mv._series_route(series, sigma, tol_tail)
            assert chunked[1:] == default[1:]
            assert abs(chunked[0] - default[0]) < 1e-13

    def test_chunk_of_zero_coefficients_is_skipped(self, chi3, monkeypatch):
        # cutoff 11 has N = 5,284 < M, and a_5284 = 0 (4 | 5284): chunks of
        # 587 leave 5,284 alone in the last one, whose empty support must be
        # skipped, not divided by
        import lpairs.meanvalues as mv
        series = CoefficientSeries("d", build_b_polynomial(11, chi3, character(5, 2)))
        default = mv._series_route(series, 0.75, 1e-3)
        assert default[2] == 5284
        monkeypatch.setattr(mv, "_SIEVE_CHUNK", 587)
        chunked = mv._series_route(series, 0.75, 1e-3)
        assert chunked[1:] == default[1:]
        assert abs(chunked[0] - default[0]) < 1e-13

    @pytest.mark.parametrize("cutoff, sigma", [(5, 0.75), (11, 0.9)])
    def test_memory_stays_at_one_chunk(self, chi3, cutoff, sigma):
        # one sieve chunk (about 42 bytes per residue) and one grid buffer
        # of _SIEVE_CHUNK floats stay under 8 MB, here at N = 4.8e6 (M = 900)
        # and N = 8.0e5 < M
        import tracemalloc

        from lpairs.meanvalues import _series_route
        series = CoefficientSeries("d", build_b_polynomial(cutoff, chi3, character(5, 2)))
        tracemalloc.start()
        try:
            _series_route(series, sigma, 9e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6, peak


def test_unreachable_sigma_refused_before_the_afe_pass(zeros100, chi3, chi5, monkeypatch):
    # at sigma = 0.55 the series route for D and E would need N > 8e8
    # terms; thm1_report refuses it before it computes any AFE value
    import lpairs.lfunc as lfunc

    def no_afe(*args):
        raise AssertionError("AFE value computed before D and E")

    monkeypatch.setattr(lfunc.AfeWindows, "sums", no_afe)
    with pytest.raises(PreconditionError, match="series route needs N"):
        thm1_report(zeros100, 100.0, 0.55, chi3, chi5)


def test_unsummable_cutoff_refused_before_b_is_expanded(chi3, chi5, monkeypatch):
    # sum |c_n| = prod_{p <= P} (1 + |chi1(p) + chi2(p)| + |chi1(p) chi2(p)|)
    # sizes the series route before B(s, P) and its up to 3^pi(P) exact
    # coefficients exist; P = 97 at sigma = 0.75 would never finish
    import lpairs.meanvalues as mv

    def no_expansion(*args):
        raise AssertionError("B(s, P) expanded before the series route was sized")

    monkeypatch.setattr(mv, "build_b_polynomial", no_expansion)
    with pytest.raises(PreconditionError, match="raise sigma or lower P"):
        thm1_sweep([100.0], 0.75, chi3, chi5, cutoff=97)


def test_overflowing_coefficient_sum_is_refused(chi3):
    # at P = 7001 the product for sum |c_n| overflows to inf, and the
    # series route's N used to raise OverflowError from math.ceil(inf)
    with pytest.raises(PreconditionError, match="raise sigma or lower P"):
        thm1_sweep([100.0], 0.75, chi3, character(7001, 1))


@pytest.mark.parametrize("cutoff", [7, 11, 13])
def test_series_size_sums_the_coefficient_moduli_in_closed_form(cutoff):
    # _series_size takes sum |c_n| of B(s, P) as a product over the primes;
    # the sum over the expanded coefficients is the reference, for each of
    # the 23 pairs of non-principal characters with distinct moduli 3, 5, 7
    from lpairs.meanvalues import _series_size, _twist_table
    chars = [character(q, j) for q in (3, 5, 7) for j in range(1, q - 1)]
    pairs = [(a, b) for a in chars for b in chars if a.modulus < b.modulus]
    assert len(pairs) == 23
    for chi1, chi2 in pairs:
        bpoly = build_b_polynomial(cutoff, chi1, chi2)
        want = float(np.abs(bpoly.complex_coefficients()[1]).sum())
        s_max = float(np.max(np.abs(np.cumsum(_twist_table(chi1, chi2)))))
        structural, _ = _series_size(chi1, chi2, bpoly.primes, 0.9, 9e-9)
        assert abs(structural / (2.0 * s_max) - want) <= 1e-15 * want


def test_empty_table_tabulates_no_windows(chi3, chi5):
    # a table with no ordinates and t_max = inf (load_zeros caps an
    # empty file at the first-zero floor); the evaluator's windows
    # reach its last zero, not T (118.9 MB traced at T = 1e12 when they
    # reached T); what is left is D and E (0.7 MB)
    import tracemalloc

    from lpairs.zeros import ZeroTable
    empty = ZeroTable(np.empty(0), "file", math.inf)
    tracemalloc.start()
    try:
        rep = thm1_report(empty, 1e12, 0.75, chi3, chi5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_zeros == 0 and rep.sum_a == 0
    assert peak <= 4e6, peak
