import math

import pytest

from lpairs.characters import character
from lpairs.criticalline import (
    ThmTwoEvaluator,
    a2_gamma,
    c_constant,
    choose_p,
    make_config,
    thm2_report,
)
from lpairs.errors import PreconditionError
from lpairs.lfunc import l_oracle
from lpairs.primes import is_prime

GAMMA_1 = 14.134725141734693790


def test_choose_p_default_pair(chi3, chi5):
    assert choose_p(chi3, chi5) == 7
    assert chi3(7) == 1  # 7 = 1 mod 3 by construction
    assert chi5(7) != 1


def test_choose_p_rejects_equal_moduli(chi5):
    with pytest.raises(PreconditionError):
        choose_p(chi5, character(5, 1))


def test_choose_p_rejects_principal(chi3):
    with pytest.raises(PreconditionError):
        choose_p(chi3, character(5, 0))


def test_choose_p_various_pairs():
    for (q, j1), (l, j2) in (((3, 1), (7, 1)), ((5, 2), (7, 3)), ((11, 1), (3, 1))):
        c1, c2 = character(q, j1), character(l, j2)
        p = choose_p(c1, c2)
        assert is_prime(p) and p % q == 1 and p not in (q, l)
        assert c2.log(p) not in (None, 0)


def test_c_constant_quadratic_mod5_is_minus_one(chi5):
    assert abs(c_constant(chi5, 7) - (-1.0)) < 1e-12


def test_c_constant_unimodular():
    for q in (3, 5, 7):
        for j in range(1, q - 1):
            chi = character(q, j)
            for p in (7, 11, 13):
                if p % q:
                    assert abs(abs(c_constant(chi, p)) - 1.0) < 1e-12


def test_c_constant_reduces_to_conjugate_character(chi5):
    # C_chi = conj(chi)(p), a Gauss-identity consequence
    for q in (3, 5, 7):
        for j in range(1, q - 1):
            chi = character(q, j)
            for p in (7, 11, 13, 18 + 1):
                if p % q and is_prime(p):
                    assert abs(c_constant(chi, p) - chi(p).conjugate()) < 1e-12


def test_c_constant_depends_only_on_residue(chi5):
    assert abs(c_constant(chi5, 7) - c_constant(chi5, 7 + 5 * 6)) < 1e-12


def test_c_constant_requires_coprime(chi5):
    with pytest.raises(PreconditionError):
        c_constant(chi5, 10)


def test_make_config_defaults(chi3, chi5):
    cfg = make_config(chi3, chi5)
    assert cfg.p == 7
    assert abs(cfg.c1 - 1.0) < 1e-12
    assert abs(cfg.c2 + 1.0) < 1e-12
    assert abs(cfg.c1 - cfg.c2) >= 1e-6


def test_evaluator_matches_standalone_afe(chi3, chi5):
    # one AFE value (AfeWindows.value) behind both: the evaluator
    # reproduces l_afe (Delta = 1) exactly
    from lpairs.lfunc import l_afe
    cfg = make_config(chi3, chi5)
    ev = ThmTwoEvaluator(cfg, 600.0)
    for g in (21.0, 88.8, 333.3, 599.0):
        lv1, lv2 = ev.l_values(g)
        ref1 = l_afe(complex(0.5, g), chi3, 1.0)
        ref2 = l_afe(complex(0.5, g), chi5, 1.0)
        assert lv1.value == ref1.value
        assert lv2.value == ref2.value
        assert lv1.bound == ref1.bound


def test_a2_modulus_identity(chi3, chi5):
    cfg = make_config(chi3, chi5)
    ev = ThmTwoEvaluator(cfg, 50.0)
    lv1, lv2 = ev.l_values(GAMMA_1)
    a = ev.a_value(GAMMA_1)
    assert abs(abs(a) - math.sqrt(7) * abs(lv1.value - lv2.value)) < 1e-12


def test_a2_oracle_path_reproducible(chi3, chi5):
    # the oracle-path value is certified: recompute it from first parts
    cfg = make_config(chi3, chi5)
    orc = a2_gamma(GAMMA_1, cfg, method="oracle")
    assert abs(orc) > 1e-6
    s = complex(0.5, GAMMA_1)
    direct = (7 ** s) * (l_oracle(s, chi3).value - l_oracle(s, chi5).value)
    assert abs(orc - direct) < 1e-7


def test_a2_afe_within_certified_bounds(chi3, chi5):
    cfg = make_config(chi3, chi5)
    ev = ThmTwoEvaluator(cfg, 50.0)
    lv1, lv2 = ev.l_values(GAMMA_1)
    afe = a2_gamma(GAMMA_1, cfg)
    orc = a2_gamma(GAMMA_1, cfg, method="oracle")
    # the AFE windows at gamma_1 hold ~4 terms, so the certified remainder
    # bounds are the only honest tolerance here
    assert abs(afe - orc) <= math.sqrt(7) * (lv1.bound + lv2.bound)


def test_a2_requires_height(chi3, chi5):
    cfg = make_config(chi3, chi5)
    with pytest.raises(PreconditionError):
        a2_gamma(9.0, cfg)


@pytest.mark.parametrize("rate", [3.0, -1.0, math.nan, math.inf])
def test_report_rejects_out_of_range_audit_rate(zeros100, chi3, chi5, rate):
    # a rate outside [0, 1] used to switch the audits off silently
    with pytest.raises(PreconditionError):
        thm2_report(zeros100, 50.0, make_config(chi3, chi5), audit_rate=rate)


def test_report_audit_rate_bounds_accepted(zeros100, chi3, chi5):
    cfg = make_config(chi3, chi5)
    for rate in (0.0, 1.0):
        rep = thm2_report(zeros100, 50.0, cfg, audit_rate=rate)
        assert rep.n_zeros == zeros100.count(50.0)


def test_report_structure_and_determinism(zeros100, chi3, chi5):
    cfg = make_config(chi3, chi5)
    a = thm2_report(zeros100, 100.0, cfg)
    b = thm2_report(zeros100, 100.0, cfg, parallel=True)
    assert a.csv_row() == b.csv_row()
    assert a.n_zeros == 29
    assert a.sum_abs_a2 > 0
    assert a.lower_bound_count > 0
    assert abs(a.main_term - (a.main_chi1 - a.main_chi2)) < 1e-9
    assert len(a.csv_row().split(",")) == len(a.CSV_HEADER.split(","))


def test_difference_sum_tracks_main_term(zeros5000, chi3, chi5):
    # of the O(T) remainder only the -(T/2pi) log p diagonal is common to
    # both characters and cancels in sum A; the rest, -chi(p) +
    # chi(p) (L'/L)(1, chi) and the dual window, differs by character but
    # is small beside the doubled main term (|C1 - C2| = 2), so the
    # difference converges to (conj C1 - conj C2)(T/2pi) log(T/2pi) much
    # faster than either per-character sum
    cfg = make_config(chi3, chi5)
    rel = {}
    for t in (1000.0, 5000.0):
        rep = thm2_report(zeros5000, t, cfg)
        rel[t] = abs(rep.sum_a - rep.main_term) / abs(rep.main_term)
    assert rel[5000.0] < rel[1000.0]
    assert rel[5000.0] < 0.2


def test_first_moment_check_is_live(zeros1000, chi3, chi5, first_moment_check):
    # criterion 8's O(T) check holds for the true main terms and fails
    # for each planted wrong one
    cfg = make_config(chi3, chi5)
    rep = thm2_report(zeros1000, 1000.0, cfg)
    ok, rows = first_moment_check(rep, cfg)
    assert ok, rows
    unit = rep.t / (2.0 * math.pi)
    conj_c = (cfg.c1.conjugate(), cfg.c2.conjugate())
    planted = {
        "sign-flipped C_chi": [-c * unit * math.log(unit) for c in conj_c],
        "log T": [c * unit * math.log(rep.t) for c in conj_c],
        "no log": [c * unit for c in conj_c],
    }
    for name, mains in planted.items():
        ok, rows = first_moment_check(rep, cfg, mains)
        assert not ok, f"{name}: {rows}"


@pytest.mark.parametrize("parallel", [False, True])
def test_report_audits_table_indices_across_chunks(zeros1000, chi3, chi5,
                                                   monkeypatch, parallel):
    # 649 zeros in two 512-height chunks: rate 0.01 audits table indices
    # 0, 100, ..., 600, not 512 and 612 as a per-chunk stride would
    audited = []
    audit = ThmTwoEvaluator.audit

    def recording(ev, gamma):
        audited.append(gamma)
        audit(ev, gamma)

    monkeypatch.setattr(ThmTwoEvaluator, "audit", recording)
    thm2_report(zeros1000, 1000.0, make_config(chi3, chi5), audit_rate=0.01,
                parallel=parallel)
    gammas = zeros1000.up_to(1000.0)
    assert len(gammas) == 649
    assert sorted(audited) == [float(g) for g in gammas[::100]]


def test_report_oracle_method(zeros100, chi3, chi5):
    cfg = make_config(chi3, chi5)
    afe = thm2_report(zeros100, 60.0, cfg)
    orc = thm2_report(zeros100, 60.0, cfg, method="oracle")
    # agreement is governed by the per-zero certified AFE remainders,
    # which are wide at these low heights
    ev = ThmTwoEvaluator(cfg, 60.0)
    budget = math.sqrt(7) * sum(
        lv.bound for g in zeros100.up_to(60.0)
        for lv in ev.l_values(float(g)))
    assert abs(afe.sum_a - orc.sum_a) <= budget
    assert abs(afe.sum_a - orc.sum_a) < 0.05 * budget  # and in practice far inside
    with pytest.raises(PreconditionError):
        thm2_report(zeros100, 60.0, cfg, method="fastest")
