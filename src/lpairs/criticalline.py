"""Value-distinctness on the critical line.

Here the statistic is A(gamma) = p^rho (L(rho, chi1) - L(rho, chi2)) at
rho = 1/2 + i gamma, with an auxiliary prime p chosen by CRT sieving so
that chi1(p) = 1 != chi2(p).  The first moment is

    sum_{0 < gamma <= T} p^rho L(rho, chi)
        = conj(C_chi) (T/2pi) log(T/2pi) + O(T),
    C_chi = G(1, conj chi) G(-p, chi) / q,

and the Gauss-sum identities collapse C_chi to conj(chi)(p), so the
chosen p forces C_1 != C_2.  The second moment obeys sum |A|^2 << T log^2 T.

The O(T) remainder is r_chi (T/2pi) with r_chi bounded.  Its first-window
part follows from the Gonek-Landau formula sum_gamma x^rho =
-(T/2pi) Lambda(x) + O(log T) for x > 1, and -(T/2pi) x Lambda(1/x) for
x < 1 (Gonek, Contemp. Math. 143, 1993), applied to each term
chi(n) (p/n)^rho of the first window: n = 1 gives -(T/2pi) log p, n = p
gives chi(p) N(T) with its -chi(p) T/2pi lower-order term, and n = p m
gives chi(p) (T/2pi) (L'/L)(1, chi).  Together

    c_chi = -log p - chi(p) + chi(p) (L'/L)(1, chi),

which is -2.578 for 3:1 and -1.774 for 5:2 at p = 7; only -log p is
common to both characters.  The dual window adds a further constant
(measured about -0.5i for 3:1 and 0.1 for 5:2).  The relative error of a
per-character sum is |r_chi| / log(T/2pi), so it falls only like 1/log T.

The contour-integration route behind these asymptotics is a proof
device; the workbench verifies the consequences by direct zero sums.

Zeros are sampled at numerically computed ordinates, which lie on the
critical line at desk heights, so rho = 1/2 + i gamma throughout.

thm2_sweep is thm1_sweep with another statistic: B = p^s, the zero
loop and where it audits are lfunc.PairEvaluator's, the audit verdict and
the reducer meanvalues._check_audit and _cauchy_schwarz.  method "oracle"
hands that loop one l_oracle_critical_batch array per character over the
whole table, which lfunc runs in blocks on threads, and no audit runs.
Every reduction stays serial, so both routes give the same bits on any
number of CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import DirichletCharacter, _check_non_principal, gauss_sum
from .errors import PreconditionError, SearchExhausted
from .lfunc import PairEvaluator, l_oracle, l_oracle_critical_batch
from .meanvalues import _cauchy_schwarz, _check_audit, _csv_row
from .primes import is_prime
# perfbench/spans.py wraps x_factor and neumaier_sum by this module's
# attributes, so the names stay importable here
from .specfun import x_factor
from .summation import neumaier_sum, neumaier_sum_complex
from .zeros import ZeroTable

_P_SEARCH_BOUND = 10 ** 6


def choose_p(chi1: DirichletCharacter, chi2: DirichletCharacter) -> int:
    """Smallest prime p = 1 (mod q) with chi2(p) != 1 and p not in {q, l}.

    Existence is Dirichlet's theorem on the progression 1 mod q; the
    chi2 condition only excludes the residues where chi2 is trivial,
    which cannot exhaust the progression since chi2 is non-principal.
    """
    q, ell = chi1.modulus, chi2.modulus
    if q == ell:
        raise PreconditionError("characters must have distinct prime moduli")
    _check_non_principal(chi1, chi2)
    p = 1
    while p <= _P_SEARCH_BOUND:
        p += q
        if p in (q, ell) or not is_prime(p):
            continue
        e = chi2.log(p)
        if e is None or e == 0:  # chi2(p) in {0, 1}
            continue
        return p
    raise SearchExhausted(
        f"no admissible prime p = 1 mod {q} below {_P_SEARCH_BOUND}")


def c_constant(chi: DirichletCharacter, p: int) -> complex:
    """C_chi = G(1, conj chi) G(-p, chi) / q; unimodular for prime moduli.

    By the Gauss-sum identities this equals conj(chi)(-p) G(1, conj chi)
    G(1, chi) / q = conj(chi)(p), so it only depends on p mod q.
    """
    q = chi.modulus
    if p % q == 0:
        raise PreconditionError(f"p = {p} must be coprime to the modulus {q}")
    return gauss_sum(1, chi.conjugate()) * gauss_sum(-p, chi) / q


@dataclass(frozen=True)
class CriticalLineConfig:
    """Characters, the auxiliary prime, and the derived constants."""

    chi1: DirichletCharacter
    chi2: DirichletCharacter
    p: int
    c1: complex
    c2: complex


def make_config(chi1: DirichletCharacter, chi2: DirichletCharacter,
                p: int | None = None) -> CriticalLineConfig:
    _check_non_principal(chi1, chi2)
    if p is None:
        p = choose_p(chi1, chi2)
    elif not is_prime(p) or p in (chi1.modulus, chi2.modulus):
        raise PreconditionError(f"auxiliary prime {p} must be prime and != q, l")
    # chi(p) = exp(2 pi i e / (q - 1)): compare e1 / (q - 1) and e2 / (l - 1) exactly
    if chi1.log(p) * (chi2.modulus - 1) == chi2.log(p) * (chi1.modulus - 1):
        raise PreconditionError(f"auxiliary prime {p} gives chi1(p) = chi2(p), so "
                                "C1 = C2 and the main term vanishes")
    return CriticalLineConfig(chi1=chi1, chi2=chi2, p=p,
                              c1=c_constant(chi1, p), c2=c_constant(chi2, p))


class ThmTwoEvaluator(PairEvaluator):
    """(p^rho L(rho, chi1), p^rho L(rho, chi2)) at rho = 1/2 + i gamma: the
    pair evaluator of B(s) = p^s, p^{1/2} e^{i gamma log p}, and Delta = 1."""

    def __init__(self, cfg: CriticalLineConfig, t_max: float):
        self._amp_p = math.sqrt(cfg.p)
        super().__init__(cfg.chi1, cfg.chi2, 0.5, (1.0, 1.0), t_max,
                         np.array([-math.log(cfg.p)]), np.array([self._amp_p]))

    @staticmethod
    def _row(b: complex, l1: complex, l2: complex) -> tuple[complex, complex]:
        return b * l1, b * l2

    def audit(self, gamma: float) -> None:
        """Each character on its own: a defect both oracles share cancels in o1 - o2."""
        b = self.b_value(gamma)
        for lv, chi in zip(self.l_values(gamma), (self.chi1, self.chi2)):
            o = l_oracle(complex(0.5, gamma), chi)
            _check_audit(gamma, b * lv.value, b * o.value,
                         self._amp_p * (lv.bound + o.bound) + 1e-9)


@dataclass(frozen=True)
class ThmTwoReport:
    """First/second discrete moments on the critical line up to height T."""

    t: float
    n_zeros: int
    sum_a: complex
    sum_chi1: complex          # sum p^rho L(rho, chi1)
    sum_chi2: complex
    main_term: complex         # (conj C1 - conj C2) (T/2pi) log(T/2pi)
    main_chi1: complex
    main_chi2: complex
    sum_abs_a2: float
    lower_bound_count: float

    CSV_HEADER = ("T,re_sum_a,im_sum_a,re_sum_chi1,im_sum_chi1,"
                  "re_sum_chi2,im_sum_chi2,re_main,im_main,sum_abs_a2,"
                  "sum_abs_a2_over_t_log2t,lower_bound,lower_bound_over_t")

    def csv_row(self) -> str:
        scale = self.t * math.log(self.t) ** 2
        return _csv_row([float(self.t), self.sum_a.real, self.sum_a.imag,
                         self.sum_chi1.real, self.sum_chi1.imag,
                         self.sum_chi2.real, self.sum_chi2.imag,
                         self.main_term.real, self.main_term.imag,
                         self.sum_abs_a2, self.sum_abs_a2 / scale,
                         self.lower_bound_count, self.lower_bound_count / self.t])


def thm2_sweep(ts, cfg: CriticalLineConfig, method: str = "afe"):
    """Check every option, then return reports(zeros): one ThmTwoReport per
    height in ts, in order, each its own pass, as the oracle blocks size N
    from each block's top height.  method "afe" uses the fast windows,
    which PairEvaluator.rows audits against the oracle; "oracle" evaluates
    every height through the batched Hurwitz route, for bias-free first
    moments at 4-6x the AFE route's CPU time at T = 1e4 (2.2-2.3 s
    against 0.40-0.54 s on a two-core Xeon, both threads busy).  The
    per-character first moments are reported beside the noisier
    difference, and the count bound is read against c*T rather than N(T).
    """
    if len(ts) == 0 or not all(2.0 * math.pi < t < math.inf for t in ts):
        # log(T/2pi) > 0 at each T; nan fails the comparison
        raise PreconditionError(f"thm2 needs heights 2 pi < T < inf, got {list(ts)}")
    if method not in ("afe", "oracle"):
        raise PreconditionError(f"method must be 'afe' or 'oracle', got {method!r}")

    def report(zeros: ZeroTable, t: float) -> ThmTwoReport:
        gammas = zeros.up_to(t)
        rows = ThmTwoEvaluator(cfg, gammas.max(initial=0.0)).rows(
            gammas, np.empty((len(gammas), 2), dtype=complex),
            None if method == "afe" else [l_oracle_critical_batch(gammas, chi)[0]
                                          for chi in (cfg.chi1, cfg.chi2)])
        s1 = neumaier_sum_complex(rows[:, 0].tolist())
        s2 = neumaier_sum_complex(rows[:, 1].tolist())
        sum_a, sum_abs2, lower = _cauchy_schwarz(rows[:, 0] - rows[:, 1])

        scale = (t / (2.0 * math.pi)) * math.log(t / (2.0 * math.pi))
        m1 = cfg.c1.conjugate() * scale
        m2 = cfg.c2.conjugate() * scale
        return ThmTwoReport(t=t, n_zeros=len(gammas), sum_a=sum_a,
                            sum_chi1=s1, sum_chi2=s2,
                            main_term=m1 - m2, main_chi1=m1, main_chi2=m2,
                            sum_abs_a2=sum_abs2, lower_bound_count=lower)

    return lambda zeros: [report(zeros, t) for t in ts]


def thm2_report(zeros: ZeroTable, t: float, cfg: CriticalLineConfig,
                method: str = "afe") -> ThmTwoReport:
    """Critical-line zero sums up to t: thm2_sweep at the one height t."""
    return thm2_sweep([t], cfg, method)(zeros)[0]
