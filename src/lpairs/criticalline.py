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

thm2_report is thm1_report with another statistic: the L-values at each
zero are lfunc.AfeWindows.value, and the audited zero loop and the
Cauchy-Schwarz reducer are meanvalues._audited_rows and _cauchy_schwarz.
method "oracle" replaces the loop by l_oracle_critical_batch over blocks
of _EVAL_CHUNK heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .characters import DirichletCharacter, gauss_sum
from .errors import OracleAuditFailure, PreconditionError, SearchExhausted
from .lfunc import AfeWindows, LValue, l_oracle, l_oracle_critical_batch
from .meanvalues import _audit_stride, _audited_rows, _cauchy_schwarz
from .primes import is_prime
# perfbench/spans.py wraps x_factor and neumaier_sum by this module's
# attributes, so the names stay importable here
from .specfun import x_factor
from .summation import neumaier_sum, neumaier_sum_complex
from .zeros import ZeroTable

_P_SEARCH_BOUND = 10 ** 6
# heights per oracle batch; each block's largest height sets the Hurwitz
# kernel's term count N
_EVAL_CHUNK = 512


def choose_p(chi1: DirichletCharacter, chi2: DirichletCharacter) -> int:
    """Smallest prime p = 1 (mod q) with chi2(p) != 1 and p not in {q, l}.

    Existence is Dirichlet's theorem on the progression 1 mod q; the
    chi2 condition only excludes the residues where chi2 is trivial,
    which cannot exhaust the progression since chi2 is non-principal.
    """
    q, ell = chi1.modulus, chi2.modulus
    if q == ell:
        raise PreconditionError("characters must have distinct prime moduli")
    if chi1.is_principal or chi2.is_principal:
        raise PreconditionError("both characters must be non-principal")
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
    if p is None:
        p = choose_p(chi1, chi2)
    elif not is_prime(p) or p in (chi1.modulus, chi2.modulus):
        raise PreconditionError(f"auxiliary prime {p} must be prime and != q, l")
    return CriticalLineConfig(chi1=chi1, chi2=chi2, p=p,
                              c1=c_constant(chi1, p), c2=c_constant(chi2, p))


class ThmTwoEvaluator:
    """Per-height evaluation of p^rho L(rho, chi_j) with Delta = 1 windows."""

    def __init__(self, cfg: CriticalLineConfig, t_max: float):
        self.cfg = cfg
        self._win1 = AfeWindows(cfg.chi1, 0.5, 1.0, t_max)
        self._win2 = AfeWindows(cfg.chi2, 0.5, 1.0, t_max)
        self._log_p = math.log(cfg.p)
        self._amp_p = math.sqrt(cfg.p)

    def b_value(self, gamma: float) -> complex:
        """B(rho, p) = p^rho = p^{1/2} e^{i gamma log p}."""
        return self._amp_p * complex(math.cos(gamma * self._log_p),
                                     math.sin(gamma * self._log_p))

    def l_values(self, gamma: float) -> tuple[LValue, LValue]:
        return self._win1.value(gamma), self._win2.value(gamma)

    def a_value(self, gamma: float) -> complex:
        lv1, lv2 = self.l_values(gamma)
        return self.b_value(gamma) * (lv1.value - lv2.value)

    def audit(self, gamma: float) -> None:
        lv1, lv2 = self.l_values(gamma)
        s = complex(0.5, gamma)
        o1 = l_oracle(s, self.cfg.chi1)
        o2 = l_oracle(s, self.cfg.chi2)
        tol = self._amp_p * (lv1.bound + lv2.bound + o1.bound + o2.bound) + 1e-9
        b = self.b_value(gamma)
        afe_a = b * (lv1.value - lv2.value)
        oracle_a = b * (o1.value - o2.value)
        if abs(afe_a - oracle_a) > tol:
            raise OracleAuditFailure(
                f"A({gamma}): AFE {afe_a} vs oracle {oracle_a} "
                f"differ by {abs(afe_a - oracle_a):.3e} > {tol:.3e}")


def a2_gamma(gamma: float, cfg: CriticalLineConfig, method: str = "afe") -> complex:
    """A(gamma) = p^rho (L(rho, chi1) - L(rho, chi2)), rho = 1/2 + i gamma."""
    if not 10.0 < gamma < math.inf:  # nan fails the comparison
        raise PreconditionError(f"statistic needs a finite gamma > 10, got {gamma}")
    ev = ThmTwoEvaluator(cfg, gamma)
    if method == "oracle":
        s = complex(0.5, gamma)
        return ev.b_value(gamma) * (l_oracle(s, cfg.chi1).value
                                    - l_oracle(s, cfg.chi2).value)
    return ev.a_value(gamma)


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
        cells = [self.t, self.sum_a.real, self.sum_a.imag,
                 self.sum_chi1.real, self.sum_chi1.imag,
                 self.sum_chi2.real, self.sum_chi2.imag,
                 self.main_term.real, self.main_term.imag,
                 self.sum_abs_a2, self.sum_abs_a2 / scale,
                 self.lower_bound_count, self.lower_bound_count / self.t]
        return ",".join(repr(float(c)) for c in cells)


def thm2_report(zeros: ZeroTable, t: float, cfg: CriticalLineConfig,
                audit_rate: float = 0.01, method: str = "afe") -> ThmTwoReport:
    """Critical-line zero sums, with per-character sums emitted separately.

    The difference of two slowly converging sums is noisier than either,
    so the per-character first moments are reported alongside the
    combined statistic; the count bound is read against c*T rather than
    N(T).  method "afe" (default) uses the fast windows with sampled
    oracle audits; "oracle" evaluates every height through the batched
    Hurwitz route, trading ~30x work for bias-free first moments.
    """
    if method not in ("afe", "oracle"):
        raise PreconditionError(f"method must be 'afe' or 'oracle', got {method!r}")
    stride = _audit_stride(audit_rate)
    gammas = zeros.up_to(t)
    evaluator = ThmTwoEvaluator(cfg, t)

    def afe_row(g):
        lv1, lv2 = evaluator.l_values(g)
        b = evaluator.b_value(g)
        return b * lv1.value, b * lv2.value

    if method == "oracle":
        rows = []
        for start in range(0, len(gammas), _EVAL_CHUNK):
            block = gammas[start:start + _EVAL_CHUNK]
            l1s, _ = l_oracle_critical_batch(block, cfg.chi1)
            l2s, _ = l_oracle_critical_batch(block, cfg.chi2)
            for g, l1, l2 in zip(block, l1s, l2s):
                b = evaluator.b_value(float(g))
                rows.append((b * complex(l1), b * complex(l2)))
    else:
        rows = _audited_rows(afe_row, evaluator.audit, gammas, stride)
    s1 = neumaier_sum_complex(r[0] for r in rows)
    s2 = neumaier_sum_complex(r[1] for r in rows)
    sum_a, sum_abs2, lower = _cauchy_schwarz([r[0] - r[1] for r in rows])

    scale = (t / (2.0 * math.pi)) * math.log(t / (2.0 * math.pi))
    m1 = cfg.c1.conjugate() * scale
    m2 = cfg.c2.conjugate() * scale
    return ThmTwoReport(t=t, n_zeros=len(gammas), sum_a=sum_a,
                        sum_chi1=s1, sum_chi2=s2,
                        main_term=m1 - m2, main_chi1=m1, main_chi2=m2,
                        sum_abs_a2=sum_abs2, lower_bound_count=lower)
