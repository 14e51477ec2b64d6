"""Command-line front end.

Subcommands: zeros, landau, afe-verify, thm1, thm2.  Outputs are plain
CSV (consumable by any plotting tool); identical configuration and
identical zero table produce byte-identical files.  Exit codes:
0 success, 1 configuration error, 2 numerical-contract violation,
3 I/O error.  ZETA_ZEROS_PATH supplies a default zero file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .characters import character, gauss_sum, parse_character
from .criticalline import ThmTwoReport, make_config, thm2_report
from .errors import DataError, NumericsError, PreconditionError
from .landau import (
    landau_error_budget,
    landau_main_term,
    landau_zero_sum,
    rational_point,
)
from .lfunc import l_afe, l_oracle
from .meanvalues import MeanValueReport, build_b_polynomial, thm1_report
from .specfun import hardy_z, zeta_em
from .zeros import compute_zeros, load_zeros

AFE_GRID_SIGMAS = (0.55, 0.6, 0.75, 0.9)
AFE_GRID_HEIGHTS = (1e2, 1e3, 5e3)
AFE_GRID_DELTAS = ("1", "sqrt_q", "sqrt_5", "2", "3")


def _resolve_zeros(spec: str | None, t_needed: float):
    """--zeros takes a path or the literal "compute"; default is the
    ZETA_ZEROS_PATH environment variable, then direct computation."""
    if spec is None:
        spec = os.environ.get("ZETA_ZEROS_PATH") or "compute"
    if spec == "compute":
        return compute_zeros(t_needed)
    return load_zeros(spec)


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_t_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise PreconditionError(f"--T expects a number or comma list, got {text!r}")
    if not values or not all(0 < v < math.inf for v in values):
        raise PreconditionError(f"--T values must be positive and finite, got {text!r}")
    return values


def seed_check() -> None:
    """Fast invariant subset, run before long computations on request."""
    chi3 = character(3, 1)
    chi5 = character(5, 2)
    if abs(gauss_sum(1, chi5) * gauss_sum(-1, chi5.conjugate()) - 5) > 1e-12:
        raise NumericsError("seed check: Gauss identity failed for 5:2")
    if abs(zeta_em(2.0) - math.pi ** 2 / 6.0) > 1e-12:
        raise NumericsError("seed check: zeta(2) failed")
    if not hardy_z(14.0) * hardy_z(15.0) < 0:
        raise NumericsError("seed check: no Z sign change in (14, 15)")
    s = complex(0.75, 100.0)
    afe = l_afe(s, chi3)
    orc = l_oracle(s, chi3)
    if abs(afe.value - orc.value) > afe.bound:
        raise NumericsError("seed check: AFE bound breached at the probe point")


def _cmd_zeros(args) -> None:
    table = _resolve_zeros(args.zeros, max(args.t_values))
    lines = [f"{float(g)!r}" for g in table.up_to(max(args.t_values))]
    _write_lines(args.output, lines)
    counts = ", ".join(f"N({t:g}) = {table.count(t)}" for t in args.t_values)
    print(f"zeros: {counts}", file=sys.stderr)


def _cmd_landau(args) -> None:
    x = rational_point(args.x)
    table = _resolve_zeros(args.zeros, max(args.t_values))
    lines = ["x,T,re_sum,im_sum,main_term,budget"]
    for t in args.t_values:
        s = landau_zero_sum(x, table, t)
        lines.append(",".join([str(x), repr(float(t)), repr(s.real), repr(s.imag),
                               repr(landau_main_term(x, t)),
                               repr(landau_error_budget(x, t))]))
    _write_lines(args.output, lines)


def _cmd_afe_verify(args) -> None:
    lines = ["q,j,sigma,t,delta,afe_error,bound,ratio"]
    worst = 0.0
    for q, indices in ((3, (1,)), (5, (1, 2, 3))):
        for j in indices:
            chi = character(q, j)
            for sigma in AFE_GRID_SIGMAS:
                for t in AFE_GRID_HEIGHTS:
                    for spec in AFE_GRID_DELTAS:
                        delta = math.sqrt(q) if spec == "sqrt_q" else (
                            math.sqrt(5.0) if spec == "sqrt_5" else float(spec))
                        s = complex(sigma, t)
                        afe = l_afe(s, chi, delta)
                        err = abs(afe.value - l_oracle(s, chi).value)
                        ratio = err / afe.bound
                        worst = max(worst, ratio)
                        lines.append(",".join([
                            str(q), str(j), repr(sigma), repr(t), repr(delta),
                            repr(err), repr(afe.bound), repr(ratio)]))
    _write_lines(args.output, lines)
    print(f"afe-verify: {len(lines) - 1} points, worst error/bound = {worst:.3e}",
          file=sys.stderr)
    if worst > 1.0:
        raise NumericsError(f"AFE bound breached: worst ratio {worst:.3e} > 1")


def _write_sweep(args, header: str, report) -> None:
    """One CSV row of report(table, t) per swept height T."""
    table = _resolve_zeros(args.zeros, max(args.t_values))
    _write_lines(args.output, [header] + [report(table, t).csv_row()
                                          for t in args.t_values])


def _cmd_thm1(args) -> None:
    chi1 = parse_character(args.char1)
    chi2 = parse_character(args.char2)
    if chi1.is_principal or chi2.is_principal:
        raise PreconditionError("thm1 characters must be non-principal")
    cutoff = None if args.cutoff == "auto" else int(args.cutoff)
    if cutoff is not None:
        build_b_polynomial(cutoff, chi1, chi2)  # validate before the long run
    _write_sweep(args, MeanValueReport.CSV_HEADER, lambda table, t: thm1_report(
        table, t, args.sigma, chi1, chi2, cutoff=cutoff,
        audit_rate=args.audit_rate, parallel=args.parallel))


def _cmd_thm2(args) -> None:
    chi1 = parse_character(args.char1)
    chi2 = parse_character(args.char2)
    p = None if args.p == "auto" else int(args.p)
    cfg = make_config(chi1, chi2, p)
    _write_sweep(args, ThmTwoReport.CSV_HEADER, lambda table, t: thm2_report(
        table, t, cfg, audit_rate=args.audit_rate, parallel=args.parallel))
    print(f"thm2: p = {cfg.p}, C1 = {cfg.c1:.6f}, C2 = {cfg.c2:.6f}",
          file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpairs",
        description="Evaluate pairs of Dirichlet L-functions at the Riemann zeros.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_zeros=True):
        p.add_argument("--T", dest="t_values", type=_parse_t_list, default=[1000.0],
                       help="height, or comma-separated sweep (one CSV row per T)")
        if with_zeros:
            p.add_argument("--zeros", default=None,
                           help='zero table path, or "compute" (default: '
                                "$ZETA_ZEROS_PATH, else compute)")
        p.add_argument("--output", default=None, help="CSV output path (default stdout)")
        p.add_argument("--seed-check", action="store_true",
                       help="run the fast invariant suite before the computation")

    p = sub.add_parser("zeros", help="compute or validate a zero table")
    common(p)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("landau", help="Gonek-Landau zero sum at a rational point")
    p.add_argument("--x", required=True, help='sample point > 1, e.g. "2" or "15/2"')
    common(p)
    p.set_defaults(func=_cmd_landau)

    p = sub.add_parser("afe-verify", help="AFE-vs-oracle certification grid")
    common(p, with_zeros=False)
    p.set_defaults(func=_cmd_afe_verify)

    p = sub.add_parser("thm1", help="off-line linear-independence mean values")
    p.add_argument("--sigma", type=float, default=0.75)
    p.add_argument("--char1", default="3:1", help='first character as "q:j"')
    p.add_argument("--char2", default="5:1", help='second character as "q:j"')
    p.add_argument("--P", dest="cutoff", default="auto",
                   help='mollifier cutoff prime, or "auto" for max(q, l)')
    p.add_argument("--oracle-audit", dest="audit_rate", type=float, default=0.01)
    p.add_argument("--parallel", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_thm1)

    p = sub.add_parser("thm2", help="critical-line value-distinctness moments")
    p.add_argument("--char1", default="3:1")
    p.add_argument("--char2", default="5:1")
    p.add_argument("--p", default="auto",
                   help='auxiliary prime, or "auto" for the CRT sieve choice')
    p.add_argument("--oracle-audit", dest="audit_rate", type=float, default=0.01)
    p.add_argument("--parallel", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_thm2)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own message
        return 1 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "seed_check", False):
            seed_check()
        args.func(args)
    except (PreconditionError, ValueError) as exc:
        print(f"lpairs: configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"lpairs: numerical contract violated: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"lpairs: I/O error: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
