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
from .characters import character, parse_character
from .criticalline import ThmTwoReport, make_config, thm2_sweep
from .errors import DataError, NumericsError, PreconditionError
from .landau import (
    landau_error_budgets,
    landau_main_term,
    landau_zero_sum,
    rational_point,
)
from .lfunc import l_afe, l_oracle
from .meanvalues import MeanValueReport, _csv_row, thm1_sweep
from .zeros import compute_zeros, load_zeros

AFE_GRID_SIGMAS = (0.55, 0.6, 0.75, 0.9)
AFE_GRID_HEIGHTS = (1e2, 1e3, 5e3)


def _resolve_zeros(spec: str | None, t_needed: float):
    """--zeros takes a path or the literal "compute"; default is the
    ZETA_ZEROS_PATH environment variable, then direct computation."""
    if spec is None:
        spec = os.environ.get("ZETA_ZEROS_PATH") or "compute"
    if spec == "compute":
        return compute_zeros(t_needed)
    return load_zeros(spec)


def _write_lines(path: str | None, lines: list[str]) -> None:
    """Each line with its newline, to path or stdout: no lines, no text."""
    text = "".join(line + "\n" for line in lines)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_t_list(text: str) -> list[float]:
    """--T's type: argparse prints an ArgumentTypeError's own message (any
    other error becomes "invalid _parse_t_list value"), and run exits 1."""
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or a comma list, got {text!r}")
    if not values or not all(0 < v < math.inf for v in values):
        raise argparse.ArgumentTypeError(
            f"values must be positive and finite, got {text!r}")
    return values


def _cmd_zeros(args) -> None:
    table = _resolve_zeros(args.zeros, max(args.t_values))
    lines = [f"{float(g)!r}" for g in table.up_to(max(args.t_values))]
    _write_lines(args.output, lines)
    counts = ", ".join(f"N({t:g}) = {table.count(t)}" for t in args.t_values)
    print(f"zeros: {counts}", file=sys.stderr)


def _cmd_landau(args) -> None:
    x = rational_point(args.x)
    # the budgets check each T, before the zero table is loaded
    budgets = landau_error_budgets(x, args.t_values)
    table = _resolve_zeros(args.zeros, max(args.t_values))
    lines = ["x,T,re_sum,im_sum,main_term,budget"]
    for t, budget in zip(args.t_values, budgets):
        s = landau_zero_sum(x, table, t)
        lines.append(_csv_row([x, float(t), s.real, s.imag, landau_main_term(x, t),
                               budget]))
    _write_lines(args.output, lines)


def _cmd_afe_verify(args) -> None:
    lines = ["q,j,sigma,t,delta,afe_error,bound,ratio"]
    worst = 0.0
    for q, indices in ((3, (1,)), (5, (1, 2, 3))):
        for j in indices:
            chi = character(q, j)
            for sigma in AFE_GRID_SIGMAS:
                for t in AFE_GRID_HEIGHTS:
                    s = complex(sigma, t)
                    oracle = l_oracle(s, chi).value
                    for delta in (1.0, math.sqrt(q), math.sqrt(5.0), 2.0, 3.0):
                        afe = l_afe(s, chi, delta)
                        err = abs(afe.value - oracle)
                        ratio = err / afe.bound
                        worst = max(worst, ratio)
                        lines.append(_csv_row([q, j, sigma, t, delta, err,
                                               afe.bound, ratio]))
    _write_lines(args.output, lines)
    print(f"afe-verify: {len(lines) - 1} points, worst error/bound = {worst:.3e}",
          file=sys.stderr)
    if worst > 1.0:
        raise NumericsError(f"AFE bound breached: worst ratio {worst:.3e} > 1")


def _write_sweep(args, header: str, reports) -> None:
    """One CSV row per swept height T: reports(table) in sweep order; the
    sweep has checked every option, so the table is loaded only now."""
    table = _resolve_zeros(args.zeros, max(args.t_values))
    _write_lines(args.output, [header] + [r.csv_row() for r in reports(table)])


def _cmd_thm1(args) -> None:
    cutoff = None if args.cutoff == "auto" else int(args.cutoff)
    _write_sweep(args, MeanValueReport.CSV_HEADER, thm1_sweep(
        args.t_values, args.sigma, parse_character(args.char1),
        parse_character(args.char2), cutoff))


def _cmd_thm2(args) -> None:
    cfg = make_config(parse_character(args.char1), parse_character(args.char2),
                      None if args.p == "auto" else int(args.p))
    _write_sweep(args, ThmTwoReport.CSV_HEADER,
                 thm2_sweep(args.t_values, cfg, args.method))
    print(f"thm2: p = {cfg.p}, C1 = {cfg.c1:.6f}, C2 = {cfg.c2:.6f}",
          file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpairs",
        description="Evaluate pairs of Dirichlet L-functions at the Riemann zeros.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_zeros=True):
        if with_zeros:
            p.add_argument("--T", dest="t_values", type=_parse_t_list,
                           default=[1000.0],
                           help="height, or comma-separated sweep (one CSV row per T)")
            p.add_argument("--zeros", default=None,
                           help='zero table path, or "compute" (default: '
                                "$ZETA_ZEROS_PATH, else compute)")
        p.add_argument("--output", default=None, help="CSV output path (default stdout)")

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
    common(p)
    p.set_defaults(func=_cmd_thm1)

    p = sub.add_parser("thm2", help="critical-line value-distinctness moments")
    p.add_argument("--char1", default="3:1")
    p.add_argument("--char2", default="5:1")
    p.add_argument("--p", default="auto",
                   help='auxiliary prime, or "auto" for the CRT sieve choice')
    p.add_argument("--method", choices=("afe", "oracle"), default="afe",
                   help='"afe" (fast windows, audited at every 100th zero) or '
                        '"oracle" (certified Hurwitz values at every zero)')
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
