"""Command-line front door: validate, peel, extend, curvature, certify.

Exit codes are a stable contract:

  0  success
  1  I/O, JSON-parse, schema, or flag-usage problems
  2  invalid mathematics (Jacobi/class/adapted failures, bad cocycles,
     non-positive-definite metrics, dimension mismatches)
  3  internal bound violation (BoundViolated) or certification budget
     exhaustion (BudgetNotMet)

Data files written by `peel` and `extend` are pure canonical JSON so they
round-trip byte-for-byte; `curvature` and `certify` reports embed the tool
version and the full run configuration.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from . import __version__, fileio
from .algebra import (check_adapted, check_class, check_integer_constants,
                      check_jacobi)
from .coords import lattice_closed
from .errors import (BoundViolated, BudgetNotMet, DimensionMismatch,
                     NilflatError, SchemaError)
from .tower import extend_by_cocycle, peel_tower

if TYPE_CHECKING:
    from .metric import LeftInvariantMetric

# The numerical layer (numpy, `metric`, `submersion`, `scan`, `certify`) is
# imported inside the commands that use it, so `validate`, `peel`, `extend`
# and `--help` start without numpy.

EXIT_OK = 0
EXIT_IO = 1
EXIT_MATH = 2
EXIT_BOUND = 3


class _UsageError(Exception):
    """Flag values that violate the run-config invariants (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for invalid math."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _add_run_arguments(p: argparse.ArgumentParser, metric_help: str,
                       echoed_in: str, *own: tuple) -> None:
    """`path`, `--metric`, the command's own (flag, keywords) options, then
    `--samples` and `--seed`, which are echoed in `echoed_in` only."""
    p.add_argument("path", help="algebra/lattice JSON file")
    p.add_argument("--metric", help=metric_help)
    for flag, keywords in own:
        p.add_argument(flag, **keywords)
    p.add_argument("--samples", type=int, default=4096,
                   help=f"at least 1; echoed in the {echoed_in}, no effect on "
                        "results: the sup search draws no plane "
                        "(default: 4096)")
    p.add_argument("--seed", type=int, default=0,
                   help=f"non-negative; echoed in the {echoed_in}, no effect on "
                        "results (default: 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nilflat",
        description=("Peel nilpotent lattices into circle-bundle towers, "
                     "rebuild them from cocycles, and certify almost-flatness "
                     "of the associated nilmanifolds numerically."))
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser(
        "validate",
        help="check a lattice file (Jacobi, nilpotency class, adapted basis, "
             "integer constants; lattice closure reported, never gating)")
    p.add_argument("path", help="algebra/lattice JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "peel", help="peel a lattice into its iterated circle-bundle tower")
    p.add_argument("path", help="algebra/lattice JSON file")
    p.add_argument("--out", help="tower JSON output path (default: stdout)")
    p.set_defaults(func=cmd_peel)

    p = sub.add_parser(
        "extend", help="centrally extend a base lattice by a 2-cocycle")
    p.add_argument("base", help="base algebra/lattice JSON file")
    p.add_argument("cocycle", help="cocycle JSON file")
    p.add_argument("--out",
                   help="extended lattice JSON output path (default: stdout)")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser(
        "curvature",
        help="scan sup|K^t| over a geometric t grid against the "
             "sup|K_base| + C*sqrt(t) bound")
    _add_run_arguments(
        p, "left-invariant metric JSON file (default: identity)", "summary",
        ("--t-max", dict(type=float, default=1.0,
                         help="largest t in the grid, at most 1 (default: 1.0)")),
        ("--t-min", dict(type=float, default=1e-6,
                         help="smallest t in the grid (default: 1e-6)")),
        ("--t-points", dict(type=int, default=7,
                            help="number of log-spaced grid points (default: 7)")))
    p.add_argument("--out",
                   help="output path; with csv format a *.summary.json file "
                        "is written beside it (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="primary artifact: CSV table or JSON summary "
                        "(default: csv)")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser(
        "certify",
        help="schedule per-level fiber collapse until a bound on sup|K| "
             "is <= eps")
    _add_run_arguments(
        p, "seed metric JSON file (default: identity)", "schedule",
        ("--eps", dict(type=float, required=True,
                       help="target for the bound on sup|K|")))
    p.add_argument("--out", help="schedule JSON path (default: stdout)")
    p.set_defaults(func=cmd_certify)

    return parser


def _envelope(command: str, config: Dict[str, Any],
              report: Dict[str, Any]) -> Dict[str, Any]:
    """Reproducibility wrapper: every JSON report carries version + config."""
    return {"tool": "nilflat", "version": __version__, "command": command,
            "config": config, "report": report}


def _emit(text: str, out: Optional[str], human_line: str) -> None:
    """Artifact to --out (with a one-line note on stdout) or to stdout."""
    if out is None:
        sys.stdout.write(text)
    else:
        fileio.write_text(out, text)
        print(human_line)


def _load_metric_arg(path: Optional[str], dim: int) -> LeftInvariantMetric:
    from .metric import LeftInvariantMetric
    if path is None:
        return LeftInvariantMetric.identity(dim)
    matrix = fileio.load_metric(path)
    if matrix.shape[0] != dim:
        raise DimensionMismatch(
            f"metric dim {matrix.shape[0]} does not match algebra dim {dim}")
    return LeftInvariantMetric(matrix=matrix)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    algebra = fileio.load_algebra(args.path)
    for check in (check_jacobi, check_class, check_adapted,
                  check_integer_constants):
        report = check(algebra)
        if not report:
            print(f"{report.check}: FAIL — {report.message}")
            print(f"invalid: {args.path}", file=sys.stderr)
            return EXIT_MATH
        print(f"{report.check}: ok")

    # Reported at every class, never gating: whether the integer second-kind
    # points form a group (coords.lattice_closed). A failure, possible from
    # class 3 on, means the exp(e_i) generate more (in n4, exp(1/2 e4)).
    closed = lattice_closed(algebra)
    if closed:
        print("lattice_closed: ok")
    else:
        print(f"lattice_closed: fails ({closed.message}) — the exp(e_i) "
              f"generate more than the integer points")
    print(f"valid: {args.path} (dim {algebra.dim}, "
          f"class {algebra.declared_class})")
    return EXIT_OK


def cmd_peel(args: argparse.Namespace) -> int:
    lattice = fileio.load_lattice(args.path)
    tower = peel_tower(lattice)
    text = fileio.dump_tower(tower)
    _emit(text, args.out,
          f"peeled {args.path}: {len(tower.steps)} steps -> {args.out}")
    return EXIT_OK


def cmd_extend(args: argparse.Namespace) -> int:
    base = fileio.load_lattice(args.base)
    cocycle = fileio.load_cocycle(args.cocycle)
    extended = extend_by_cocycle(base, cocycle)
    text = fileio.dump_algebra(extended.algebra)
    _emit(text, args.out,
          f"extended {args.base} by {args.cocycle}: "
          f"dim {extended.dim} -> {args.out}")
    return EXIT_OK


def _check_scan_flags(args: argparse.Namespace) -> None:
    from .scan import T_MIN
    for flag, value in (("--t-min", args.t_min), ("--t-max", args.t_max)):
        if not math.isfinite(value):
            raise _UsageError(f"{flag} must be finite, got {value}")
    if args.t_max > 1.0:
        raise _UsageError(f"--t-max must be <= 1, got {args.t_max}")
    if not (args.t_min > 0.0):
        raise _UsageError(f"--t-min must be positive, got {args.t_min}")
    if args.t_min < T_MIN:
        raise _UsageError(
            f"--t-min must be >= {T_MIN:.3g} (below it t² underflows "
            f"float64), got {args.t_min}")
    if args.t_max < args.t_min:
        raise _UsageError(
            f"--t-max ({args.t_max}) must be >= --t-min ({args.t_min})")
    if args.t_points < 1:
        raise _UsageError(f"--t-points must be >= 1, got {args.t_points}")
    _check_echoed_flags(args)


def _check_echoed_flags(args: argparse.Namespace) -> None:
    """--samples and --seed change no value, but must be valid to be echoed."""
    if args.samples < 1:
        raise _UsageError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")


def cmd_curvature(args: argparse.Namespace) -> int:
    import numpy as np
    from .scan import lemma_scan, report_csv, report_summary
    from .submersion import build_split
    _check_scan_flags(args)
    lattice = fileio.load_lattice(args.path)
    algebra = lattice.algebra
    n = algebra.dim
    if n < 2:
        raise DimensionMismatch(
            "curvature scan needs dim >= 2 (one horizontal direction)")
    metric = _load_metric_arg(args.metric, n)
    z = np.zeros(n)
    z[n - 1] = 1.0
    split = build_split(metric, z)
    try:  # numpy refuses a size past its limits before allocating
        grid = np.geomspace(args.t_max, args.t_min, args.t_points)
    except (ValueError, IndexError, MemoryError) as exc:  # IndexError: int64 wrap
        raise _UsageError(f"--t-points {args.t_points} is too large ({exc})") from None
    # geomspace can put interior points an ulp outside [t_min, t_max] (equal
    # ends give 0.3, 0.29999999999999993, …, 0.3); clipping and a running
    # minimum make the grid non-increasing and leave a descending one as is
    t_grid = np.minimum.accumulate(np.clip(grid, args.t_min, args.t_max))

    report = lemma_scan(algebra, metric, split, t_grid,
                        n_samples=args.samples, seed=args.seed)

    config = {"input": args.path, "metric": args.metric,
              "t_max": args.t_max, "t_min": args.t_min,
              "t_points": args.t_points, "samples": args.samples,
              "seed": args.seed, "format": args.format, "out": args.out}
    summary = fileio.canonical_json(
        _envelope("curvature", config, report_summary(report)))
    csv_text = report_csv(report)

    exponent = report.exponent_fit
    shown = "n/a" if exponent is None else f"{exponent:.4f}"
    note = (f"scanned {args.path}: {args.t_points} t values, "
            f"C = {report.C:.6g}, exponent_fit = {shown}")

    if args.format == "csv":
        if args.out is None:
            sys.stdout.write(csv_text)
        else:
            fileio.write_text(args.out, csv_text)
            summary_path = Path(args.out).with_suffix(".summary.json")
            fileio.write_text(summary_path, summary)
            print(f"{note} -> {args.out}, {summary_path}")
    else:
        _emit(summary, args.out, f"{note} -> {args.out}")
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    from .certify import certify_almost_flat, certificate_summary
    if not (0.0 < args.eps < math.inf):
        raise _UsageError(f"--eps must be positive and finite, got {args.eps}")
    _check_echoed_flags(args)
    lattice = fileio.load_lattice(args.path)
    metric = _load_metric_arg(args.metric, lattice.dim)
    tower = peel_tower(lattice)

    report = certify_almost_flat(tower, metric, args.eps,
                                 seed=args.seed, n_samples=args.samples)

    config = {"input": args.path, "metric": args.metric, "eps": args.eps,
              "samples": args.samples, "seed": args.seed, "out": args.out}
    text = fileio.canonical_json(
        _envelope("certify", config, certificate_summary(report)))
    _emit(text, args.out,
          f"certified {args.path}: sup|K| = {report.sup_abs_K:.6g}, bound "
          f"{report.sup_abs_K_bound:.6g} <= {args.eps:g}, "
          f"diam <= {report.diam_bound:.6g} -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built once: `parse_args` leaves it
    unchanged and fills a fresh namespace on every call."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, OSError, NilflatError) as exc:
        print(f"nilflat: error: {exc}", file=sys.stderr)
        if isinstance(exc, (BoundViolated, BudgetNotMet)):
            return EXIT_BOUND
        if isinstance(exc, (_UsageError, OSError, SchemaError)):
            return EXIT_IO
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
