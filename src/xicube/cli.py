"""Command-line front end.

Subcommands: minpoints, ring-dims, find-relation, special-family,
verify-identities, run.  Exit codes: 0 success with all requested suites
passing, 1 invariant failure or any other error, 2 usage error (argparse
uses this too) or dependent xi, 3 precision-ceiling abort.

Each flag is declared once, in `_parser`, with its type and a default taken
from the library object that uses it; ranges are checked where values are
used, and a value out of range raises `UsageError`.  ``--config FILE`` holds
``key = value`` lines (comments start with '#'), each read as the flag
``--key=value`` placed before the explicit flags, so explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction

from .errors import (DependenceError, InvariantViolation, PrecisionError,
                     UsageError, XicubeError)
from .identities import run_identity_suite
from .lab import (ALL_SUITES, ExperimentConfig, dump_json, run_experiment,
                  write_atomically)
from .minimal import minimal_sequence
from .realctx import DEFAULT_MAX_BITS, DEFAULT_PRECISION_BITS, RealContext
# ring-dims reads j_subspace_dims and s_subspace_dims; j_subspace and
# s_subspace_dim stay imported because bench/spans.py wraps them here by
# name until the trace moves into the program (ROADMAP item 1)
from .ring import j_subspace, j_subspace_dims, tau
from .rigor import decimal
from .search import (SupportSet, hp_decompose, maximal_j_element,
                     s_subspace_dim, s_subspace_dims, special_family)


class _ConfigParser(argparse.ArgumentParser):
    """The CLI parser for config flags: its errors raise UsageError."""

    def error(self, message):
        raise UsageError(f"config file: {message}")


def _config_flags(path: str) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` flags."""
    try:
        fh = open(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from exc
    flags = []
    with fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {line!r}; expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "config":
                raise UsageError(f"config file {path} cannot name another config file")
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _support(text: str) -> tuple[tuple[int, int], ...]:
    """Semicolon-separated `m,n` pairs."""
    pairs = []
    for chunk in text.split(";"):
        try:
            m, n = map(int, chunk.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"pair {chunk!r} is not of the form m,n") from None
        pairs.append((m, n))
    return tuple(pairs)


def _positive_rational(text: str) -> str:
    """A positive rational such as 1/10, kept as written for the report."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return text


def _add_xi_flags(sub):
    sub.add_argument("--xi", help="dec:<digits> or 'alg:<poly> in [a,b]'")
    sub.add_argument("--bound", type=int, help="sup-norm bound for the scan")
    sub.add_argument("--precision", type=int, default=DEFAULT_PRECISION_BITS,
                     help="base working precision in bits (default %(default)s)")
    sub.add_argument("--max-bits", type=int, default=DEFAULT_MAX_BITS,
                     help="precision-escalation ceiling in bits (default %(default)s)")


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    p = parser_class(prog="xicube",
                     description="exact lab for approximation to (1, xi, xi^3)")
    subs = p.add_subparsers(dest="command", required=True)

    def subcommand(name, help):
        sp = subs.add_parser(name, help=help)
        sp.add_argument("--config", help="key = value file mirroring the flags")
        return sp

    sp = subcommand("minpoints", "compute the minimal-point sequence")
    _add_xi_flags(sp)
    sp.add_argument("--csv", help="write the sequence as CSV")
    sp.add_argument("--json", help="write the sequence as JSON")

    sp = subcommand("ring-dims", "verify the graded dimension tables")
    sp.add_argument("--lmax", type=int, default=10,
                    help="largest degree for the full ring (default %(default)s)")
    sp.add_argument("--s-lmax", type=int, default=8,
                    help="largest half-degree for the F,M,N subring (default %(default)s)")

    sp = subcommand("find-relation", "maximal-valuation element on a support")
    sp.add_argument("--degree", type=int, help="ring degree d")
    sp.add_argument("--support", type=_support,
                    help="semicolon-separated m,n pairs, e.g. '3,0;0,2'")
    sp.add_argument("--json", help="write the search report as JSON")

    sp = subcommand("special-family", "the distinguished one-dimensional family")
    sp.add_argument("--ell", type=int, help="family parameter (>= 1)")
    sp.add_argument("--json", help="write coefficients and certificates as JSON")

    sp = subcommand("verify-identities", "run the exact identity suite")
    sp.add_argument("--samples", type=int, default=200,
                    help="random triples per identity (default %(default)s)")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (default %(default)s)")

    sp = subcommand("run", "full experiment: scan, suites, reports")
    _add_xi_flags(sp)
    defaults = ExperimentConfig._field_defaults
    sp.add_argument("--epsilon", type=_positive_rational, default=defaults["epsilon"],
                    help="rational epsilon for the pair inequality (default %(default)s)")
    sp.add_argument("--suites", type=lambda text: tuple(text.split(",")),
                    default=defaults["suites"],
                    help=f"comma list from {','.join(ALL_SUITES)} (default all)")
    sp.add_argument("--window", type=int, default=defaults["lambda_window"],
                    help="trailing window for the exponent estimate (default %(default)s)")
    sp.add_argument("--csv", help="write per-pair CSV")
    sp.add_argument("--json", help="write the JSON summary")
    sp.add_argument("--reproducer", default=defaults["reproducer_path"],
                    help="path for the failure reproducer dump (default %(default)s)")
    return p


def _cmd_minpoints(args) -> int:
    _require(args, "xi", "bound")
    ctx = RealContext(args.xi, args.precision, args.max_bits)
    seq = minimal_sequence(ctx, args.bound)
    rows = [{"index": p.index, "x0": p.point[0], "x1": p.point[1], "x2": p.point[2],
             "norm": p.norm, "err": decimal(p.err, 12)} for p in seq]
    for r in rows:
        print(f"{r['index']:4d}  ({r['x0']}, {r['x1']}, {r['x2']})  "
              f"norm={r['norm']}  L~{r['err']}")
    if args.csv:
        fields = ["index", "x0", "x1", "x2", "norm", "err"]
        write_atomically(args.csv, lambda fh: csv.writer(fh).writerows(
            [fields] + [[r[f] for f in fields] for r in rows]), newline="")
    if args.json:
        dump_json(args.json, rows)
    print(f"{len(seq)} minimal points with norm <= {args.bound}")
    return 0


def _dims_row(label: str, ell: int, row: list[int]) -> int:
    """Print one table row with its own verdict; return its disagreeing cells."""
    bad = sum(got != max(0, tau(ell) - tau(k - 1)) for k, got in enumerate(row))
    print(f"{label}: dims k=0..{ell + 2}: {row}  [{'FAIL' if bad else 'PASS'}]")
    return bad


def _cmd_ring_dims(args) -> int:
    for flag, top in (("--lmax", args.lmax), ("--s-lmax", args.s_lmax)):
        if top < 0:
            raise UsageError(f"{flag} must be >= 0, got {top}")
    bad = sum(_dims_row(f"R_{ell}", ell, j_subspace_dims(ell)) for ell in range(args.lmax + 1))
    bad += sum(_dims_row(f"S_{2 * ell}", ell, s_subspace_dims(2 * ell))
               for ell in range(args.s_lmax + 1))
    if bad:
        print(f"{bad} cells disagree with the dimension formula", file=sys.stderr)
        return 1
    print("all dimension cells PASS")
    return 0


def _cmd_find_relation(args) -> int:
    _require(args, "degree", "support")
    support = SupportSet(args.degree, args.support)
    result = maximal_j_element(support)
    print(f"degree {support.d}, support {list(support.pairs)}")
    print(f"maximal valuation k = {result.k_max}, dimension {len(result.basis)}"
          + ("" if result.unique else "  (non-unique: full basis returned)"))
    for elem in result.basis:
        print("  " + elem.integer_normalized().serialize())
    if args.json:
        dump_json(args.json, {
            "degree": support.d,
            "support": [list(p) for p in support.pairs],
            "k_max": result.k_max,
            "dimension": len(result.basis),
            "unique": result.unique,
            "dims_probed": {str(k): v for k, v in sorted(result.dims.items())},
            "basis": [e.integer_normalized().serialize() for e in result.basis],
        })
    return 0


def _cmd_special_family(args) -> int:
    _require(args, "ell")
    ell = args.ell
    elem = special_family(ell)
    dec = hp_decompose(elem, ell)
    print(f"family element (ell={ell}): {elem.serialize()}")
    print(f"anchors: F^{6 * ell + 1} -> {elem.coefficient(6 * ell + 1, 0)}, "
          f"G0^{3 * ell} T^2 -> {elem.coefficient(0, 3 * ell)}")
    print(f"triples (r_k, s_k, t_k): {dec.rst}")
    print(f"unit a = {dec.a}, anchor b = {dec.b}, rescale = {dec.scale}")
    failed = sorted(name for name, ok in dec.checks.items() if not ok)
    print("parity certificate: " + ("PASS" if not failed else f"FAIL {failed}"))
    if args.json:
        dump_json(args.json, {
            "ell": ell,
            "element": elem.serialize(),
            "anchors": {
                "F_power": str(elem.coefficient(6 * ell + 1, 0)),
                "G_T2": str(elem.coefficient(0, 3 * ell)),
            },
            "rst": [list(t) for t in dec.rst],
            "a": dec.a,
            "b": dec.b,
            "scale": str(dec.scale),
            "checks": dict(sorted(dec.checks.items())),
        })
    return 0 if not failed else 1


def _cmd_verify_identities(args) -> int:
    results = run_identity_suite(args.samples, args.seed)
    bad = 0
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        bad += not ok
    print(f"{len(results) - bad}/{len(results)} identities hold "
          f"({args.samples} samples, seed {args.seed})")
    return 0 if bad == 0 else 1


def _cmd_run(args) -> int:
    _require(args, "xi", "bound")
    report = run_experiment(ExperimentConfig(
        xi=args.xi,
        norm_bound=args.bound,
        precision_bits=args.precision,
        max_bits=args.max_bits,
        epsilon=args.epsilon,
        suites=args.suites,
        lambda_window=args.window,
        csv_path=args.csv,
        json_path=args.json,
        reproducer_path=args.reproducer,
    ))
    for name, verdict in sorted(report.suites.items()):
        print(f"suite {name}: {verdict}")
    print(f"{len(report.sequence)} points, {len(report.records)} pairs, "
          f"zero counts {report.monitors['nonvanishing_zero_counts']}")
    return 0


_COMMANDS = {
    "minpoints": _cmd_minpoints,
    "ring-dims": _cmd_ring_dims,
    "find-relation": _cmd_find_relation,
    "special-family": _cmd_special_family,
    "verify-identities": _cmd_verify_identities,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    """Run one subcommand; a usage error in argv itself exits through argparse."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    try:
        if args.config:
            at = argv.index(args.command) + 1
            args = _parser(_ConfigParser).parse_args(
                argv[:at] + _config_flags(args.config) + argv[at:])
        return _COMMANDS[args.command](args)
    except (UsageError, DependenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision ceiling: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant FAILED: {exc}", file=sys.stderr)
        return 1
    except (XicubeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
