"""Command-line front end.

Subcommands: minpoints, ring-dims, find-relation, special-family,
verify-identities, run.  Exit codes: 0 success with all requested suites
passing, 1 invariant failure or any other error, 2 usage error or dependent
xi, 3 precision-ceiling abort.

Each flag is declared once, in the `_COMMANDS` table, with its converter,
its help and a default taken from the library object that uses it.  `_parse`
reads ``--name value`` or ``--name=value``, accepting a unique prefix of a
name; ``-h``/``--help`` prints the table.  Ranges are checked where values
are used, and a value out of range raises `UsageError`.  ``--config FILE``
holds ``key = value`` lines (comments start with '#'), each read as the flag
``--key=value`` placed before the explicit flags, so explicit flags win.  A
library warning is printed as one ``warning: <message>`` line on stderr; one
that a filter such as ``-W error`` raises exits 2 as ``error: <message>``.
An output file that cannot be written exits 1 as ``error: cannot write ...``.
"""

from __future__ import annotations

import csv
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

from .errors import (DependenceError, InvariantViolation, PrecisionError,
                     UsageError, XicubeError)
from .identities import run_identity_suite
from .lab import ExperimentConfig, dump_json, run_experiment, write_atomically
from .minimal import minimal_sequence
from .realctx import DEFAULT_MAX_BITS, DEFAULT_PRECISION_BITS, RealContext
# ring-dims reads j_subspace_dims and s_subspace_dims; j_subspace and
# s_subspace_dim stay imported because bench/spans.py wraps them here by
# name until the trace moves into the program (ROADMAP item 1)
from .ring import j_subspace, j_subspace_dims, tau
from .rigor import decimal
from .search import (SupportSet, hp_decompose, maximal_j_element,
                     s_subspace_dim, s_subspace_dims, special_family)


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
            raise UsageError(f"pair {chunk!r} is not of the form m,n") from None
        pairs.append((m, n))
    return tuple(pairs)


def _positive_rational(text: str) -> str:
    """A positive rational such as 1/10, kept as written for the report."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{text!r} is not a rational number") from None
    if value <= 0:
        raise UsageError(f"must be positive, got {text}")
    return text


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


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


_XI_FLAGS = {
    "xi": (str, None, "dec:<digits> or 'alg:<poly> in [a,b]'"),
    "bound": (int, None, "sup-norm bound for the scan"),
    "precision": (int, DEFAULT_PRECISION_BITS, "base working precision in bits"),
    "max-bits": (int, DEFAULT_MAX_BITS, "precision-escalation ceiling in bits"),
}
_RUN = ExperimentConfig._field_defaults

# command -> (function, help, {flag: (converter, default, help)}); every
# command also takes --config, prepended below
_COMMANDS = {
    "minpoints": (_cmd_minpoints, "compute the minimal-point sequence", {
        **_XI_FLAGS,
        "csv": (str, None, "write the sequence as CSV"),
        "json": (str, None, "write the sequence as JSON"),
    }),
    "ring-dims": (_cmd_ring_dims, "verify the graded dimension tables", {
        "lmax": (int, 10, "largest degree for the full ring"),
        "s-lmax": (int, 8, "largest half-degree for the F,M,N subring"),
    }),
    "find-relation": (_cmd_find_relation, "maximal-valuation element on a support", {
        "degree": (int, None, "ring degree d"),
        "support": (_support, None, "semicolon-separated m,n pairs, e.g. '3,0;0,2'"),
        "json": (str, None, "write the search report as JSON"),
    }),
    "special-family": (_cmd_special_family, "the distinguished one-dimensional family", {
        "ell": (int, None, "family parameter (>= 1)"),
        "json": (str, None, "write coefficients and certificates as JSON"),
    }),
    "verify-identities": (_cmd_verify_identities, "run the exact identity suite", {
        "samples": (int, 200, "random triples per identity"),
        "seed": (int, 0, "RNG seed"),
    }),
    "run": (_cmd_run, "full experiment: scan, suites, reports", {
        **_XI_FLAGS,
        "epsilon": (_positive_rational, _RUN["epsilon"],
                    "rational epsilon for the pair inequality"),
        "suites": (lambda text: tuple(text.split(",")), _RUN["suites"],
                   "comma list of suites"),
        "window": (int, _RUN["lambda_window"], "trailing window for the exponent estimate"),
        "csv": (str, None, "write per-pair CSV"),
        "json": (str, None, "write the JSON summary"),
        "reproducer": (str, _RUN["reproducer_path"], "path for the failure reproducer dump"),
    }),
}
for _, _, _flags in _COMMANDS.values():
    _flags["config"] = (str, None, "key = value file mirroring the flags")

def _help(commands) -> str:
    lines = ["xicube: exact lab for approximation to (1, xi, xi^3)"]
    for command in commands:
        _, about, flags = _COMMANDS[command]
        lines.append(f"\nxicube {command}: {about}")
        for flag, (_, default, about) in flags.items():
            if default is not None:
                shown = ",".join(default) if isinstance(default, tuple) else default
                about += f" (default {shown})"
            lines.append(f"  --{flag:<12} {about}")
    return "\n".join(lines)


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and its flag values read from argv.

    ``-h``/``--help`` prints the flags and exits 0; anything else that is not
    a known command followed by flags with their values raises `UsageError`.
    """
    if argv[:1] in (["-h"], ["--help"]):
        print(_help(_COMMANDS))
        raise SystemExit(0)
    if not argv or argv[0] not in _COMMANDS:
        raise UsageError(f"the command must be one of {', '.join(_COMMANDS)}"
                         + (f", not {argv[0]!r}" if argv else ""))
    command, flags = argv[0], _COMMANDS[argv[0]][2]
    values = {flag: default for flag, (_, default, _) in flags.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            print(_help([command]))
            raise SystemExit(0)
        name, eq, text = token.partition("=")
        # no flag name is a prefix of another, so a full name matches only itself
        matches = [flag for flag in flags if name.startswith("--") and flag.startswith(name[2:])]
        if len(matches) != 1:
            what = "ambiguous option" if matches else "unrecognized argument"
            raise UsageError(f"{what} {token!r} for {command}")
        flag = matches[0]
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise UsageError(f"argument --{flag}: expected one value")
        try:
            values[flag] = flags[flag][0](text)
        except ValueError as exc:
            raise UsageError(f"argument --{flag}: {exc}") from None
    return SimpleNamespace(command=command,
                           **{flag.replace("-", "_"): v for flag, v in values.items()})


def main(argv=None) -> int:
    """Run one subcommand; a usage error in argv itself exits with SystemExit(2)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except UsageError as exc:
        print("usage: xicube <command> [--flag value | --flag=value]...; "
              f"--help lists them\nerror: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    with warnings.catch_warnings():
        # filters (such as -W) still apply; a shown warning is one line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                          file=sys.stderr)
        try:
            if args.config:
                flags = _config_flags(args.config)
                try:
                    args = _parse(argv[:1] + flags + argv[1:])
                except UsageError as exc:
                    raise UsageError(f"config file {args.config}: {exc}") from None
            return _COMMANDS[args.command][0](args)
        except (UsageError, DependenceError, Warning) as exc:
            return _report(2, "error", exc)
        except PrecisionError as exc:
            return _report(3, "precision ceiling", exc)
        except InvariantViolation as exc:
            return _report(1, "invariant FAILED", exc)
        except (XicubeError, ValueError) as exc:
            return _report(1, "error", exc)


def _report(rc: int, label: str, exc: Exception) -> int:
    """Print the error's line, then each of its notes on a line of its own; return rc."""
    print(f"{label}: {exc}", *getattr(exc, "__notes__", ()), sep="\n", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
