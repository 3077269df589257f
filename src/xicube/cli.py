"""Command-line front end.

Subcommands: minpoints, ring-dims, find-relation, special-family,
verify-identities, run.  Exit codes: 0 success with all requested suites
passing, 1 invariant failure, 2 usage error (argparse uses this too),
3 precision-ceiling abort.

Every flag can also be supplied through ``--config FILE`` holding
``key = value`` lines (comments start with '#'); explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (DependenceError, InvariantViolation, PrecisionError,
                     XicubeError)
from .identities import run_identity_suite
from .lab import ALL_SUITES, ExperimentConfig, run_experiment
from .minimal import minimal_sequence
from .realctx import RealContext
from .ring import j_subspace, tau
from .rigor import decimal
from .search import (SupportSet, hp_decompose, maximal_j_element,
                     s_subspace_dim, special_family)

_INT_KEYS = {"bound", "precision", "max_bits", "ell", "lmax", "s_lmax",
             "samples", "seed", "degree", "window"}


def _load_config(path: str) -> dict:
    out = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from exc
    with fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {line!r}; expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key in _INT_KEYS:
                try:
                    value = int(value)
                except ValueError:
                    raise ValueError(f"config key {key!r} needs an integer, "
                                     f"got {value!r}") from None
            out[key] = value
    return out


def _merge_config(args: argparse.Namespace):
    if getattr(args, "config", None):
        for key, value in _load_config(args.config).items():
            if key in ("command", "config") or not hasattr(args, key):
                raise ValueError(f"config key {key!r} is not an option of {args.command}")
            if getattr(args, key) is None:
                setattr(args, key, value)


def _add_common(sub):
    sub.add_argument("--config", help="key = value file mirroring the flags")


def _add_xi_flags(sub):
    sub.add_argument("--xi", help="dec:<digits> or 'alg:<poly> in [a,b]'")
    sub.add_argument("--bound", type=int, help="sup-norm bound for the scan")
    sub.add_argument("--precision", type=int, help="base working precision in bits")
    sub.add_argument("--max-bits", type=int, dest="max_bits",
                     help="precision-escalation ceiling in bits")


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xicube",
                                description="exact lab for approximation to (1, xi, xi^3)")
    subs = p.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("minpoints", help="compute the minimal-point sequence")
    _add_common(sp)
    _add_xi_flags(sp)
    sp.add_argument("--csv", help="write the sequence as CSV")
    sp.add_argument("--json", help="write the sequence as JSON")

    sp = subs.add_parser("ring-dims", help="verify the graded dimension tables")
    _add_common(sp)
    sp.add_argument("--lmax", type=int, help="largest degree for the full ring (default 10)")
    sp.add_argument("--s-lmax", type=int, dest="s_lmax",
                    help="largest half-degree for the F,M,N subring (default 8)")

    sp = subs.add_parser("find-relation", help="maximal-valuation element on a support")
    _add_common(sp)
    sp.add_argument("--degree", type=int, help="ring degree d")
    sp.add_argument("--support", help="semicolon-separated pairs, e.g. '3,0;0,2'")
    sp.add_argument("--json", help="write the search report as JSON")

    sp = subs.add_parser("special-family", help="the distinguished one-dimensional family")
    _add_common(sp)
    sp.add_argument("--ell", type=int, help="family parameter (>= 1)")
    sp.add_argument("--json", help="write coefficients and certificates as JSON")

    sp = subs.add_parser("verify-identities", help="run the exact identity suite")
    _add_common(sp)
    sp.add_argument("--samples", type=int, help="random triples per identity (default 200)")
    sp.add_argument("--seed", type=int, help="RNG seed (default 0)")

    sp = subs.add_parser("run", help="full experiment: scan, suites, reports")
    _add_common(sp)
    _add_xi_flags(sp)
    sp.add_argument("--epsilon", help="rational epsilon for the pair inequality (default 1/10)")
    sp.add_argument("--suites", help=f"comma list from {','.join(ALL_SUITES)} (default all)")
    sp.add_argument("--window", type=int, help="trailing window for the exponent estimate")
    sp.add_argument("--csv", help="write per-pair CSV")
    sp.add_argument("--json", help="write the JSON summary")
    sp.add_argument("--reproducer", help="path for the failure reproducer dump")
    return p


def _cmd_minpoints(args) -> int:
    _require(args, "xi", "bound")
    ctx = RealContext(args.xi, args.precision or 192, args.max_bits or (1 << 16))
    seq = minimal_sequence(ctx, args.bound)
    rows = [{"index": p.index, "x0": p.point[0], "x1": p.point[1], "x2": p.point[2],
             "norm": p.norm, "err": decimal(p.err, 12)} for p in seq]
    for r in rows:
        print(f"{r['index']:4d}  ({r['x0']}, {r['x1']}, {r['x2']})  "
              f"norm={r['norm']}  L~{r['err']}")
    if args.csv:
        import csv as _csv
        with open(args.csv, "w", newline="") as fh:
            w = _csv.DictWriter(fh, fieldnames=["index", "x0", "x1", "x2", "norm", "err"])
            w.writeheader()
            w.writerows(rows)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, sort_keys=True, indent=2)
            fh.write("\n")
    print(f"{len(seq)} minimal points with norm <= {args.bound}")
    return 0


def _dims_row(label: str, ell: int, dim) -> int:
    """Print one table row with its own verdict; return its disagreeing cells."""
    row = [dim(k) for k in range(ell + 3)]
    bad = sum(got != max(0, tau(ell) - tau(k - 1)) for k, got in enumerate(row))
    print(f"{label}: dims k=0..{ell + 2}: {row}  [{'FAIL' if bad else 'PASS'}]")
    return bad


def _cmd_ring_dims(args) -> int:
    lmax = args.lmax if args.lmax is not None else 10
    s_lmax = args.s_lmax if args.s_lmax is not None else 8
    bad = sum(_dims_row(f"R_{ell}", ell, lambda k: len(j_subspace(ell, k)))
              for ell in range(lmax + 1))
    bad += sum(_dims_row(f"S_{2 * ell}", ell, lambda k: s_subspace_dim(2 * ell, k))
               for ell in range(s_lmax + 1))
    if bad:
        print(f"{bad} cells disagree with the dimension formula", file=sys.stderr)
        return 1
    print("all dimension cells PASS")
    return 0


def _parse_support(text: str):
    pairs = []
    for chunk in text.split(";"):
        m, n = chunk.split(",")
        pairs.append((int(m), int(n)))
    return tuple(pairs)


def _cmd_find_relation(args) -> int:
    _require(args, "degree", "support")
    support = SupportSet(args.degree, _parse_support(args.support))
    result = maximal_j_element(support)
    print(f"degree {support.d}, support {list(support.pairs)}")
    print(f"maximal valuation k = {result.k_max}, dimension {len(result.basis)}"
          + ("" if result.unique else "  (non-unique: full basis returned)"))
    for elem in result.basis:
        print("  " + elem.integer_normalized().serialize())
    if args.json:
        payload = {
            "degree": support.d,
            "support": [list(p) for p in support.pairs],
            "k_max": result.k_max,
            "dimension": len(result.basis),
            "unique": result.unique,
            "dims_probed": {str(k): v for k, v in sorted(result.dims.items())},
            "basis": [e.integer_normalized().serialize() for e in result.basis],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
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
        payload = {
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
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0 if not failed else 1


def _cmd_verify_identities(args) -> int:
    samples = args.samples if args.samples is not None else 200
    seed = args.seed if args.seed is not None else 0
    results = run_identity_suite(samples, seed)
    bad = 0
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        bad += not ok
    print(f"{len(results) - bad}/{len(results)} identities hold "
          f"({samples} samples, seed {seed})")
    return 0 if bad == 0 else 1


def _cmd_run(args) -> int:
    _require(args, "xi", "bound")
    suites = tuple(args.suites.split(",")) if args.suites else ALL_SUITES
    cfg = ExperimentConfig(
        xi=args.xi,
        norm_bound=args.bound,
        precision_bits=args.precision or 192,
        max_bits=args.max_bits or (1 << 16),
        epsilon=args.epsilon or "1/10",
        suites=suites,
        lambda_window=args.window or 8,
        csv_path=args.csv,
        json_path=args.json,
        reproducer_path=args.reproducer or "xicube_reproducer.json",
    )
    report = run_experiment(cfg)
    for name, verdict in sorted(report.suites.items()):
        print(f"suite {name}: {verdict}")
    print(f"{len(report.sequence)} points, {len(report.records)} pairs, "
          f"zero counts {report.monitors['nonvanishing_zero_counts']}")
    return 0 if report.all_pass() else 1


_COMMANDS = {
    "minpoints": _cmd_minpoints,
    "ring-dims": _cmd_ring_dims,
    "find-relation": _cmd_find_relation,
    "special-family": _cmd_special_family,
    "verify-identities": _cmd_verify_identities,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _merge_config(args)
        return _COMMANDS[args.command](args)
    except (ValueError, DependenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision ceiling: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant FAILED: {exc}", file=sys.stderr)
        return 1
    except XicubeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
