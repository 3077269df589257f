"""End-to-end experiment harness.

One experiment takes a xi specification through the full pipeline: minimal
points, independence set, pair records, the exact divisibility suites, the
pair inequality decisions, and the monitored (expressly non-PASS/FAIL)
asymptotic ratio traces.  Output is a CSV of pair data and a JSON summary;
both are byte-deterministic for a fixed configuration.
"""

from __future__ import annotations

import csv
import json
import os
from collections import namedtuple
from fractions import Fraction

from .constants import threshold_constants
from .errors import InvariantViolation, OutputError, Undecidable, UsageError, XicubeError
from .intervals import Interval
from .minimal import (MinimalPoint, PairRecord, build_pair_records,
                      independence_set, minimal_sequence, pair_checks)
from .realctx import (DEFAULT_MAX_BITS, DEFAULT_PRECISION_BITS, RealContext,
                      _LongInts, approx_error)
from .rigor import decimal, lambda_hat, log_ratio
from .search import prop8_inequality
from .vectors import content, cross, sup_norm, vscale

ALL_SUITES = ("divisibility", "heights", "prop8")


class ExperimentConfig(namedtuple(
        "ExperimentConfig",
        "xi norm_bound precision_bits max_bits epsilon suites lambda_window "
        "csv_path json_path reproducer_path",
        defaults=(100_000, DEFAULT_PRECISION_BITS, DEFAULT_MAX_BITS, "1/10", ALL_SUITES,
                  8, None, None, "xicube_reproducer.json"))):
    """The settings of one experiment; every field but `xi` has a default."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.norm_bound < 1:
            raise UsageError("norm_bound must be >= 1")
        if Fraction(self.epsilon) <= 0:
            raise UsageError("epsilon must be positive")
        if self.lambda_window < 1:
            raise UsageError(f"lambda_window must be >= 1, got {self.lambda_window}")
        unknown = set(self.suites) - set(ALL_SUITES)
        if unknown:
            raise UsageError(f"unknown suites {sorted(unknown)}")
        return self


class ExperimentReport(namedtuple("ExperimentReport", (
        "config sequence indep records checks prop8 lambda_hat rho_seq "
        "monitors suites"))):
    """The results of one experiment.

    `lambda_hat` holds, per index i, the enclosure of log(1/L_i)/log X_{i+1};
    `rho_seq`, per index, the monitor log X_{i+1} / log X_i.
    """

    __slots__ = ()

    def summary_dict(self) -> dict:
        seq = [
            {
                "index": p.index,
                "point": list(p.point),
                "norm": p.norm,
                "err": [str(p.err.lo), str(p.err.hi)],
                "err_dec": decimal(p.err),
                "delta_dec": decimal(p.delta),
            }
            for p in self.sequence
        ]
        pairs = []
        for rec, chk, p8 in zip(self.records, self.checks, self.prop8):
            pairs.append({
                "i": rec.i, "j": rec.j,
                "x_i": list(rec.x_i), "x_ip1": list(rec.x_ip1), "x_j": list(rec.x_j),
                "p": rec.p, "q": rec.q,
                "S": rec.s, "T": rec.t, "U": rec.u, "V": rec.v,
                "A": rec.a, "B": rec.b, "F": rec.f,
                "D2": rec.d2, "D3": rec.d3, "D6": rec.d6,
                "height_sq": rec.height_sq,
                "checks": dict(sorted(chk.items())),
                "prop8": p8,
            })
        return {
            # "threads" is the setting of the parallel scan that was removed;
            # it stays at its one value so reports keep their recorded bytes
            "config": {**self.config._asdict(), "threads": 1},
            "constants": threshold_constants(),
            "counts": {
                "sequence": len(self.sequence),
                "independence": len(self.indep),
                "pairs": len(self.records),
            },
            "independence_set": self.indep,
            "sequence": seq,
            "pairs": pairs,
            "lambda_hat": self.lambda_hat,
            "rho_seq": self.rho_seq,
            "monitors": self.monitors,
            "suites": self.suites,
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        check_names = sorted({name for chk in self.checks for name in chk})
        header = ["i", "j", "X_i", "X_ip1", "X_j", "p", "q", "S", "T", "U", "V",
                  "A", "B", "F", "D2", "D3", "D6"]
        header += check_names + ["lambda_hat", "rho"]
        rows = []
        lam_by_index = {entry["i"]: entry for entry in self.lambda_hat}
        for rec, chk in zip(self.records, self.checks):
            row = [rec.i, rec.j, rec.norm_i, rec.norm_ip1, rec.norm_j, rec.p, rec.q,
                   rec.s, rec.t, rec.u, rec.v, rec.a, rec.b, rec.f,
                   rec.d2, rec.d3, rec.d6]
            row += [int(chk[name]) if name in chk else "" for name in check_names]
            lam = lam_by_index.get(rec.i)
            row.append(lam["mid"] if lam else "")
            # growth ratio of the pair: log X_{j+1} / log X_{i+1}
            xj1, xi1 = self.sequence[rec.j].norm, rec.norm_ip1
            row.append(log_ratio(xj1, xi1) if min(xj1, xi1) >= 2 else "")
            rows.append(row)
        return header, rows

    def write_csv(self, path: str):
        header, rows = self.csv_rows()
        write_atomically(path, lambda fh: csv.writer(fh).writerows([header, *rows]), newline="")

    def write_json(self, path: str):
        with _LongInts():  # a long spec's error enclosures have long terms
            payload = self.summary_dict()
        dump_json(path, payload)


def write_atomically(path: str, write, newline=None):
    """Call write(fh) on a temporary file beside path, then rename it onto path.

    A reader never sees a part-written file; a write that fails removes its
    temporary file, leaves path as it was, and raises an OSError as OutputError.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with _LongInts(), open(tmp, "w", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def dump_json(path: str, payload):
    """Write payload as sorted, 2-space-indented JSON with a trailing newline."""
    def write(fh):
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")

    write_atomically(path, write)


def positive_errors(ctx: RealContext, seq: list[MinimalPoint]) -> list[Interval]:
    """Error enclosures, 0 < lo, of all points but the last: certified once for both monitors."""
    def certified(point):
        def probe(bits):
            e = approx_error(point, ctx, bits)
            return e if e.lo > 0 else None

        return ctx.decide(probe, what=f"positive error enclosure at {point}")

    return [certified(p.point) for p in seq[:-1]]


def lambda_hat_trace(seq: list[MinimalPoint], errs: list[Interval]) -> list[dict]:
    """Empirical exponent enclosures log(1/L_i)/log X_{i+1} for i < len(seq)."""
    out = []
    for i in range(1, len(seq)):
        x_next = seq[i].norm
        if x_next < 2:
            continue
        enclosure, mid = lambda_hat(errs[i - 1], x_next)
        out.append({"i": i, "lo": str(enclosure.lo), "hi": str(enclosure.hi),
                    "mid": mid})
    return out


def lambda_hat_window_min(trace: list[dict], window: int) -> dict:
    """Enclosure of the least lambda_hat over the last `window` trace entries.

    An empirical estimate of the uniform exponent, not the exponent itself.
    """
    tail = trace[-window:]
    return {
        "lo": str(min(Fraction(e["lo"]) for e in tail)),
        "hi": str(min(Fraction(e["hi"]) for e in tail)),
        "window": len(tail),
    }


def height_checks(seq: list[MinimalPoint], records: list[PairRecord],
                  errs: list[Interval]) -> dict:
    """Primitivity of consecutive cross products plus the bounded-ratio monitor.

    The ratio sup|x_i ^ x_j| / (X_j * L_i) has no effective constants in the
    theory, so only its observed range is reported.
    """
    prim = all(content(cross(a.point, b.point)) == 1 for a, b in zip(seq, seq[1:]))
    ratio_ok = all(
        cross(r.x_i, r.x_j) == vscale(r.q, cross(r.x_i, r.x_ip1)) for r in records
    )
    lo = hi = None
    for rec in records:
        err = errs[rec.i - 1]
        num = sup_norm(cross(rec.x_i, rec.x_j))
        den_lo = rec.norm_j * err.lo
        den_hi = rec.norm_j * err.hi
        r = Interval(Fraction(num) / den_hi, Fraction(num) / den_lo)
        lo = r.lo if lo is None else min(lo, r.lo)
        hi = r.hi if hi is None else max(hi, r.hi)
    return {
        "cross_primitive_all": prim,
        "cross_ratio_all": ratio_ok,
        "ratio_min": decimal(Interval(lo)) if lo is not None else "",
        "ratio_max": decimal(Interval(hi)) if hi is not None else "",
    }


def _dump_reproducer(cfg: ExperimentConfig, exc: Exception, **failure) -> dict:
    """Write the run's settings and what failed to cfg.reproducer_path.

    A reproducer that cannot be written does not replace the failure it
    records: exc keeps its class and message and gains a note (the CLI
    prints each note on a line of its own).
    """
    payload = {
        "xi": cfg.xi,
        "norm_bound": cfg.norm_bound,
        "precision_bits": cfg.precision_bits,
        "max_bits": cfg.max_bits,
        **failure,
    }
    try:
        dump_json(cfg.reproducer_path, payload)
    except OutputError as unwritten:
        exc.__notes__ = [*getattr(exc, "__notes__", ()), f"no reproducer: {unwritten}"]
    return payload


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """The full pipeline for one xi; deterministic for a fixed configuration.

    A run that fails writes a reproducer to cfg.reproducer_path: the failing
    pair for a divisibility failure, the height monitors for a height failure,
    the exception class and message for any other error that the CLI
    reports but a UsageError.  A passing run writes none.
    """
    try:
        return _experiment(cfg)
    except (UsageError, InvariantViolation):
        raise
    except (XicubeError, ValueError) as exc:
        _dump_reproducer(cfg, exc, error=type(exc).__name__, message=str(exc))
        raise


def _experiment(cfg: ExperimentConfig) -> ExperimentReport:
    ctx = RealContext(cfg.xi, cfg.precision_bits, cfg.max_bits)
    seq = minimal_sequence(ctx, cfg.norm_bound)
    indep = independence_set(seq) if len(seq) >= 3 else []
    records = build_pair_records(seq, indep)
    suites: dict[str, str] = {}

    checks = [pair_checks(rec) for rec in records]
    if "divisibility" in cfg.suites:
        for rec, chk in zip(records, checks):
            failed = sorted(name for name, ok in chk.items() if not ok)
            if failed:
                exc = InvariantViolation(
                    f"exact invariant failed on pair ({rec.i},{rec.j}): {failed}")
                exc.reproducer = _dump_reproducer(cfg, exc, pair={
                    "i": rec.i, "j": rec.j,
                    "x_i": list(rec.x_i), "x_ip1": list(rec.x_ip1), "x_j": list(rec.x_j),
                }, failed_checks=failed)
                raise exc
        suites["divisibility"] = "PASS"
    else:
        suites["divisibility"] = "SKIPPED"

    errs = positive_errors(ctx, seq)
    if "heights" in cfg.suites:
        heights = height_checks(seq, records, errs)
        if not (heights["cross_primitive_all"] and heights["cross_ratio_all"]):
            exc = InvariantViolation("cross-product height check failed")
            exc.reproducer = _dump_reproducer(cfg, exc, heights=heights)
            raise exc
        suites["heights"] = "PASS"
    else:
        heights = {}
        suites["heights"] = "SKIPPED"

    prop8 = []
    if "prop8" in cfg.suites:
        eps = Fraction(cfg.epsilon)
        for rec in records:
            entry: dict = {"i": rec.i, "j": rec.j}
            sv = rec.s * rec.s * rec.v
            if rec.t == 0 or rec.f == 0 or sv == 0 or abs(rec.q) < 3:
                entry["verdict"] = "skipped"
                entry["reason"] = "preconditions (nonzero T, F, S^2V and |q| >= 3)"
            else:
                try:
                    holds, diag = prop8_inequality(rec, eps)
                    entry["verdict"] = "holds" if holds else "fails"
                    entry["diagnostics"] = diag
                except Undecidable:
                    entry["verdict"] = "undecidable"
            prop8.append(entry)
        suites["prop8"] = "DONE"
    else:
        prop8 = [{"i": rec.i, "j": rec.j, "verdict": "skipped"} for rec in records]
        suites["prop8"] = "SKIPPED"

    lam = lambda_hat_trace(seq, errs)
    rho_seq = [{"i": a.index, "value": log_ratio(b.norm, a.norm)}
               for a, b in zip(seq, seq[1:]) if a.norm >= 2]
    q_ratio = [{"i": rec.i, "value": log_ratio(rec.q, rec.norm_ip1)}
               for rec in records if rec.norm_ip1 >= 2 and rec.q != 0]

    monitors: dict = {
        "nonvanishing_zero_counts": {
            "S": sum(1 for r in records if r.s == 0),
            "F": sum(1 for r in records if r.f == 0),
            "D2": sum(1 for r in records if r.d2 == 0),
            "D3": sum(1 for r in records if r.d3 == 0),
            "D6": sum(1 for r in records if r.d6 == 0),
        },
        "log_q_over_log_X": q_ratio,
        "note": "ratio traces are diagnostic monitors, never PASS/FAIL",
    }
    monitors.update({f"heights_{k}": v for k, v in heights.items()})
    if lam:
        monitors["lambda_hat_window_min"] = lambda_hat_window_min(lam, cfg.lambda_window)

    report = ExperimentReport(cfg, seq, indep, records, checks, prop8, lam,
                              rho_seq, monitors, suites)
    if cfg.csv_path:
        report.write_csv(cfg.csv_path)
    if cfg.json_path:
        report.write_json(cfg.json_path)
    return report
