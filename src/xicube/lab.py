"""End-to-end experiment harness.

One experiment takes a xi specification through the full pipeline: minimal
points, independence set, pair records, the exact divisibility suites, the
pair inequality decisions, and the monitored (expressly non-PASS/FAIL)
asymptotic ratio traces.  Every run runs all three suites.  Output is a CSV
of pair data and a JSON summary; both are byte-deterministic for a fixed
configuration.  A run that fails leaves a reproducer JSON instead (see
`run_experiment`).

The report does each piece of work once.  The run's `Logs` table computes
the log of each norm and |q| once, and every monitor reads it.  The CSV and
the JSON are written in one pass over the records: each pair's integers are
turned into decimal once, for both files (CPython's int-to-str is quadratic,
and a deep run's pair integers have thousands of digits), and a deep run
holds one pair's text at a time.  One writer, `_enc`, makes every JSON text
as ``json.dumps(obj, sort_keys=True, indent=2)`` would.
"""

from __future__ import annotations

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
from .rigor import Logs, decimal, lambda_hat
from .search import prop8_inequality
from .vectors import content, cross, sup_norm

ALL_SUITES = ("divisibility", "heights", "prop8")


class ExperimentConfig(namedtuple(
        "ExperimentConfig",
        "xi norm_bound precision_bits max_bits epsilon lambda_window "
        "csv_path json_path reproducer_path",
        defaults=(100_000, DEFAULT_PRECISION_BITS, DEFAULT_MAX_BITS, "1/10",
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
        return self


class ExperimentReport(namedtuple("ExperimentReport", (
        "config sequence indep records checks prop8 lambda_hat rho_seq "
        "monitors suites pair_rho"))):
    """The results of one experiment.

    `lambda_hat` holds, per index i, the enclosure of log(1/L_i)/log X_{i+1};
    `rho_seq`, per index, the monitor log X_{i+1} / log X_i; `pair_rho`, per
    pair, the monitor log X_{j+1} / log X_{i+1} ("" below X = 2).
    """

    __slots__ = ()

    def _point(self, n: int) -> dict:
        p = self.sequence[n]
        return {"index": p.index, "point": list(p.point), "norm": p.norm,
                "err": [str(p.err.lo), str(p.err.hi)],
                "err_dec": decimal(p.err), "delta_dec": decimal(p.delta)}

    def _pair(self, n: int) -> dict:
        rec = self.records[n]
        return {"i": rec.i, "j": rec.j,
                "x_i": list(rec.x_i), "x_ip1": list(rec.x_ip1), "x_j": list(rec.x_j),
                "p": rec.p, "q": rec.q, "S": rec.s, "T": rec.t, "U": rec.u, "V": rec.v,
                "A": rec.a, "B": rec.b, "F": rec.f, "D2": rec.d2, "D3": rec.d3, "D6": rec.d6,
                "height_sq": rec.height_sq, "checks": self.checks[n], "prop8": self.prop8[n]}

    def write_csv(self, path: str):
        write_atomically(path, lambda fh: self._write(fh, None), newline="")

    def write_json(self, path: str, csv_path: str | None = None):
        """Write summary.json, and pairs.csv at csv_path in the same pass."""
        write_atomically(path, lambda fh: write_atomically(
            csv_path, lambda csv_fh: self._write(csv_fh, fh), newline=""))

    def _write(self, csv_fh, json_fh):
        """Write pairs.csv and summary.json, either file None, in one pass.

        The points and pairs of summary.json are made and written one at a
        time, and each pair with its CSV row: the two read one table of the
        pair's decimal strings.
        """
        names = sorted({name for chk in self.checks for name in chk})
        mids = {entry["i"]: entry["mid"] for entry in self.lambda_hat}

        def row(n, digits):
            rec, chk = self.records[n], self.checks[n]
            return ",".join([
                *map(digits.__getitem__, (
                    rec.i, rec.j, rec.norm_i, rec.norm_ip1, rec.norm_j, rec.p, rec.q, rec.s,
                    rec.t, rec.u, rec.v, rec.a, rec.b, rec.f, rec.d2, rec.d3, rec.d6)),
                *("" if name not in chk else "1" if chk[name] else "0" for name in names),
                mids.get(rec.i, ""), self.pair_rho[n]]) + "\r\n"

        if csv_fh:
            csv_fh.write(",".join(["i", "j", "X_i", "X_ip1", "X_j", "p", "q", "S", "T", "U", "V",
                                   "A", "B", "F", "D2", "D3", "D6", *names, "lambda_hat", "rho"])
                         + "\r\n")
        if not json_fh:
            for n in range(len(self.records)):
                csv_fh.write(row(n, _Digits()))
            return
        members = {
            # "suites" and "threads" are settings that were removed (the suite
            # switch and the parallel scan); they stay at their one value so
            # reports keep their recorded bytes
            "config": {**self.config._asdict(), "suites": ALL_SUITES, "threads": 1},
            "constants": threshold_constants(),
            "counts": {"sequence": len(self.sequence), "independence": len(self.indep),
                       "pairs": len(self.records)},
            "independence_set": self.indep,
            "lambda_hat": self.lambda_hat,
            "rho_seq": self.rho_seq,
            "monitors": self.monitors,
            "suites": self.suites,
        }
        # the long lists: (length, n -> item)
        lists = {"sequence": (len(self.sequence), self._point),
                 "pairs": (len(self.records), self._pair)}
        sep = "{"
        for key in sorted([*members, *lists]):
            json_fh.write(f"{sep}\n  {_quote(key)}: ")
            sep = ","
            if key in members:
                json_fh.write(_enc(members[key], "  ", _Digits()))
                continue
            length, item = lists[key]
            for n in range(length):
                digits = _Digits()
                if key == "pairs" and csv_fh:
                    csv_fh.write(row(n, digits))
                json_fh.write(("[" if n == 0 else ",") + "\n    " + _enc(item(n), "    ", digits))
            json_fh.write("\n  ]" if length else "[]")
        json_fh.write("\n}\n")


def write_atomically(path: str, write, newline=None):
    """Call write(fh) on a temporary file beside path, then rename it onto path.

    A reader never sees a part-written file; a write that fails removes its
    temporary file, leaves path as it was, and raises an OSError as OutputError.
    A symlink is followed, so its target is written.  An existing target that
    is not a regular file, such as a FIFO or a device, is written in place,
    since a rename would replace it.  A path of None calls write(None).
    """
    if path is None:
        return write(None)
    target = os.path.realpath(path)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    tmp = target if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        with _LongInts(), open(tmp, "w", newline=newline) as fh:
            write(fh)
        if not in_place:
            os.replace(tmp, target)
    except BaseException as exc:
        if not in_place:
            try:
                os.remove(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def write_rows(path: str, rows):
    """Write rows of fields as comma-separated lines, each ending in CRLF.

    These are the bytes of `csv.writer` for fields free of commas, quotes and
    line breaks, as every field written is: a number, a decimal or a column
    name.  The text is built in memory and written with one call.
    """
    write_atomically(path, lambda fh: fh.write(
        "".join([",".join(map(str, row)) + "\r\n" for row in rows])), newline="")


class _Digits(dict):
    """int.__repr__(n) of each integer n, made on its first read."""

    __slots__ = ()

    def __missing__(self, n: int) -> str:
        text = self[n] = int.__repr__(n)
        return text


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
            "\b": "\\b", "\f": "\\f"}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _quote(s: str) -> str:
    """s as a JSON string in ASCII, escaped as json.dumps escapes it."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    # past U+FFFF a character is written as its UTF-16 surrogate pair
    return '"' + "".join(
        c if " " <= c <= "~" and c not in '"\\' else _ESCAPES.get(c)
        or (f"\\u{ord(c):04x}" if c <= "\uffff"
            else f"\\u{0xD7C0 + (ord(c) >> 10):04x}\\u{0xDC00 | ord(c) & 0x3FF:04x}")
        for c in s) + '"'


def _scalar(o, digits: _Digits) -> str:
    """The JSON text of null, a bool, an int or a float; TypeError for any other object."""
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return digits[o]
    if isinstance(o, float):
        text = float.__repr__(o)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _enc(o, pad: str, digits: _Digits) -> str:
    """o as ``json.dumps(o, sort_keys=True, indent=2)`` writes it, nested at indent `pad`.

    Integers are read from `digits`.  What json.dumps rejects raises
    TypeError; a circular payload recurses without bound.
    """
    # ints and strings fill most of a report: they come first, and a
    # container looks its int members up itself
    t = type(o)
    if t is int:
        return digits[o]
    if t is str:
        return _quote(o)
    inner = pad + "  "
    if isinstance(o, dict):
        items = [_quote(k if isinstance(k, str) else _scalar(k, digits)) + ": "
                 + (digits[v] if type(v) is int else _enc(v, inner, digits))
                 for k, v in sorted(o.items())]
        ends = "{}"
    elif isinstance(o, (list, tuple)):
        items = [digits[v] if type(v) is int else _enc(v, inner, digits) for v in o]
        ends = "[]"
    else:
        return _quote(o) if isinstance(o, str) else _scalar(o, digits)
    if not items:
        return ends
    return ends[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + ends[1]


def to_json(obj) -> str:
    """obj as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it, and a newline."""
    with _LongInts():
        return _enc(obj, "", _Digits()) + "\n"


def dump_json(path: str, payload):
    """Write `to_json(payload)` to path with one call; nothing is opened if it raises."""
    text = to_json(payload)
    write_atomically(path, lambda fh: fh.write(text))


def positive_errors(ctx: RealContext, seq: list[MinimalPoint]) -> list[Interval]:
    """Error enclosures, 0 < lo, of all points but the last: certified once for both monitors."""
    def certified(point):
        def probe(bits):
            e = approx_error(point, ctx, bits)
            return e if e.integers[0] > 0 else None

        return ctx.decide(probe, what=f"positive error enclosure at {point}")

    return [certified(p.point) for p in seq[:-1]]


def lambda_hat_trace(seq: list[MinimalPoint], errs: list[Interval], logs: Logs) -> list:
    """(i, enclosure, midpoint) of log(1/L_i)/log X_{i+1} for i < len(seq), X_{i+1} >= 2."""
    return [(i, *lambda_hat(errs[i - 1], logs[seq[i].norm]))
            for i in range(1, len(seq)) if seq[i].norm >= 2]


def lambda_hat_window_min(trace: list, window: int) -> dict:
    """Enclosure of the least lambda_hat over the last `window` trace entries.

    An empirical estimate of the uniform exponent, not the exponent itself.
    """
    tail = [lam for _, lam, _ in trace[-window:]]
    return {
        "lo": str(min(lam.lo for lam in tail)),
        "hi": str(min(lam.hi for lam in tail)),
        "window": len(tail),
    }


def height_checks(seq: list[MinimalPoint], records: list[PairRecord],
                  checks: list[dict], errs: list[Interval]) -> dict:
    """Primitivity of consecutive cross products plus the bounded-ratio monitor.

    The cross ratio of each pair is the `cross_ratio` verdict of its checks.
    The ratio sup|x_i ^ x_j| / (X_j * L_i) has no effective constants in the
    theory, so only its observed range is reported.
    """
    prim = all(content(cross(a.point, b.point)) == 1 for a, b in zip(seq, seq[1:]))
    lo = hi = None
    for rec in records:
        err = errs[rec.i - 1]
        num = sup_norm(cross(rec.x_i, rec.x_j))
        r_lo, r_hi = num / (rec.norm_j * err.hi), num / (rec.norm_j * err.lo)
        lo = r_lo if lo is None else min(lo, r_lo)
        hi = r_hi if hi is None else max(hi, r_hi)
    return {
        "cross_primitive_all": prim,
        "cross_ratio_all": all(chk.get("cross_ratio", False) for chk in checks),
        "ratio_min": decimal(Interval(lo)) if lo is not None else "",
        "ratio_max": decimal(Interval(hi)) if hi is not None else "",
    }


def _dump_reproducer(cfg: ExperimentConfig, exc: Exception):
    """Write the run's settings, exc and the data it carries to cfg.reproducer_path.

    The payload becomes exc.reproducer.  A reproducer that cannot be written
    does not replace the failure it records: exc keeps its class and message
    and gains a note (the CLI prints each note on a line of its own).
    """
    exc.reproducer = {
        **getattr(exc, "reproducer", {}),
        "error": type(exc).__name__,
        "message": str(exc),
        "xi": cfg.xi,
        "norm_bound": cfg.norm_bound,
        "precision_bits": cfg.precision_bits,
        "max_bits": cfg.max_bits,
    }
    try:
        dump_json(cfg.reproducer_path, exc.reproducer)
    except OutputError as unwritten:
        exc.__notes__ = [*getattr(exc, "__notes__", ()), f"no reproducer: {unwritten}"]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """The full pipeline for one xi; deterministic for a fixed configuration.

    A run that fails with any error that the CLI reports but a UsageError
    writes a reproducer to cfg.reproducer_path: the run's settings, the
    exception class (`error`) and `message`, and the data the exception
    carries, such as the failing pair and checks or the height monitors.
    A passing run writes none.
    """
    try:
        return _experiment(cfg)
    except UsageError:
        raise
    except (XicubeError, ValueError) as exc:
        _dump_reproducer(cfg, exc)
        raise


def _experiment(cfg: ExperimentConfig) -> ExperimentReport:
    ctx = RealContext(cfg.xi, cfg.precision_bits, cfg.max_bits)
    seq = minimal_sequence(ctx, cfg.norm_bound)
    indep = independence_set(seq) if len(seq) >= 3 else []
    records = build_pair_records(seq, indep)

    checks = [pair_checks(rec) for rec in records]
    for rec, chk in zip(records, checks):
        failed = sorted(name for name, ok in chk.items() if not ok)
        if failed:
            raise InvariantViolation(
                f"exact invariant failed on pair ({rec.i},{rec.j}): {failed}", {
                    "pair": {"i": rec.i, "j": rec.j, "x_i": list(rec.x_i),
                             "x_ip1": list(rec.x_ip1), "x_j": list(rec.x_j)},
                    "failed_checks": failed,
                })

    errs = positive_errors(ctx, seq)
    heights = height_checks(seq, records, checks, errs)
    if not (heights["cross_primitive_all"] and heights["cross_ratio_all"]):
        raise InvariantViolation("cross-product height check failed", {"heights": heights})

    eps = Fraction(cfg.epsilon)
    prop8 = []
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
    suites = {"divisibility": "PASS", "heights": "PASS", "prop8": "DONE"}

    logs = Logs()
    lam = lambda_hat_trace(seq, errs, logs)
    rho_seq = [{"i": a.index, "value": logs.ratio(b.norm, a.norm)}
               for a, b in zip(seq, seq[1:]) if a.norm >= 2]
    q_ratio = [{"i": rec.i, "value": logs.ratio(rec.q, rec.norm_ip1)}
               for rec in records if rec.norm_ip1 >= 2 and rec.q != 0]
    # growth ratio of each pair: log X_{j+1} / log X_{i+1}
    pair_rho = [logs.ratio(seq[rec.j].norm, rec.norm_ip1)
                if min(seq[rec.j].norm, rec.norm_ip1) >= 2 else "" for rec in records]
    del logs  # the run's table; the files are written without it

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
    lam = [{"i": i, "lo": str(e.lo), "hi": str(e.hi), "mid": mid} for i, e, mid in lam]

    report = ExperimentReport(cfg, seq, indep, records, checks, prop8, lam,
                              rho_seq, monitors, suites, pair_rho)
    if cfg.json_path:  # with the CSV, if any, in the same pass
        report.write_json(cfg.json_path, cfg.csv_path)
    elif cfg.csv_path:
        report.write_csv(cfg.csv_path)
    return report
