"""The xicube benchmark: one command, three workloads, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload {paper_xi,ring,hostile_xi} --seed N \
        --seconds S --trace {0,1}

The loop is closed and serial: one task at a time, each started when the
previous one has ended, every task in a fresh interpreter (module caches
start cold, as for every CLI call) and in its own empty working directory
under `.bench_work/`.  A pass runs each task kind of the workload once; the
run repeats passes until `--seconds` have elapsed, always finishing the first.

End-to-end metrics (`--trace 0`) are figures per pass: for every kind, the
median over its repetitions in the run, then summed over the kinds (or the
largest kind taken).

    setup_s       interpreter start to the first task work: import of
                  `xicube.cli` and every `RealContext` construction
    run_s         wall time of the tasks after set-up
    cpu_s         CPU time of the tasks after set-up
    worst_task_s  the slowest kind's wall time, spawn to exit
    peak_rss_mb   the largest kind's peak resident memory

The four times are in seconds at a fixed reference speed: each task's times
are multiplied by the speed its own interpreter ran at, as the worker's speed
probe measured it during the task (see worker.py).  On a shared host the
speed drifts by tens of percent from minute to minute and moves raw times
with it; scaled, the same code reads the same from run to run, while a change
in the work the program does still moves the figures in full.  The raw
figures are printed and kept in the results file next to the scaled ones.

`failed` counts tasks whose outcome differs from the expected one (wrong
exit class, wrong output, traceback, timeout, or output that differs from
the kind's first repetition); `attempted` counts all tasks.

`--trace 1` runs every task twice per pass, once plain and once with spans
around each layer's entry points (see spans.py), and reports the per-layer
metrics of the traced repetitions.  Two figures describe the trace itself:
`trace.coverage_frac` is the share of `run_s` spent in spans below each
task's entry span (the CLI subcommand or the public call the task makes),
and `trace.overhead_frac` is the median over all traced/plain pairs of
`run_s` ratios (at the reference speed) minus 1, with the pair count as `trace.overhead_pairs`.
Traced outputs must equal the plain ones like any other repetition.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; a copy of the whole run goes to `.bench_results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import CONTEXT_SPAN, LAYERS  # noqa: E402
from workloads import TIE_MAX_BITS, WORKLOADS, Task, check, sha256, tasks_for  # noqa: E402

ROOT = HERE.parent
TASK_TIMEOUT_S = 60.0
MAX_RUN_S = 140.0  # stop starting tasks here, so a run ends within 180 s

# The metrics reported, with their units, are the ones BENCHMARK.json lists.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class Outcome:
    kind: str
    traced: bool
    wall_s: float
    timed_out: bool
    returncode: int | None
    stdout: str = ""
    stderr: str = ""
    files: dict[str, bytes] = field(default_factory=dict)
    result: dict | None = None

    @property
    def exit(self) -> int | None:
        return None if self.result is None else self.result["exit"]

    def digest(self) -> str:
        parts = [str(self.exit), self.stdout]
        parts += [f"{name}:{sha256(data)}" for name, data in sorted(self.files.items())]
        return sha256("\n".join(parts))


def run_task(task: Task, workdir: Path, trace: bool,
             timeout: float = TASK_TIMEOUT_S) -> Outcome:
    """Run one task in a fresh interpreter in an empty directory, then clean up."""
    workdir.mkdir(parents=True)
    spec = {"argv": list(task.argv), "tie": task.tie, "max_bits": TIE_MAX_BITS,
            "trace": trace, "src": str(ROOT / "src")}
    (workdir / "task.json").write_text(json.dumps(spec))
    cmd = [sys.executable, str(HERE / "worker.py"), "task.json"]
    timed_out = False
    try:
        with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd + [repr(time.time())], cwd=workdir, stdout=out,
                                    stderr=err, start_new_session=True)
            try:
                code = proc.wait(timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                code = proc.wait()
                timed_out = True
            wall = time.perf_counter() - t0
        outcome = Outcome(task.kind, trace, wall, timed_out, code,
                          (workdir / "stdout").read_text(), (workdir / "stderr").read_text())
        for name in task.outputs:
            path = workdir / name
            if path.exists():
                outcome.files[name] = path.read_bytes()
        result = workdir / "result.json"
        if code == 0 and not timed_out and result.exists():
            outcome.result = json.loads(result.read_text())
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- aggregation -----------------------------------------------------------------

def _by_kind(outcomes: list[Outcome], key, stat) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for out in outcomes:
        if out.result is not None:
            by_kind.setdefault(out.kind, []).append(key(out))
    return {kind: stat(vals) for kind, vals in by_kind.items()}


def end_to_end(outcomes: list[Outcome], scaled: bool = True) -> dict[str, float]:
    """Per-pass figures; times at the reference speed unless `scaled` is off."""
    def per_kind(key):
        return _by_kind(outcomes, key, statistics.median).values()

    def speed(o):
        return o.result["speed"] if scaled else 1.0

    return {
        "setup_s": sum(per_kind(lambda o: o.result["setup_s"] * speed(o))),
        "run_s": sum(per_kind(lambda o: o.result["run_s"] * speed(o))),
        "cpu_s": sum(per_kind(lambda o: o.result["cpu_s"] * speed(o))),
        "worst_task_s": max(per_kind(lambda o: o.wall_s * speed(o)), default=0.0),
        "peak_rss_mb": max(per_kind(lambda o: o.result["peak_rss_mb"]), default=0.0),
    }


def task_layers(result: dict) -> dict[str, float]:
    """Additive per-layer figures of one traced task (ratios come later)."""
    trace = result["trace"]
    calls: dict[str, float] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    covered = 0.0
    for name, parent, c, t, s in trace["spans"]:
        calls[name] = calls.get(name, 0) + c
        total[name] = total.get(name, 0.0) + t
        self_s[name] = self_s.get(name, 0.0) + s
        # covered: time in spans below a task's entry spans, set-up excluded
        if parent is None:
            covered += 0.0 if name == CONTEXT_SPAN else t - s
        elif name == CONTEXT_SPAN:
            covered -= t

    def tot(*names):
        return sum(total.get(n, 0.0) for n in names)

    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({k: v for k, v in trace["counters"].items() if k in out})
    for short in ("nearest", "decide", "approx_error", "power"):
        out[f"realctx.{short}_calls"] = calls.get(f"realctx.{short}", 0)
        out[f"realctx.{short}_s"] = tot(f"realctx.{short}")
    out["realctx.contexts"] = calls.get(CONTEXT_SPAN, 0)
    out["realctx.context_s"] = tot(CONTEXT_SPAN)
    out["minimal.scan_s"] = self_s.get("minimal.scan", 0.0) + self_s.get("minimal.candidate", 0.0)
    out["minimal.candidates"] = calls.get("minimal.candidate", 0)
    out["minimal.pairs_s"] = tot("minimal.independence", "minimal.build_pairs",
                                 "minimal.pair_checks")
    out["lab.monitors_s"] = tot("lab.lambda_hat", "lab.heights")
    out["lab.write_s"] = tot("lab.write_csv", "lab.write_json")
    out["rigor.decide_sign_calls"] = calls.get("rigor.decide_sign", 0)
    out["rigor.decide_sign_s"] = tot("rigor.decide_sign")
    out["search.prop8_s"] = tot("search.prop8")
    out["search.family_s"] = tot("search.family")
    out["search.hp_decompose_s"] = tot("search.hp_decompose")
    out["search.s_subspace_dim_s"] = tot("search.s_subspace_dim")
    out["search.relation_s"] = tot("search.relation")
    out["ring.j_subspace_s"] = tot("ring.j_subspace")
    out["ring.rho_calls"] = calls.get("ring.rho", 0)
    out["ring.rho_s"] = tot("ring.rho")
    out["ring.expand_s"] = tot("ring.expand")
    out["linalg.insert_calls"] = calls.get("linalg.insert", 0)
    out["linalg.echelon_s"] = tot("linalg.insert", "linalg.nullspace")
    out["linalg.solve_unique_s"] = tot("linalg.solve_unique")
    out["identities.suite_s"] = tot("identities.suite")
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = trace["busy"].get(layer, 0.0)
        out[f"{layer}.self_s"] = sum(s for n, s in self_s.items()
                                     if n.split(".", 1)[0] == layer and n != CONTEXT_SPAN)
    out["trace.run_s"] = result["run_s"]
    # parts of the ratios, which are formed after the kinds are summed
    out["_scan_total_s"] = tot("minimal.scan")
    out["_insert_kept"] = trace["counters"].get("linalg.insert_kept", 0)
    out["_covered_s"] = covered
    return out


_MAXED = ("realctx.max_bits", "rigor.max_prec")


def overhead_ratios(traced: list[Outcome], plain: list[Outcome]) -> list[float]:
    """Traced over plain `run_s` at the reference speed, one ratio per kind and pass.

    Every pass runs each kind once traced and once plain, so the i-th traced
    and the i-th plain repetition of a kind come from the same pass.
    """
    def scaled(o):
        return o.result["run_s"] * o.result["speed"]

    ratios = []
    for kind in dict.fromkeys(o.kind for o in traced):
        for t, p in zip([o for o in traced if o.kind == kind],
                        [o for o in plain if o.kind == kind]):
            if t.result and p.result and scaled(p) > 0:
                ratios.append(scaled(t) / scaled(p))
    return ratios


def layer_metrics(traced: list[Outcome], plain: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics per pass, from the median traced repetition of each kind."""
    by_kind = _by_kind(traced, lambda o: o, list)
    middle = [sorted(outs, key=lambda o: o.result["run_s"])[(len(outs) - 1) // 2]
              for outs in by_kind.values()]
    agg: dict[str, float] = {}
    for out in middle:
        for key, value in task_layers(out.result).items():
            agg[key] = max(agg.get(key, 0.0), value) if key in _MAXED else agg.get(key, 0.0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    out = {name: agg.get(name, 0.0) for name in PER_LAYER}
    out["minimal.candidates_per_s"] = ratio(agg.get("minimal.candidates", 0),
                                            agg.get("_scan_total_s", 0))
    out["minimal.record_ratio"] = ratio(agg.get("minimal.points", 0),
                                        agg.get("minimal.candidates", 0))
    out["linalg.insert_kept_ratio"] = ratio(agg.get("_insert_kept", 0),
                                            agg.get("linalg.insert_calls", 0))
    out["trace.coverage_frac"] = ratio(agg.get("_covered_s", 0), agg.get("trace.run_s", 0))
    pairs = overhead_ratios(traced, plain)
    out["trace.overhead_frac"] = statistics.median(pairs) - 1 if pairs else 0.0
    out["trace.overhead_pairs"] = len(pairs)
    return out


# -- the run ---------------------------------------------------------------------

def measure(tasks: list[Task], seconds: float, trace: bool):
    """Closed loop over passes; returns (outcomes, failures)."""
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    outcomes: list[Outcome] = []
    failures: list[tuple[str, str]] = []
    first_digest: dict[str, str] = {}
    start = time.perf_counter()
    passes = 0
    try:
        while True:
            # traced and plain repetitions swap order every pass
            modes = (passes % 2 == 1, passes % 2 == 0) if trace else (False,)
            for task in tasks:
                for traced in modes:
                    elapsed = time.perf_counter() - start
                    if elapsed >= MAX_RUN_S or (elapsed >= seconds and passes > 0):
                        return outcomes, failures
                    out = run_task(task, work / f"{len(outcomes):04d}-{task.kind}", traced)
                    reason = check(task, out)
                    if reason is None:
                        digest = first_digest.setdefault(task.kind, out.digest())
                        if out.digest() != digest:
                            reason = "output differs from the first repetition"
                    outcomes.append(out)
                    if reason:
                        failures.append((task.kind, reason))
                    print(f"  {task.kind:<14} {'traced' if traced else 'plain':<6} "
                        f"exit={out.exit} wall={out.wall_s:7.3f}s "
                        f"{'ok' if reason is None else 'FAIL: ' + reason}")
            passes += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "xicube" / "__init__.py").is_file():
        print(f"error: no xicube sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tasks = tasks_for(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {len(tasks)} task kinds, closed loop, 1 at a time")
    for task in tasks:
        print("  task " + json.dumps(task.describe()))
    outcomes, failures = measure(tasks, args.seconds, bool(args.trace))
    plain = [o for o in outcomes if not o.traced]
    traced = [o for o in outcomes if o.traced]
    missing = sorted({t.kind for t in tasks} - {o.kind for o in outcomes if o.result})

    counts = {t.kind: sum(1 for o in plain if o.kind == t.kind) for t in tasks}
    print(f"samples per kind: {counts}")
    print(f"failed_frac {len(failures)}/{len(outcomes)}")
    for kind, reason in failures:
        print(f"  FAILED {kind}: {reason}")
    if missing:
        print(f"  no completed sample of {missing}")

    e2e = end_to_end(plain)
    raw = end_to_end(plain, scaled=False)
    speeds = [o.result["speed"] for o in plain if o.result]
    metrics = layer_metrics(traced, plain) if args.trace else e2e
    if speeds:
        print(f"speed: median {statistics.median(speeds):.3f}, "
              f"range {min(speeds):.3f}..{max(speeds):.3f} of the reference")
    for name, value in raw.items():
        print(f"raw {name:<28} {value:>14.6g} {UNITS[name]}")
    for name, value in (e2e | metrics).items():
        print(f"{name:<32} {value:>14.6g} {UNITS[name]}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tasks": [t.describe() for t in tasks],
        "samples": [{"kind": o.kind, "traced": o.traced, "wall_s": o.wall_s,
                     "result": o.result and {k: v for k, v in o.result.items() if k != "trace"}}
                    for o in outcomes],
        "failures": failures, "end_to_end": e2e, "end_to_end_raw": raw, "metrics": metrics,
        "spans": {o.kind: o.result["trace"]["spans"] for o in traced if o.result},
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not failures and not missing,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
