"""Run one benchmark task in a fresh interpreter.

Usage: python3 worker.py TASK_JSON SPAWN_TIME

The parent starts this script in the task's own empty working directory and
passes the wall-clock time just before the spawn, so set-up is measured from
interpreter start.  Set-up is the import of `xicube.cli` plus every
`RealContext` construction; the rest of the task is the run.  The result
(exit class, set-up, run and CPU time, peak RSS, and the trace when asked)
goes to result.json in the working directory; the task's own output stays on
stdout and stderr.

The host's CPUs are shared, and the speed they give this process drifts by
tens of percent within a minute.  So while the task runs, a speed probe times
a fixed loop of big-integer products every `PROBE_EVERY_S` of wall time, on
the same CPU and between the task's own bytecodes (a SIGALRM handler).
`speed` in the result is the mean over the samples of the loop's reference
time over its measured time: 1 at the reference speed, 0.5 when the host ran
this process at half of it.  Of the loops tried, big-integer products (the
arithmetic under mpmath's pure-Python backend) followed the slowdown of all
three workloads' tasks best; a small-integer loop missed part of it on the
8192-bit ties.  The samples take about 1.5% of the task's time.
"""

import json
import os
import resource
import signal
import statistics
import sys
import time

PROBE_BASE = 3 ** 5200        # an 8242-bit integer
PROBE_STEPS = 8
PROBE_REFERENCE_S = 5.5e-4    # the loop's time at the reference speed; fixed, so figures compare
PROBE_EVERY_S = 0.04


class SpeedProbe:
    def __init__(self):
        self.speeds: list[float] = []

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        x = PROBE_BASE
        for _ in range(PROBE_STEPS):
            x = (x * PROBE_BASE) >> 8200
        self.speeds.append(PROBE_REFERENCE_S / (time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return statistics.fmean(self.speeds) if self.speeds else 1.0


def _tie(spec: str, max_bits: int) -> int:
    """Put an exact tie L(x) < L(x) to RealContext.decide; 3 if it aborts."""
    from xicube import realctx
    from xicube.errors import PrecisionError

    ctx = realctx.RealContext(spec, realctx.DEFAULT_PRECISION_BITS, max_bits)
    x = (1, 0, 0)

    def probe(bits):
        return realctx.approx_error(x, ctx, bits).strictly_less(
            realctx.approx_error(x, ctx, bits))

    try:
        verdict = ctx.decide(probe, what=f"tie L{x} < L{x}")
    except PrecisionError as exc:
        print(f"PrecisionError: {exc}")
        return 3
    print(f"decided {verdict}")
    return 0


def main() -> int:
    spawn = float(sys.argv[2])
    probe = SpeedProbe()
    probe.start()
    with open(sys.argv[1]) as fh:
        task = json.load(fh)
    src = task["src"]
    sys.path.insert(0, src)
    import xicube.cli

    if not os.path.abspath(xicube.cli.__file__).startswith(os.path.join(src, "")):
        print(f"xicube imported from {xicube.cli.__file__}, not {src}", file=sys.stderr)
        return 5
    ready = time.time()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans

    tracer = spans.Tracer()
    if task["trace"]:
        spans.install(tracer)
    else:
        spans.install_context(tracer)

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if task["tie"]:
        code = _tie(task["tie"], task["max_bits"])
    else:
        code = xicube.cli.main(task["argv"])
    work_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    speed = probe.stop()
    sys.stdout.flush()

    contexts, context_s, _ = tracer.totals(spans.CONTEXT_SPAN)
    result = {
        "exit": code,
        "setup_s": ready - spawn + context_s,
        "run_s": work_s - context_s,
        "cpu_s": cpu_s - tracer.counters.pop("realctx.context_cpu_s", 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "contexts": contexts,
        "speed": speed,
        "speed_samples": len(probe.speeds),
    }
    if task["trace"]:
        result["trace"] = tracer.dump()
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
