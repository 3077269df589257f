"""In-memory span tracer and the layer wrappers installed from outside `src/`.

A span is one call into a layer: its name (``<layer>.<what>``), start, end
and the span that was open when it began.  Hot calls (tens of thousands of
`decide` and `power` calls per scan) are not stored one by one: each span is
folded on exit into an aggregate keyed by (name, parent name) holding the
call count, total time and self time.  Self time is the span's duration
minus the time of the spans nested directly inside it.

Busy time of a layer is the time during which at least one span of that
layer is open, so a layer calling itself is counted once.  `CONTEXT_SPAN`
spans are set-up work (building a `RealContext`): they keep their own
aggregate but are taken out of the busy time of the spans around them,
because the end-to-end `run_s` excludes set-up too.

`install(tracer)` wraps the package's public entry points where their
callers look them up (module globals such as ``xicube.minimal.approx_error``
or class attributes such as ``RealContext.decide``); no file under `src/`
changes.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("realctx", "minimal", "lab", "rigor", "search", "ring", "linalg",
          "identities")
CONTEXT_SPAN = "realctx.context"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # open frames: [name, layer, start, child time, set-up time inside]
        self.stack: list[list] = []
        self.agg: dict[tuple[str, str | None], list] = {}  # -> [calls, total, self]
        self.busy: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)

    def enter(self, name: str):
        layer = name.split(".", 1)[0]
        self.depth[layer] += 1
        self.stack.append([name, layer, self.clock(), 0.0, 0.0])

    def exit(self) -> float:
        end = self.clock()
        name, layer, start, child, setup_inside = self.stack.pop()
        dur = end - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][3] += dur
        entry = self.agg.get((name, parent))
        if entry is None:
            entry = self.agg[(name, parent)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child
        self.depth[layer] -= 1
        if name == CONTEXT_SPAN:
            for frame in self.stack:
                frame[4] += dur
        elif self.depth[layer] == 0:
            self.busy[layer] += dur - setup_inside
        return dur

    def wrap(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, total, self) of a span name summed over its parents."""
        calls = total = self_s = 0
        for (n, _parent), (c, t, s) in self.agg.items():
            if n == name:
                calls += c
                total += t
                self_s += s
        return calls, total, self_s

    def dump(self) -> dict:
        return {
            "spans": [[n, p, c, t, s] for (n, p), (c, t, s) in sorted(
                self.agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))],
            "busy": dict(self.busy),
            "counters": dict(self.counters),
        }


def self_times(spans) -> dict[str, float]:
    """Self time per name from full spans (id, name, start, end, parent id).

    The reference the aggregating `Tracer` is checked against: a span's self
    time is its duration minus the durations of its direct children.
    """
    child = defaultdict(float)
    for _sid, _name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent in spans:
        out[name] += (end - start) - child[sid]
    return dict(out)


def install_context(tracer: Tracer):
    """Time every `RealContext` construction: the set-up half of a task."""
    from xicube.realctx import RealContext

    init = RealContext.__init__

    def timed_init(self, *args, **kwargs):
        cpu0 = time.process_time()
        tracer.enter(CONTEXT_SPAN)
        try:
            init(self, *args, **kwargs)
        finally:
            tracer.exit()
            tracer.counters["realctx.context_cpu_s"] += time.process_time() - cpu0

    RealContext.__init__ = timed_init


def install(tracer: Tracer):
    """Wrap every traced entry point of the `xicube` package in spans.

    Includes `install_context`; the layers' own spans come on top of it.
    """
    from mpmath import iv

    import xicube.cli as cli
    import xicube.identities as identities
    import xicube.intervals as intervals
    import xicube.lab as lab
    import xicube.linalg as linalg
    import xicube.minimal as minimal
    import xicube.realctx as realctx
    import xicube.ring as ring
    import xicube.search as search

    enter, exit_, counters, wrap = tracer.enter, tracer.exit, tracer.counters, tracer.wrap

    def wrap_global(name, fn_name, *modules):
        fn = getattr(modules[0], fn_name)
        wrapped = wrap(name, fn)
        for mod in modules:
            setattr(mod, fn_name, wrapped)

    # -- intervals: a count only, timing every construction would swamp it
    interval_init = intervals.Interval.__init__

    def counted_init(self, lo, hi=None):
        counters["intervals.constructed"] += 1
        interval_init(self, lo, hi)

    intervals.Interval.__init__ = counted_init

    # -- realctx
    install_context(tracer)
    RC = realctx.RealContext
    RC.nearest_to_multiple = wrap("realctx.nearest", RC.nearest_to_multiple)
    decide = wrap("realctx.decide", RC.decide)

    def traced_decide(self, probe, what="comparison"):
        first = [True]

        def counted(bits):
            counters["realctx.probe_calls"] += 1
            if first[0]:
                first[0] = False
            else:
                counters["realctx.escalations"] += 1
                counters[f"realctx.escalations.b{bits}"] += 1
            if bits > counters["realctx.max_bits"]:
                counters["realctx.max_bits"] = bits
            return probe(bits)

        return decide(self, counted, what)

    RC.decide = traced_decide
    power = RC.power

    def traced_power(self, k, bits=None):
        enter("realctx.power")
        try:
            return power(self, k, bits)
        finally:
            dur = exit_()
            if bits is not None and bits > self.precision_bits:
                counters["realctx.power_deep_s"] += dur

    RC.power = traced_power
    wrap_global("realctx.approx_error", "approx_error", minimal, lab, realctx)

    # -- minimal
    wrap_global("minimal.candidate", "candidate_for", minimal)
    scan = minimal.minimal_sequence

    def traced_scan(*args, **kwargs):
        enter("minimal.scan")
        try:
            seq = scan(*args, **kwargs)
            counters["minimal.points"] += len(seq)
            return seq
        finally:
            exit_()

    for mod in (lab, cli):
        mod.minimal_sequence = traced_scan
    wrap_global("minimal.independence", "independence_set", lab)
    build = lab.build_pair_records

    def traced_build(*args, **kwargs):
        enter("minimal.build_pairs")
        try:
            records = build(*args, **kwargs)
            counters["minimal.pairs"] += len(records)
            return records
        finally:
            exit_()

    lab.build_pair_records = traced_build
    wrap_global("minimal.pair_checks", "pair_checks", lab)

    # -- lab
    wrap_global("lab.run_experiment", "run_experiment", cli)
    wrap_global("lab.lambda_hat", "lambda_hat_trace", lab)
    wrap_global("lab.heights", "height_checks", lab)
    report = lab.ExperimentReport
    report.write_csv = wrap("lab.write_csv", report.write_csv)
    report.write_json = wrap("lab.write_json", report.write_json)

    # -- rigor
    decide_sign = search.decide_sign

    def traced_decide_sign(builder, what="sign"):
        def probed():
            if iv.prec > counters["rigor.max_prec"]:
                counters["rigor.max_prec"] = iv.prec
            return builder()

        enter("rigor.decide_sign")
        try:
            return decide_sign(probed, what)
        finally:
            exit_()

    search.decide_sign = traced_decide_sign

    # -- search
    wrap_global("search.prop8", "prop8_inequality", lab)
    family = cli.special_family

    def traced_family(ell):
        enter("search.family")
        try:
            return family(ell)
        finally:
            counters[f"search.family_s.ell{ell}"] += exit_()

    cli.special_family = traced_family
    wrap_global("search.hp_decompose", "hp_decompose", cli)
    wrap_global("search.s_subspace_dim", "s_subspace_dim", cli)
    wrap_global("search.relation", "maximal_j_element", cli)

    # -- ring
    wrap_global("ring.j_subspace", "j_subspace", cli)
    wrap_global("ring.rho", "rho", ring, search, identities)
    wrap_global("ring.expand", "expand", ring, search, identities)

    # -- linalg
    echelon = linalg.IntEchelon
    insert = echelon.insert

    def traced_insert(self, row):
        enter("linalg.insert")
        try:
            kept = insert(self, row)
            counters["linalg.insert_kept"] += kept
            return kept
        finally:
            exit_()

    echelon.insert = traced_insert
    echelon.nullspace = wrap("linalg.nullspace", echelon.nullspace)
    wrap_global("linalg.solve_unique", "solve_unique", search)

    # -- identities
    wrap_global("identities.suite", "run_identity_suite", cli)
