"""Closed-loop benchmark of the tamc workbench.

    python3 perfbench/run.py --workload fuzz|deep|families|run \
        --seed N --seconds S --trace 0|1

One client in one process, no threads: each operation starts when the
previous one has finished, and each takes one program to a verdict
that is checked against a reference that does not come from the code
under test (see workloads.py). Any exception an operation raises,
RecursionError included, fails that operation and is counted by type.

--trace 0 sets up, then runs whole passes over the workload's
operations for --seconds and reports the end-to-end metrics. An
operation's time is its mean over the passes, and op_ms_p50 and
op_ms_tail are percentiles over the distinct operations. Between
operations, spread over the loop and left out of its time, it sets up
again until it has set up SETUP_REPEATS times, each time importing tamc
afresh, and reports the median as setup_s.

--trace 1 runs the workload's trace pass untraced once to warm up,
then TRACE_PAIRS times untraced and traced in turn, with spans around
every layer call (tracing.py). It reports the per-layer metrics from
the first traced pass, and the tracing overhead as the median, over
the pairs, of the traced time minus the untraced time. The spans go to
.perfbench_out/spans-<workload>-<seed>.csv.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from tracing import BISIM_NAMES, PER_LAYER, Tracer, layer_metrics, self_shares, write_spans
from workloads import WORKLOADS, Layers, count_wrap_out_nodes

ROOT = Path(__file__).resolve().parent.parent

MODULES = (
    "syntax",
    "generate",
    "transforms",
    "terms",
    "calculi",
    "machine_source",
    "machine_int",
    "machine_target",
    "machine_common",
    "bisim",
    "analysis",
)
SETUP_REPEATS = 11
TRACE_PAIRS = 5
END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "transitions_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def use_sources() -> None:
    """Make the checkout's tamc importable, or exit without a result."""
    src = ROOT / "src"
    if not (src / "tamc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tamc sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


def load_tamc() -> SimpleNamespace:
    """Import every tamc module afresh, so each set-up pays for imports."""
    for name in [n for n in sys.modules if n == "tamc" or n.startswith("tamc.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"tamc.{m}") for m in MODULES})


class Failures:
    """Failed operations by exception type, with the first message of each."""

    def __init__(self):
        self.by_type: Counter = Counter()
        self.first: dict = {}

    def record(self, exc: Exception) -> None:
        kind = type(exc).__name__
        self.by_type[kind] += 1
        self.first.setdefault(kind, str(exc)[:300])

    @property
    def count(self) -> int:
        return sum(self.by_type.values())

    def report(self) -> None:
        for kind, n in sorted(self.by_type.items()):
            print(f"failed: {n} x {kind}: {self.first[kind]}", file=sys.stderr)


def attempt(run, failures: Failures, *args):
    """One operation: the transitions it reports, or 0 if it failed."""
    try:
        return run(*args)
    except Exception as e:  # counted and reported: a failed operation
        failures.record(e)
        return 0


TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def tail(times_ns: list) -> tuple[int, float, int]:
    """(p, the p-th percentile in ms, samples beyond it), by nearest rank.

    p is the highest of TAIL_PERCENTILES that leaves at least ten
    samples beyond it, or the lowest of them if none does.
    """
    s = sorted(times_ns)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * len(s) / 100)
        if len(s) - rank >= 10:
            break
    return p, s[rank - 1] / 1e6, len(s) - rank


def set_up(wl, seed: int):
    """One timed set-up: (seconds, tamc modules, layer table, inputs)."""
    start = time.perf_counter()
    tm = load_tamc()
    L = Layers(tm)
    inputs = wl.setup(tm, L, seed)
    return time.perf_counter() - start, tm, L, inputs


def timed_run(wl, seed: int, seconds: int) -> tuple[dict, int, Failures]:
    setup_s, tm, L, inputs = set_up(wl, seed)
    setup_times = [setup_s]
    ops = wl.prepare(tm, inputs)
    if len(ops) < len(inputs):
        print(f"{len(inputs) - len(ops)} of {len(inputs)} inputs left out by the reference pass")

    failures = Failures()
    total = [0] * len(ops)  # each operation's time summed over the passes, ns
    transitions = [None] * len(ops)  # None: counted after the loop
    samples: list[int] = []
    budget = seconds * 1e9
    clock = time.perf_counter_ns
    busy = 0  # ns spent in operations
    passes = 0
    gc.collect()
    while True:
        pass_ns = 0
        for k, op in enumerate(ops):
            t0 = clock()
            n = attempt(wl.run, failures, L, op)
            dt = clock() - t0
            samples.append(dt)
            total[k] += dt
            if passes == 0:
                transitions[k] = n
            pass_ns += dt
            # The remaining set-ups run between operations, spread evenly
            # over the loop, so that their median sees the same host as it.
            due = len(setup_times) * budget / SETUP_REPEATS
            if len(setup_times) < SETUP_REPEATS and busy + pass_ns >= due:
                setup_times.append(set_up(wl, seed)[0])
                gc.collect()
        busy += pass_ns
        passes += 1
        # start another pass only if one more like the last still fits
        if busy + pass_ns > budget:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(set_up(wl, seed)[0])
    for k, op in enumerate(ops):
        if transitions[k] is None:
            transitions[k] = wl.transitions(L, op)

    # An operation's time is its mean over the passes. The percentiles
    # are taken over the distinct operations.
    mean_ns = [t / passes for t in total]
    p, tail_ms, beyond = tail(mean_ns)
    metrics = {
        "ops_per_s": len(samples) / busy * 1e9,
        "op_ms_p50": statistics.median(mean_ns) / 1e6,
        "op_ms_tail": tail_ms,
        "transitions_per_s": passes * sum(transitions) / busy * 1e9,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    attempted = len(samples)
    print(f"workload {wl.name}, seed {seed}: closed loop, 1 client, {attempted} operations")
    print(f"{passes} passes over {len(ops)} operations in {busy / 1e9:.3f} s of the {seconds} s budget")
    print(f"failed_frac {failures.count / attempted:.6f} ({failures.count} of {attempted})")
    print(
        f"median of every sample {statistics.median(samples) / 1e6:.4f} ms;"
        f" op_ms_* below are over each operation's mean of its {passes} times"
    )
    for name, unit in END_TO_END.items():
        note = ""
        if name == "op_ms_tail":
            note = f"  (p{p}, {beyond} of {len(ops)} operations beyond it)"
            if beyond < 10:
                note += "; fewer than ten beyond, so the tail is not resolved"
        elif name == "setup_s":
            note = f"  (median of {SETUP_REPEATS}: {' '.join(f'{t:.3f}' for t in setup_times)})"
        print(f"{name:18} {metrics[name]:14.4f} {unit}{note}")
    return metrics, attempted, failures


def traced_run(wl, seed: int) -> tuple[dict, int, Failures, list]:
    tracer = Tracer()
    tm = load_tamc()
    with tracer.patch(tm.generate, {"normalize_source": "generate.candidate"}):
        inputs = wl.setup(tm, Layers(tm, tracer), seed)
    ops = wl.prepare(tm, inputs)
    failures = Failures()
    L = Layers(tm)

    def untraced_pass():
        gc.collect()
        start = time.perf_counter()
        for op in ops:
            attempt(wl.run, failures, L, op)
        return time.perf_counter() - start

    def traced_pass(tr):
        TL = Layers(tm, tr)
        run_op = tr.wrap("op", wl.run)
        gc.collect()
        start = time.perf_counter()
        with tr.patch(tm.bisim, BISIM_NAMES, {"wrap": count_wrap_out_nodes(tr, tm)}):
            for i, op in enumerate(ops):
                tr.op = i
                attempt(run_op, failures, TL, op)
        return time.perf_counter() - start

    # A warm-up pass, then untraced and traced passes in turn, so that a
    # drift in machine speed falls on both sides. The first traced pass
    # records the spans; the others, with throwaway tracers, only time.
    untraced_pass()
    untraced_times, traced_times = [], []
    for k in range(TRACE_PAIRS):
        untraced_times.append(untraced_pass())
        traced_times.append(traced_pass(tracer if k == 0 else Tracer()))
    untraced = statistics.median(untraced_times)
    traced = statistics.median(traced_times)
    # each traced pass against the untraced one just before it
    overhead = statistics.median(t - u for u, t in zip(untraced_times, traced_times))

    problems = wl.check_counters(tm, tracer, ops)
    metrics = layer_metrics(tracer)
    metrics["trace.untraced_s"] = untraced
    metrics["trace.overhead_s"] = overhead
    spans = ROOT / ".perfbench_out" / f"spans-{wl.name}-{seed}.csv"
    write_spans(tracer, spans)

    print(f"workload {wl.name}, seed {seed}: trace pass of {len(ops)} operations")
    print(
        f"median of {TRACE_PAIRS}: untraced {untraced:.4f} s, traced {traced:.4f} s,"
        f" overhead (median of the pairs' differences) {overhead:.4f} s"
    )
    print(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    print("self-time shares of the traced operations:")
    for name, share in sorted(self_shares(tracer).items(), key=lambda kv: -kv[1]):
        if share >= 0.005:
            print(f"  {name:32} {100 * share:6.1f}%")
    for name, unit in PER_LAYER.items():
        print(f"{name:34} {metrics[name]:16.6f} {unit}")
    return metrics, (1 + 2 * TRACE_PAIRS) * len(ops), failures, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    use_sources()
    wl = WORKLOADS[args.workload]
    if args.trace:
        metrics, attempted, failures, problems = traced_run(wl, args.seed)
        units = PER_LAYER
    else:
        metrics, attempted, failures = timed_run(wl, args.seed, args.seconds)
        problems = []
        units = END_TO_END
    failures.report()
    for line in problems:
        print(f"counter mismatch: {line}", file=sys.stderr)
    result = {
        "correct": failures.count == 0 and not problems,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
