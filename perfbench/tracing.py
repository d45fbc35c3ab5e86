"""Spans recorded around the calls into each tamc layer.

A span is (name, start_ns, end_ns, parent index, operation id). Spans
stay in memory while the traced pass runs; `write_spans` puts them on
disk afterwards and `layer_metrics` turns them into the per-layer
numbers. Wrappers are installed in one of two ways:

- the harness calls layers through a `Layers` table (see workloads.py),
  and the traced table holds `Tracer.wrap`ped functions;
- `bisim_check` calls its layers itself, so `Tracer.patch` rebinds the
  names `tamc.bisim` imported, in that module's namespace only. Calls a
  layer makes inside its own module go through that module's names and
  stay unwrapped, so a recursive layer opens one span, not one per
  level. `patch` restores the original names on exit.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

MACHINES = ("machine_source", "machine_int", "machine_target")

# Names tamc.bisim imported, and the span each call opens.
BISIM_NAMES = {
    "wrap": "transforms.wrap",
    "closure_convert": "transforms.closure_convert",
    "unwrap": "transforms.unwrap",
    "naming": "transforms.naming",
    "alpha_eq_int": "terms.alpha_eq",
    "step_source": "calculi.step",
    "step_int": "calculi.step",
    "step_target": "calculi.step",
    "init_stam": "machine_source.init",
    "init_itam": "machine_int.init",
    "init_ttam": "machine_target.init",
    "step_stam": "machine_source.step",
    "step_itam": "machine_int.step",
    "step_ttam": "machine_target.step",
    "readback_stam": "machine_source.readback",
    "readback_itam": "machine_int.readback",
    "readback_ttam": "machine_target.readback",
}

# Span names reported as `<name>_s`: the inclusive time of every span
# with that name.
TIMED_SPANS = (
    "analysis.build",
    "analysis.unfolded_size",
    "calculi.step",
    "generate.gen",
    "syntax.parse",
    "syntax.print",
    "terms.alpha_eq",
    "transforms.wrap",
    "transforms.eliminate_names",
    "transforms.closure_convert",
    "transforms.unwrap",
    "transforms.naming",
    "transforms.reverse_convert",
) + tuple(f"{m}.{phase}" for m in MACHINES for phase in ("init", "run", "step", "readback"))

# Every per-layer metric and its unit. A layer a workload never calls
# reports 0.
PER_LAYER = {
    **{f"{name}_s": "s" for name in TIMED_SPANS},
    "bisim.walk_self_s": "s",
    "calculi.steps": "count",
    "calculi.ns_per_step": "ns",
    "generate.accept_ratio": "ratio",
    "transforms.wrap_out_nodes": "count",
    **{
        f"{m}.{name}": unit
        for m in MACHINES
        for name, unit in (
            ("transitions", "count"),
            ("elem_ops", "count"),
            ("env_copy_ops", "count"),
            ("lookup_ops", "count"),
            ("ns_per_elem_op", "ns"),
            ("readback_calls", "count"),
        )
    },
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder with per-operation cost tallies."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict = defaultdict(int)
        # (op id, machine) -> [transitions, elem_ops, env_copy_ops, lookup_ops]
        self.costs: dict = {}

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, self.op)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_step(self, machine: str, fn):
        """A machine step function that also tallies the counted costs."""

        def tally(r):
            cost = getattr(r, "cost", None)  # a MachineFinal has none
            if cost is not None:
                t = self.costs.get((self.op, machine))
                if t is None:
                    t = self.costs[(self.op, machine)] = [0, 0, 0, 0]
                t[0] += 1
                t[1] += cost.elem
                t[2] += cost.env_copy
                t[3] += cost.lookup

        return self.wrap(f"{machine}.step", fn, tally)

    def counter(self, key: str, measure):
        """An on_result for `wrap` that adds measure(result) to counts[key]."""

        def add(result):
            self.counts[key] += measure(result)

        return add

    @contextmanager
    def patch(self, module, names: dict, on_result=None):
        """Rebind `module.<name>` to a traced wrapper for the duration.

        on_result maps some of the names to the callback their wrapper
        passes each result to, as in `wrap`.
        """
        on_result = on_result or {}
        saved = {name: getattr(module, name) for name in names}
        try:
            for name, span in names.items():
                fn = saved[name]
                machine = span.removesuffix(".step")
                wrapped = (
                    self.wrap_step(machine, fn)
                    if machine in MACHINES
                    else self.wrap(span, fn, on_result.get(name))
                )
                setattr(module, name, wrapped)
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)


def _walk_self_ns(spans) -> int:
    """Self time of bisim's machine walks.

    Inside one `bisim.check` span the walks start with the first machine
    init call and run to the end of the check. Their self time is that
    interval minus the spans directly under the check that lie in it
    (init, step and readback calls): the time bisim spends comparing
    read-back terms and driving the loop.
    """
    checks = {i for i, s in enumerate(spans) if s[0] == "bisim.check"}
    first_init: dict[int, int] = {}
    for name, start, _, parent, _ in spans:
        if parent in checks and name.endswith(".init"):
            if start < first_init.get(parent, start + 1):
                first_init[parent] = start
    covered: dict[int, int] = defaultdict(int)
    for _, start, end, parent, _ in spans:
        if parent in first_init and start >= first_init[parent]:
            covered[parent] += end - start
    return sum(spans[p][2] - first_init[p] - covered[p] for p in first_init)


def layer_metrics(tracer: Tracer) -> dict:
    """Every PER_LAYER metric except the trace.* ones, from the spans."""
    total_ns: dict = defaultdict(int)
    calls: dict = defaultdict(int)
    for name, start, end, _, _ in tracer.spans:
        total_ns[name] += end - start
        calls[name] += 1
    out = {f"{name}_s": total_ns[name] / 1e9 for name in TIMED_SPANS}
    out["bisim.walk_self_s"] = _walk_self_ns(tracer.spans) / 1e9
    steps = calls["calculi.step"]
    out["calculi.steps"] = steps
    out["calculi.ns_per_step"] = total_ns["calculi.step"] / steps if steps else 0.0
    tried = calls["generate.candidate"]
    out["generate.accept_ratio"] = tracer.counts["generate.kept"] / tried if tried else 0.0
    out["transforms.wrap_out_nodes"] = tracer.counts["transforms.wrap_out_nodes"]
    for m in MACHINES:
        tally = [0, 0, 0, 0]
        for (_, machine), t in tracer.costs.items():
            if machine == m:
                tally = [a + b for a, b in zip(tally, t)]
        transitions, elem, env_copy, lookup = tally
        out[f"{m}.transitions"] = transitions
        out[f"{m}.elem_ops"] = elem
        out[f"{m}.env_copy_ops"] = env_copy
        out[f"{m}.lookup_ops"] = lookup
        out[f"{m}.ns_per_elem_op"] = total_ns[f"{m}.step"] / elem if elem else 0.0
        out[f"{m}.readback_calls"] = calls[f"{m}.readback"]
    return out


def self_shares(tracer: Tracer) -> dict:
    """Share of the traced operations' time spent in each span name's own code."""
    child_ns = [0] * len(tracer.spans)
    for _, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: dict = defaultdict(int)
    top = 0
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        if op < 0:
            continue  # set-up, outside any operation
        self_ns[name] += end - start - child_ns[i]
        if name == "op":
            top += end - start
    return {name: ns / top for name, ns in sorted(self_ns.items()) if top}


def write_spans(tracer: Tracer, path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write("name,start_ns,end_ns,parent,op\n")
        for name, start, end, parent, op in tracer.spans:
            f.write(f"{name},{start},{end},{parent},{op}\n")
