"""The four workloads and the layer table they call tamc through.

Each workload builds its inputs from the seed (`setup`, timed as set-up
time), may derive references that do not come from the code under test
(`prepare`, untimed), and runs one operation at a time (`run`). An
operation returns the machine transitions it executed, or None when
they are only countable afterwards (`transitions`), and raises
`Mismatch` when its verdict differs from the reference.

Every workload has at least forty distinct operations, and a pass over
them takes 2 s to 6 s, so that a 30-second run repeats each of them
several times. Nothing fails on the commit that introduced the
benchmark: see RATIONALE.md for the grids' limits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from tracing import MACHINES

ROOT = Path(__file__).resolve().parent.parent


class Mismatch(Exception):
    """An operation's verdict differs from its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass(frozen=True)
class Machine:
    name: str  # the module, e.g. "machine_int"
    init: object
    readback: object
    run: object  # (state, fuel) -> RunRecord, through machine_common.run_loop


def count_wrap_out_nodes(tracer, tm):
    """The on_result of a traced transforms.wrap: the size_int of its output."""
    return tracer.counter("transforms.wrap_out_nodes", tm.terms.size_int)


class Layers:
    """The tamc functions the harness calls, plain or wrapped in spans."""

    def __init__(self, tm, tracer=None):
        def span(name, fn, on_result=None):
            return fn if tracer is None else tracer.wrap(name, fn, on_result)

        self.tm = tm  # untraced, for references and constants
        self.parse = span("syntax.parse", tm.syntax.parse)
        self.print_source = span("syntax.print", tm.syntax.print_source)
        self.wrap = span(
            "transforms.wrap",
            tm.transforms.wrap,
            tracer and count_wrap_out_nodes(tracer, tm),
        )
        self.eliminate_names = span("transforms.eliminate_names", tm.transforms.eliminate_names)
        self.closure_convert = span("transforms.closure_convert", tm.transforms.closure_convert)
        self.unwrap = span("transforms.unwrap", tm.transforms.unwrap)
        self.reverse_convert = span("transforms.reverse_convert", tm.transforms.reverse_convert)
        self.build = span("analysis.build", lambda family, n: tm.analysis.FAMILIES[family](n))
        self.unfolded_size_from_int = span(
            "analysis.unfolded_size", tm.analysis.unfolded_size_from_int
        )
        self.unfolded_size_from_target = span(
            "analysis.unfolded_size", tm.analysis.unfolded_size_from_target
        )
        self.bisim_check = span("bisim.check", tm.bisim.bisim_check)
        self.gen_corpus = span(
            "generate.gen", tm.generate.gen_corpus, tracer and tracer.counter("generate.kept", len)
        )
        self.machines = tuple(
            self._machine(tm, name, suffix, tracer)
            for name, suffix in zip(MACHINES, ("stam", "itam", "ttam"))
        )

    @staticmethod
    def _machine(tm, name, suffix, tracer) -> Machine:
        mod = getattr(tm, name)
        init = getattr(mod, f"init_{suffix}")
        step = getattr(mod, f"step_{suffix}")
        measure = getattr(mod, f"measure_{suffix}")
        readback = getattr(mod, f"readback_{suffix}")
        run_loop = tm.machine_common.run_loop
        if tracer is not None:
            init = tracer.wrap(f"{name}.init", init)
            step = tracer.wrap_step(name, step)
            readback = tracer.wrap(f"{name}.readback", readback)

        def run(state, fuel):
            return run_loop(step, measure, state, fuel)

        if tracer is not None:
            run = tracer.wrap(f"{name}.run", run)
        return Machine(name, init, readback, run)


def _walk_transitions(rec, fuel: int, cut_short: bool):
    """Transitions bisim's walk of this machine run executes.

    The walk follows the run to its end, or, when the interpreter ran
    out of fuel, up to the principal transition one past the fuel. None
    if the run was cut short by fuel before either.
    """
    principal = 0
    for i, name in enumerate(rec.labels, start=1):
        if name in ("ebeta", "epi"):
            principal += 1
            if principal > fuel:
                return i
    if cut_short and rec.final == "fuel":
        return None
    return rec.steps


@dataclass(frozen=True)
class BisimOp:
    label: str
    term: object
    fuel: int
    outcome: str  # the reference: "value", "clash:<kind>" or "fuel"
    beta: int
    pi: int


class Workload:
    name: str

    def prepare(self, tm, inputs):
        return inputs

    def check_counters(self, tm, tracer, ops) -> list[str]:
        return []


class _BisimWorkload(Workload):
    """Shared by fuzz and deep: one operation is one bisim_check."""

    def run(self, L: Layers, op: BisimOp):
        rep = L.bisim_check(op.term, fuel=op.fuel)
        expect(rep.ok, f"{op.label}: bisim failed: {'; '.join(rep.failures)}")
        expect(rep.outcome == op.outcome, f"{op.label}: outcome {rep.outcome}, want {op.outcome}")
        expect(
            (rep.beta, rep.pi) == (op.beta, op.pi),
            f"{op.label}: beta/pi {rep.beta}/{rep.pi}, want {op.beta}/{op.pi}",
        )
        return None

    def transitions(self, L: Layers, op: BisimOp) -> int:
        """Replays the three machine runs bisim_check walks."""
        u = op.term
        inputs = (u, L.wrap(u), L.closure_convert(u))
        machine_fuel = 20 * op.fuel + 10_000  # bisim_check's default
        # Omega takes seven transitions per beta: a run of eight per
        # principal step settles most operations without the full fuel.
        short_fuel = min(machine_fuel, 8 * (op.fuel + 1))
        total = 0
        for m, x in zip(L.machines, inputs):
            n = _walk_transitions(m.run(m.init(x), short_fuel), op.fuel, short_fuel < machine_fuel)
            if n is None:
                n = _walk_transitions(m.run(m.init(x), machine_fuel), op.fuel, False)
            total += n
        return total


FUZZ_TERMS = 1600
# Generated terms normally stop within 20 steps; the rare one that is
# still reducing after this many is left to the deep workload, since
# bisim_check of a divergent term at the default fuel takes minutes.
FUZZ_REFERENCE_FUEL = 200


class Fuzz(_BisimWorkload):
    name = "fuzz"

    def setup(self, tm, L: Layers, seed: int):
        return L.gen_corpus(tm.generate.GenConfig(seed=seed), FUZZ_TERMS)

    def prepare(self, tm, corpus):
        """References from calculi.normalize_source alone."""
        c = tm.calculi
        ops = []
        for i, t in enumerate(corpus):
            r = c.normalize_source(t, fuel=FUZZ_REFERENCE_FUEL)
            if isinstance(r.final, c.FuelExhausted):
                continue
            if isinstance(r.final, c.ClashOutcome):
                outcome = f"clash:{r.final.kind.value}"
            else:
                outcome = "value"
            beta = sum(1 for label in r.labels if label is c.StepLabel.BETA)
            ops.append(
                BisimOp(
                    f"fuzz#{i}",
                    t,
                    tm.bisim.DEFAULT_BISIM_FUEL,
                    outcome,
                    beta,
                    len(r.labels) - beta,
                )
            )
        return ops

# Church numerals: church(a) applied to church(b) iterates b^a times, so
# church_program(a, b, g) applies g b^a times to <> and returns <>.
STEP_FUNCTIONS = {"id": "fun(u) -> u", "pi": "fun(u) -> pi 1 <u, u>"}


def church(k: int) -> str:
    body = "x"
    for _ in range(k):
        body = f"f <{body}>"
    return f"fun(f) -> fun(x) -> {body}"


def church_program(a: int, b: int, g: str) -> str:
    return f"({church(a)}) <{church(b)}> <{STEP_FUNCTIONS[g]}> <<>>"


def church_counts(a: int, b: int, g: str) -> tuple[int, int]:
    """(beta, pi) steps of church_program(a, b, g), in closed form.

    Two betas apply church(a) and its result, a more build the a
    iterated numerals g_1..g_a, and applying g_k to a value takes
    1 + b * (steps of g_{k-1}) betas, (b^(a+1) - 1) / (b - 1) in all.
    Each of the b^a calls of the "pi" step function projects once.
    """
    beta = 2 + a + (b ** (a + 1) - 1) // (b - 1)
    return beta, b**a if g == "pi" else 0


def omega_text() -> str:
    return (ROOT / "corpus" / "omega.lam").read_text(encoding="utf-8")


# Forty operations, so that the 75th percentile over them leaves ten
# beyond it; their times (about 10 ms to 300 ms) are spaced closely enough
# that neighbours in rank differ by a few percent.
DEEP_CHURCH = (
    (2, 3, "id"),
    (2, 3, "pi"),
    (3, 2, "id"),
    (3, 2, "pi"),
    (2, 4, "id"),
    (2, 4, "pi"),
    (2, 5, "id"),
    (4, 2, "id"),
    (3, 3, "id"),
    (4, 2, "pi"),
    (2, 5, "pi"),
    (5, 2, "id"),
    (2, 6, "id"),
    (3, 3, "pi"),
)
DEEP_OMEGA_FUELS = tuple(range(20, 280, 10))


class Deep(_BisimWorkload):
    name = "deep"

    def setup(self, tm, L: Layers, seed: int):
        fuel = tm.bisim.DEFAULT_BISIM_FUEL
        ops = []
        for a, b, g in DEEP_CHURCH:
            beta, pi = church_counts(a, b, g)
            t = L.parse(church_program(a, b, g))
            ops.append(BisimOp(f"church-{a}-{b}-{g}", t, fuel, "value", beta, pi))
        omega = L.parse(omega_text())
        for f in DEEP_OMEGA_FUELS:
            # every step of omega is a beta
            ops.append(BisimOp(f"omega@{f}", omega, f, "fuel", f, 0))
        random.Random(seed).shuffle(ops)
        return ops


# Forty instances, each of which completes (see RATIONALE.md for where
# larger n fail).
FAMILY_GRID = {
    "tuple-explosion": tuple(range(4, 16)),
    "fun-explosion": tuple(range(8, 97, 8)),
    "quadratic-wrap": tuple(range(10, 90, 5)),
}


class Families(Workload):
    name = "families"

    def setup(self, tm, L: Layers, seed: int):
        ops = [(family, n) for family, ns in FAMILY_GRID.items() for n in ns]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, L: Layers, op):
        family, n = op
        an = L.tm.analysis
        size_int = L.tm.terms.size_int
        fuel = L.tm.calculi.DEFAULT_FUEL  # what analysis.bench runs with
        t = L.build(family, n)
        w = L.wrap(t)
        c = L.eliminate_names(w, (), ())
        _, inter, target = L.machines
        recs = [m.run(m.init(x), fuel) for m, x in zip(L.machines, (t, w, c))]
        expect(all(r.beta == n for r in recs), f"{family}({n}): betas {[r.beta for r in recs]}")
        if family == "quadratic-wrap":
            # the driver applies the wrapped family term to n arguments
            fn = w
            for _ in range(n):
                fn = fn.fn
            expect(
                size_int(fn) == an.quadratic_wrapped_size(n),
                f"{family}({n}): wrapped size {size_int(fn)}",
            )
            expect(
                all(r.final == "clash" and r.clash.value == "abstraction-or-closure" for r in recs),
                f"{family}({n}): finals {[r.final for r in recs]}",
            )
        else:
            expect(all(r.final == "successful" for r in recs), f"{family}({n}): did not finish")
            want = (
                an.tuple_explosion_nf_size(n)
                if family == "tuple-explosion"
                else an.fun_explosion_nf_size(n)
            )
            got = (
                L.unfolded_size_from_int(inter.readback(recs[1].final_state)),
                L.unfolded_size_from_target(target.readback(recs[2].final_state)),
            )
            expect(got == (want, want), f"{family}({n}): unfolded sizes {got}, want {want}")
        return sum(r.steps for r in recs)

    def check_counters(self, tm, tracer, ops) -> list[str]:
        """Traced counters against the analysis.bench row of each (family, n, machine)."""
        out = []
        for i, (family, n) in enumerate(ops):
            for row in tm.analysis.bench(family, [n]):
                want = [row.total, row.elem_ops, row.env_copy_ops, row.lookup_ops]
                got = tracer.costs.get((i, f"machine_{row.machine}"))
                if got != want:
                    out.append(f"{family}({n}) {row.machine}: traced {got}, bench {want}")
        return out


# (name, program text or None for corpus/omega.lam, fuel, expected output).
# Fourteen programs on three machines: forty-two operations of 20 ms to
# 90 ms, each from thousands to tens of thousands of transitions.
RUN_CHURCH = (
    (3, 6, "pi"),
    (3, 7, "id"),
    (3, 7, "pi"),
    (3, 8, "id"),
    (3, 8, "pi"),
    (4, 4, "pi"),
    (4, 5, "id"),
    (4, 5, "pi"),
    (5, 3, "id"),
    (5, 3, "pi"),
    (6, 3, "id"),
    (8, 2, "id"),
)
RUN_OMEGA_FUELS = (5_000, 10_000)
RUN_PROGRAMS = tuple(
    (f"church-{a}-{b}-{g}", church_program(a, b, g), 100_000, "<>") for a, b, g in RUN_CHURCH
) + tuple(
    (f"omega@{f}", None, f, f"fuel exhausted after {f} transitions") for f in RUN_OMEGA_FUELS
)


class Run(Workload):
    """The `tamc run` path, one program on one machine per operation."""

    name = "run"

    def setup(self, tm, L: Layers, seed: int):
        omega = omega_text()
        ops = [
            (name, text if text is not None else omega, fuel, expected, k)
            for name, text, fuel, expected in RUN_PROGRAMS
            for k in range(3)
        ]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, L: Layers, op):
        name, text, fuel, expected, k = op
        t = L.parse(text)
        m = L.machines[k]
        if k == 0:
            x = t
        elif k == 1:
            x = L.wrap(t)
        else:
            x = L.closure_convert(t)
        rec = m.run(m.init(x), fuel)
        if rec.final == "fuel":
            out = f"fuel exhausted after {rec.steps} transitions"
        elif rec.final == "clash":
            out = f"clash: {rec.clash.value}"
        else:
            result = m.readback(rec.final_state)
            if k == 1:
                result = L.unwrap(result)
            elif k == 2:
                result = L.reverse_convert(result)
            out = L.print_source(result)
        expect(out == expected, f"{name} on {m.name}: printed {out!r}, want {expected!r}")
        return rec.steps


WORKLOADS = {w.name: w for w in (Fuzz(), Deep(), Families(), Run())}
