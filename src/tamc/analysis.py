"""Term families, run checkers, and the benchmark table.

The three families stress different costs:

- tuple explosion: s_0 = I, s_{n+1} = (fun(x) -> <x, x>) <s_n>.
  Normalizes in n beta steps to a complete binary tree of identities
  whose unfolded size is 5 * 2^n - 2, while every machine keeps the
  result shared and linear.
- function explosion: t_0 = I, t_{n+1} = p <t_n> with
  p = fun(x) -> fun(y) -> (y <x>) <x>. Same shape of blowup but the
  duplication happens under a binder, so the growth lives inside
  closure bags rather than tuples.
- quadratic wrap: t_n = fun(x1) -> ... fun(xn) -> x1 x2 ... xn.
  The term is linear in n but wrapping it is quadratic, because each
  nested closure wraps all the variables above it.

Checkers take RunRecords and evaluate the transition-match
inequality, the bilinear transition bound, and the per-transition
overhead-measure clauses. One unfolded-size function, serving the
intermediate and target calculi alike, computes the size of the
source term a machine result denotes without building that term, in
time linear in the result's shared structure, so the explosion
families are checkable at any n the machines reach.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass, fields

from .calculi import DEFAULT_FUEL
from .machine_common import RunRecord, run_loop
from .machine_int import init_itam, measure_itam, readback_itam, step_itam
from .machine_source import init_stam, measure_stam, readback_stam, step_stam
from .machine_target import init_ttam, measure_ttam, readback_ttam, step_ttam
from .terms import (
    Abs,
    App,
    Closure,
    IntTerm,
    Proj,
    PVar,
    PVarBag,
    TClosure,
    TargetTerm,
    Tuple,
    ValBag,
    Var,
    VarBag,
    metrics,
)
from .transforms import closure_convert, reverse_convert, unwrap, wrap


def identity() -> Abs:
    return Abs((Var("z"),), Var("z"))


def family_tuple_explosion(n: int) -> "App | Abs":
    if n < 0:
        raise ValueError("family index must be nonnegative")
    tau = Abs((Var("x"),), Tuple((Var("x"), Var("x"))))
    t = identity()
    for _ in range(n):
        t = App(tau, Tuple((t,)))
    return t


def tuple_explosion_size(n: int) -> int:
    return 8 * n + 3


def tuple_explosion_nf_size(n: int) -> int:
    return 5 * 2**n - 2


def family_fun_explosion(n: int) -> "App | Abs":
    if n < 0:
        raise ValueError("family index must be nonnegative")
    x, y = Var("x"), Var("y")
    dup = Abs((x,), Abs((y,), App(App(y, Tuple((x,))), Tuple((x,)))))
    t = identity()
    for _ in range(n):
        t = App(dup, Tuple((t,)))
    return t


def fun_explosion_size(n: int) -> int:
    return 13 * n + 3


def fun_explosion_nf_size(n: int) -> int:
    return 10 * 2**n - 7


def family_quadratic_wrap(n: int) -> Abs:
    if n < 1:
        raise ValueError("family index must be at least 1")
    xs = tuple(Var(f"x{i}") for i in range(1, n + 1))
    body = xs[0]
    for v in xs[1:]:
        body = App(body, v)
    t = body
    for v in reversed(xs):
        t = Abs((v,), t)
    return t


def quadratic_wrap_size(n: int) -> int:
    return 4 * n - 1


def quadratic_wrapped_size(n: int) -> int:
    return (n * n + 5 * n) // 2 - 1


def quadratic_driver(n: int) -> App:
    """family_quadratic_wrap(n) applied to n unary tuples of identities.

    The driver saturates every binder, so the body's application spine
    runs with an n-entry environment. The spine itself finally clashes
    (an identity applied to an identity rather than to a tuple), which
    is fine: the counters of interest are accumulated on the way there
    and all machines agree on the clash.
    """
    t = family_quadratic_wrap(n)
    arg = Tuple((identity(),))
    for _ in range(n):
        t = App(t, arg)
    return t


def _require_machine(machine: str) -> None:
    if machine not in MACHINES:
        raise ValueError(f"unknown machine kind: {machine}")


def check_transition_match(rec: RunRecord, machine: str) -> bool:
    """Completed-run inequality: consumers never outnumber producers."""
    _require_machine(machine)
    c = rec.counts.get
    left = c("epi", 0) + c("esea1", 0) + c("esea3", 0)
    right = c("usea1", 0) + c("usea2", 0) + c("usea3", 0)
    if machine != "source":
        left += c("esea7", 0)
        right += c("ebeta", 0)
    return left <= right


def bilinear_ratio(rec: RunRecord, initial_size: int) -> float:
    return rec.steps / ((rec.beta + 1) * max(initial_size, 1))


def check_bilinear(rec: RunRecord, initial_size: int, constant: float) -> tuple[bool, float]:
    ratio = bilinear_ratio(rec, initial_size)
    return ratio <= constant, ratio


_SOURCE_CLASSES = {
    "usub": "dec",
    "usea1": "dec",
    "usea2": "dec",
    "usea3": "dec",
    "usea5": "dec",
    "esea6": "dec",
    "usea4": "same",
    "esea1": "same",
    "esea3": "same",
    "epi": "same",
    "ebeta": "beta",
}

_STACKED_CLASSES = {
    "usubv": "dec",
    "usea1": "dec",
    "usea2": "dec",
    "usea3": "dec",
    "esea6": "dec",
    "usubw": "noninc",
    "usea4": "same",
    "esea1": "same",
    "esea3": "same",
    "epi": "same",
    "esea7": "same",
    "ebeta": "beta",
}


def measure_violations(rec: RunRecord, machine: str, initial_size: int) -> list[str]:
    _require_machine(machine)
    if rec.measures is None:
        raise ValueError("run was not recorded with measures")
    classes = _SOURCE_CLASSES if machine == "source" else _STACKED_CLASSES
    out = []
    for i, (name, before, after) in enumerate(
        zip(rec.labels, rec.measures, rec.measures[1:])
    ):
        cls = classes.get(name)
        delta = after - before
        ok = True
        if cls is None:
            ok = False
        elif cls == "dec":
            ok = delta < 0
        elif cls == "noninc":
            ok = delta <= 0
        elif cls == "same":
            ok = delta == 0
        elif cls == "beta":
            ok = delta <= initial_size
        if not ok:
            out.append(f"step {i} {name}: measure {before} -> {after} breaks '{cls}'")
    return out


def audit_measure(rec: RunRecord, machine: str, initial_size: int) -> bool:
    return not measure_violations(rec, machine, initial_size)


def unfolded_size_from_int(t: IntTerm | TargetTerm) -> int:
    """Size of the source term this intermediate or target term unwraps to.

    Computed over the shared structure: closure bodies are costed with
    a size map from each wrapped variable (its name, or for a target
    closure its l-index) to its bag entry's size, instead of
    substituting; parameters and s-projections count 1. Under the empty
    size map a node's size depends on nothing outside it, so those sizes
    are memoized by node identity, tuples and bag values included: the
    cost is linear in the shared structure, not in the unfolded tree.
    """
    memo: dict[int, tuple] = {}

    def term_size(t, sizes: dict) -> int:
        if not sizes:
            hit = memo.get(id(t))
            if hit is not None:
                return hit[1]
        # tuples first: the unfolded explosion results are mostly tuple nodes
        match t:
            case Tuple(items=items):
                out = len(items) + sum(term_size(i, sizes) for i in items)
            case Var(name=name):
                return sizes.get(name, 1)
            case PVar(base=base, index=i):
                return sizes.get(i, 1) if base == "l" else 1
            case Closure(wrapped=w, params=p, body=b, bag=bag):
                out = closure_size([v.name for v in w], len(p), b, bag, sizes)
            case TClosure(n_wrapped=n, n_params=m, body=b, bag=bag):
                out = closure_size(range(1, n + 1), m, b, bag, sizes)
            case App(fn=fn, arg=arg):
                out = 1 + term_size(fn, sizes) + term_size(arg, sizes)
            case Proj(arg=arg):
                out = 1 + term_size(arg, sizes)
            case _:
                raise TypeError(f"not an intermediate or target term: {t!r}")
        if not sizes:
            memo[id(t)] = (t, out)
        return out

    def closure_size(keys, m: int, body, bag, sizes: dict) -> int:
        match bag:
            case ValBag(vals=vals):
                inner = {k: term_size(v, {}) for k, v in zip(keys, vals)}
            case VarBag(vars=vs) | PVarBag(pvars=vs):
                inner = {k: term_size(v, sizes) for k, v in zip(keys, vs)}
        return 1 + m + term_size(body, inner)

    return term_size(t, {})


unfolded_size_from_target = unfolded_size_from_int


@dataclass(frozen=True, slots=True)
class Machine:
    """One machine, from the source term it is given to the source term it gives back."""

    translate: Callable  # source term -> the machine's input term
    init: Callable
    step: Callable
    measure: Callable
    readback: Callable
    read_out: Callable  # read-back term -> source term

    def run(self, u, fuel: int = DEFAULT_FUEL) -> RunRecord:
        return run_loop(self.step, self.measure, self.init(self.translate(u)), fuel)


def _as_is(t):
    return t


MACHINES = {
    "source": Machine(_as_is, init_stam, step_stam, measure_stam, readback_stam, _as_is),
    "int": Machine(wrap, init_itam, step_itam, measure_itam, readback_itam, unwrap),
    "target": Machine(
        closure_convert, init_ttam, step_ttam, measure_ttam, readback_ttam, reverse_convert
    ),
}


FAMILIES = {
    "tuple-explosion": family_tuple_explosion,
    "fun-explosion": family_fun_explosion,
    "quadratic-wrap": quadratic_driver,
}


@dataclass(frozen=True, slots=True)
class BenchRow:
    family: str
    n: int
    machine: str
    size: int
    width: int
    height: int
    beta: int
    pi: int
    total: int
    elem_ops: int
    env_copy_ops: int
    lookup_ops: int


class OutOfFuelError(Exception):
    """A bench run ran out of fuel, so it has no counters to report."""


def bench(family: str, ns, fuel: int = DEFAULT_FUEL) -> list[BenchRow]:
    """Run every machine in MACHINES on each family instance.

    size/width/height describe the source instance; the machine column
    says which machine produced the counter columns. A run that fuel
    cuts short has no row: the first one raises OutOfFuelError.
    """
    builder = FAMILIES.get(family)
    if builder is None:
        raise ValueError(f"unknown family: {family}")
    rows = []
    for n in ns:
        t = builder(n)
        m = metrics(t)
        for machine in MACHINES:
            rec = MACHINES[machine].run(t, fuel)
            if rec.final == "fuel":
                raise OutOfFuelError(
                    f"{family} n={n}: {machine} machine ran out of fuel after {rec.steps} transitions"
                )
            rows.append(
                BenchRow(
                    family=family,
                    n=n,
                    machine=machine,
                    size=m.size,
                    width=m.width,
                    height=m.height,
                    beta=rec.beta,
                    pi=rec.pi,
                    total=rec.steps,
                    elem_ops=rec.elem_ops,
                    env_copy_ops=rec.env_copy_ops,
                    lookup_ops=rec.lookup_ops,
                )
            )
    return rows


def write_bench_csv(rows, out) -> None:
    names = [f.name for f in fields(BenchRow)]
    w = csv.writer(out)
    w.writerow(names)
    for r in rows:
        w.writerow([getattr(r, name) for name in names])
