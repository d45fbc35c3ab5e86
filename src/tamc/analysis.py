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
from functools import partial

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
    Parts,
    PVar,
    PVarBag,
    TClosure,
    TargetTerm,
    Tuple,
    ValBag,
    Var,
    VarBag,
    fold,
    metrics,
)
from .transforms import closure_convert, reverse_convert, unwrap, wrap


def identity() -> Abs:
    return Abs((Var("z"),), Var("z"))


def _explosion(dup: Abs, n: int) -> "App | Abs":
    """dup applied to <t> n times, starting from the identity."""
    if n < 0:
        raise ValueError("family index must be nonnegative")
    t = identity()
    for _ in range(n):
        t = App(dup, Tuple((t,)))
    return t


def family_tuple_explosion(n: int) -> "App | Abs":
    return _explosion(Abs((Var("x"),), Tuple((Var("x"), Var("x")))), n)


def tuple_explosion_size(n: int) -> int:
    return 8 * n + 3


def tuple_explosion_nf_size(n: int) -> int:
    return 5 * 2**n - 2


def family_fun_explosion(n: int) -> "App | Abs":
    x, y = Var("x"), Var("y")
    return _explosion(Abs((x,), Abs((y,), App(App(y, Tuple((x,))), Tuple((x,))))), n)


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


_SHARED_CLASSES = {
    "usea1": "dec",
    "usea2": "dec",
    "usea3": "dec",
    "esea6": "dec",
    "usea4": "same",
    "esea1": "same",
    "esea3": "same",
    "epi": "same",
    "ebeta": "beta",
}

_SOURCE_CLASSES = {**_SHARED_CLASSES, "usub": "dec", "usea5": "dec"}

_STACKED_CLASSES = {**_SHARED_CLASSES, "usubv": "dec", "usubw": "noninc", "esea7": "same"}


def measure_violations(rec: RunRecord, machine: str, initial_size: int) -> list[str]:
    _require_machine(machine)
    if rec.measures is None:
        raise ValueError("run was not recorded with measures")
    classes = _SOURCE_CLASSES if machine == "source" else _STACKED_CLASSES
    out = []
    for i, (name, before, after) in enumerate(zip(rec.labels, rec.measures, rec.measures[1:])):
        cls = classes.get(name)
        delta = after - before
        ok = {"dec": delta < 0, "noninc": delta <= 0, "same": delta == 0, "beta": delta <= initial_size}
        if cls is None:
            out.append(f"step {i} {name}: no measure class for the {machine} machine")
        elif not ok[cls]:
            out.append(f"step {i} {name}: measure {before} -> {after} breaks '{cls}'")
    return out


def audit_measure(rec: RunRecord, machine: str, initial_size: int) -> bool:
    return not measure_violations(rec, machine, initial_size)


def _unfolded_node(u, parts) -> int:
    return (len(u.items) if type(u) is Tuple else 1) + sum(parts)


def _unfolded_leaf(memo: dict, sizes: dict, u) -> int | Parts:
    """The unfolded size's leaf rule under size map sizes; memo holds the empty map's sizes."""
    tu = type(u)
    if tu is Var:
        return sizes.get(u.name, 1)
    if tu is PVar:
        return sizes.get(u.index, 1) if u.base == "l" else 1
    if tu is Closure:
        keys, m = [v.name for v in u.wrapped], len(u.params)
    elif tu is TClosure:
        keys, m = range(1, u.n_wrapped + 1), u.n_params
    else:
        raise TypeError(f"not an intermediate or target term: {u!r}")
    match u.bag:
        case ValBag(vals=vals):
            rule = partial(_unfolded_leaf, memo, {}) if sizes else None
            return Parts(vals, rule, memo, partial(_unfolded_body, memo, sizes, u.body, keys, m))
        case VarBag(vars=vs) | PVarBag(pvars=vs):
            sized = [_unfolded_leaf(memo, sizes, v) for v in vs]
            return _unfolded_body(memo, sizes, u.body, keys, m, *sized)
    raise TypeError(f"not an intermediate or target term: {u!r}")


def _unfolded_body(memo: dict, sizes: dict, body, keys, m: int, *sized) -> Parts:
    """A closure's size once its bag is sized: 1 + m + its body's under the map the bag makes."""
    inner = dict(zip(keys, sized))
    rule = partial(_unfolded_leaf, memo, inner) if inner or sizes else None
    return Parts((body,), rule, None if inner else memo, (1 + m).__add__)


def unfolded_size_from_int(t: IntTerm | TargetTerm) -> int:
    """Size of the source term this intermediate or target term unwraps to.

    Computed over the shared structure: closure bodies are costed with
    a size map from each wrapped variable (its name, or for a target
    closure its l-index) to its bag entry's size, instead of
    substituting; parameters and s-projections count 1. Under the empty
    size map a node's size depends on nothing outside it, so the sizes
    folded under it (the root, every bag value, every body whose bag is
    empty) are memoized by node identity: the cost is linear in the
    shared structure, not in the unfolded tree. The rules are
    module-level. Under the empty map, bag values and empty-bag bodies
    fold under the rule that answered (a Parts leaf of None); under a
    non-empty map, under a fresh empty-map rule. No rule refers to
    itself, so no call builds a cycle.
    """
    memo: dict[int, tuple] = {}
    return fold(t, partial(_unfolded_leaf, memo, {}), _unfolded_node, memo)


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
    # a fresh memo keeps a result the machine shares shared
    "int": Machine(
        wrap, init_itam, step_itam, measure_itam, readback_itam, lambda t: unwrap(t, {})
    ),
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
