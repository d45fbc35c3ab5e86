"""Tupled abstract machine for the source calculus.

States carry a focus and a control stack. The focus is either an
unevaluated term paired with an environment, or a machine value
(a closure over an abstraction, or a tuple of machine values).
Environments are `machine_common`'s flat named ones, (Var, value)
bindings innermost first, and usub and readback both resolve through
its lookup: a linear scan, shadowing positional, raising
MachineInvariantError on an unbound variable.

The stack entry kinds mirror the four evaluation contexts: a function
waiting for its evaluated argument, an already-evaluated argument
waiting for its function, a pending projection, and a partially
evaluated tuple. Tuples evaluate right to left, so a partial tuple
keeps the not-yet-visited prefix (with its environment) and the
already-evaluated suffix in original order.

Environment copies are counted at the three transitions that
duplicate an environment into a new stack entry (function push, tuple
open, tuple continue); beta extends an environment instead and is
charged only for the fresh bindings.

States and stack entries are NamedTuples, as in `machine_common`; the
machine values SClos and STup stay dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .calculi import DEFAULT_FUEL, ClashKind
from .machine_common import (
    UNIT_COST,
    ArgVal,
    Cost,
    MachineFinal,
    MachineInvariantError,
    ProjFrame,
    RunRecord,
    Transition,
    lookup,
    run_loop,
)
from .terms import Abs, App, Proj, SourceTerm, Tuple, Var, free_vars, reject_closures, shared_size_source


@dataclass(frozen=True, slots=True)
class SClos:
    abs: Abs
    env: tuple


@dataclass(frozen=True, slots=True)
class STup:
    items: tuple


SValue = SClos | STup


class Unev(NamedTuple):
    term: SourceTerm
    env: tuple


class PendingFn(NamedTuple):
    term: SourceTerm
    env: tuple


class PartialTuple(NamedTuple):
    pending: tuple  # source terms still to evaluate, original order
    env: tuple
    done: tuple  # evaluated items, original order


class SState(NamedTuple):
    focus: object  # Unev or SValue
    stack: tuple


def init_stam(t: SourceTerm) -> SState:
    memo: dict = {}
    free = free_vars(t, memo)
    reject_closures(memo, t)
    if free:
        raise ValueError(f"term is not closed, free: {', '.join(v.name for v in free)}")
    return SState(Unev(t, ()), ())


def step_stam(s: SState) -> Transition | MachineFinal:
    f, stack = s
    if isinstance(f, Unev):
        t, env = f
        match t:
            case App(fn=fn, arg=arg):
                entry = PendingFn(fn, env)
                return Transition(
                    "usea1",
                    SState(Unev(arg, env), stack + (entry,)),
                    Cost(1 + len(env), env_copy=len(env)),
                )
            case Proj(index=i, arg=arg):
                return Transition(
                    "usea2", SState(Unev(arg, env), stack + (ProjFrame(i),)), UNIT_COST
                )
            case Tuple(items=items) if items:
                entry = PartialTuple(items[:-1], env, ())
                return Transition(
                    "usea3",
                    SState(Unev(items[-1], env), stack + (entry,)),
                    Cost(1 + len(env) + len(items), env_copy=len(env)),
                )
            case Tuple(items=()):
                # The environment is dropped: an empty tuple is already a value.
                return Transition("usea4", SState(STup(()), stack), UNIT_COST)
            case Abs():
                return Transition("usea5", SState(SClos(t, env), stack), UNIT_COST)
            case Var():
                val, pos = lookup(env, t)
                return Transition(
                    "usub", SState(val, stack), Cost(1 + pos, lookup=pos, subv_lookup=pos)
                )
        raise MachineInvariantError(f"not a source term in focus: {t!r}")

    if not stack:
        return MachineFinal("successful")
    head = stack[-1]
    rest = stack[:-1]
    match head:
        case PendingFn(term=t, env=env):
            return Transition(
                "esea1", SState(Unev(t, env), rest + (ArgVal(f),)), UNIT_COST
            )
        case PartialTuple(pending=pending, env=env, done=done):
            if pending:
                entry = PartialTuple(pending[:-1], env, (f,) + done)
                return Transition(
                    "esea6",
                    SState(Unev(pending[-1], env), rest + (entry,)),
                    Cost(1 + len(env), env_copy=len(env)),
                )
            items = (f,) + done
            return Transition("esea3", SState(STup(items), rest), Cost(1 + len(items)))
        case ProjFrame(index=i):
            if isinstance(f, STup) and 1 <= i <= len(f.items):
                return Transition("epi", SState(f.items[i - 1], rest), UNIT_COST)
            return MachineFinal("clash", ClashKind.PROJECTION)
        case ArgVal(value=v):
            if isinstance(f, STup):
                return MachineFinal("clash", ClashKind.TUPLE)
            if isinstance(f, SClos):
                params = f.abs.params
                if isinstance(v, STup) and len(v.items) == len(params):
                    new_env = tuple(zip(params, v.items)) + f.env
                    return Transition(
                        "ebeta",
                        SState(Unev(f.abs.body, new_env), rest),
                        Cost(1 + len(params)),
                    )
                return MachineFinal("clash", ClashKind.ABS_OR_CLOSURE)
    raise MachineInvariantError(f"unrecognized stack entry: {head!r}")


def readback_value(v: SValue, memo: dict | None = None) -> SourceTerm:
    """The source term of machine value v.

    memo maps id(v) to (v, its read-back term) for every value read
    back so far; holding v keeps its id from being reused, so one memo
    can serve several readbacks.
    """
    if memo is None:
        memo = {}
    key = id(v)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    match v:
        case SClos(abs=ab, env=env):
            out = _env_subst(ab, env, memo)
        case STup(items=items):
            out = Tuple(tuple(readback_value(i, memo) for i in items))
        case _:
            raise MachineInvariantError(f"not a machine value: {v!r}")
    memo[key] = (v, out)
    return out


def _env_subst(t: SourceTerm, env: tuple, memo: dict) -> SourceTerm:
    """Resolve env bindings inside t, innermost binding first.

    Values in environments are closed once read back, so a single
    shadow-aware pass agrees with applying the bindings one at a time.
    An empty env leaves t itself: by the closure invariant t is closed.
    """

    def walk(t: SourceTerm, shadow: frozenset) -> SourceTerm:
        match t:
            case Var(name=name):
                if name in shadow:
                    return t
                return readback_value(lookup(env, t)[0], memo)
            case Abs(params=params, body=body):
                inner = shadow | {p.name for p in params}
                return Abs(params, walk(body, inner))
            case App(fn=fn, arg=arg):
                return App(walk(fn, shadow), walk(arg, shadow))
            case Proj(index=i, arg=arg):
                return Proj(i, walk(arg, shadow))
            case Tuple(items=items):
                return Tuple(tuple(walk(i, shadow) for i in items))
        raise MachineInvariantError(f"not a source term: {t!r}")

    if not env:
        return t
    return walk(t, frozenset())


def readback_stam(s: SState, memo: dict | None = None) -> SourceTerm:
    """The term that state s stands for.

    memo is the readback_value memo; pass one dict to every readback
    of one run to reuse the values read back before. Without one each
    readback starts afresh.
    """
    if memo is None:
        memo = {}
    f = s.focus
    if isinstance(f, Unev):
        term = _env_subst(f.term, f.env, memo)
    else:
        term = readback_value(f, memo)
    for entry in reversed(s.stack):
        match entry:
            case PendingFn(term=t, env=env):
                term = App(_env_subst(t, env, memo), term)
            case ArgVal(value=v):
                term = App(term, readback_value(v, memo))
            case ProjFrame(index=i):
                term = Proj(i, term)
            case PartialTuple(pending=pending, env=env, done=done):
                items = (
                    tuple(_env_subst(p, env, memo) for p in pending)
                    + (term,)
                    + tuple(readback_value(d, memo) for d in done)
                )
                term = Tuple(items)
            case _:
                raise MachineInvariantError(f"unrecognized stack entry: {entry!r}")
    return term


def measure_stam(s: SState) -> int:
    """Overhead measure: total size of unevaluated source material."""
    total = 0
    f = s.focus
    if isinstance(f, Unev):
        total += shared_size_source(f.term)
    for entry in s.stack:
        match entry:
            case PendingFn(term=t):
                total += shared_size_source(t)
            case PartialTuple(pending=pending):
                total += len(pending)
                total += sum(shared_size_source(p) for p in pending)
            case _:
                pass
    return total


def run_stam(t: SourceTerm, fuel: int = DEFAULT_FUEL, record_measure: bool = False) -> RunRecord:
    return run_loop(step_stam, measure_stam, init_stam(t), fuel, record_measure)
