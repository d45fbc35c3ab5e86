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

States and stack entries are NamedTuples, as in `machine_common`;
step_stam dispatches on the exact type of the focus and the stack head
and builds them with `make_record`, which takes every field. The
machine values SClos and STup stay dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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
    make_record,
    run_loop,
)
from .terms import (
    Abs, App, Parts, Proj, SourceTerm, Tuple, Var, context_memo, fold, free_vars, reject_closures,
    shared_size_source,
)


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
    cost = UNIT_COST
    if type(f) is Unev:
        t, env = f
        tt = type(t)
        if tt is Var:
            name = "usub"
            f, pos = lookup(env, t)
            cost = make_record(Cost, (1 + pos, 0, pos, pos))
        elif tt is Tuple and t.items:
            name, items = "usea3", t.items
            f = make_record(Unev, (items[-1], env))
            stack += (make_record(PartialTuple, (items[:-1], env, ())),)
            cost = make_record(Cost, (1 + len(env) + len(items), len(env), 0, 0))
        elif tt is App:
            name, f = "usea1", make_record(Unev, (t.arg, env))
            stack += (make_record(PendingFn, (t.fn, env)),)
            cost = make_record(Cost, (1 + len(env), len(env), 0, 0))
        elif tt is Proj:
            name, f = "usea2", make_record(Unev, (t.arg, env))
            stack += (make_record(ProjFrame, (t.index,)),)
        elif tt is Abs:
            name, f = "usea5", SClos(t, env)
        elif tt is Tuple:  # the environment is dropped: an empty tuple is already a value
            name, f = "usea4", STup(())
        else:
            raise MachineInvariantError(f"not a source term in focus: {t!r}")
    elif not stack:
        return MachineFinal("successful")
    else:
        head, stack = stack[-1], stack[:-1]
        th = type(head)
        if th is PartialTuple:
            pending, env, done = head
            if pending:
                stack += (make_record(PartialTuple, (pending[:-1], env, (f,) + done)),)
                name, f = "esea6", make_record(Unev, (pending[-1], env))
                cost = make_record(Cost, (1 + len(env), len(env), 0, 0))
            else:
                name, f = "esea3", STup((f,) + done)
                cost = make_record(Cost, (1 + len(f.items), 0, 0, 0))
        elif th is PendingFn:
            stack += (make_record(ArgVal, (f,)),)
            name, f = "esea1", make_record(Unev, head)  # a pending function has Unev's fields
        elif th is ArgVal:
            if type(f) is STup:
                return MachineFinal("clash", ClashKind.TUPLE)
            if type(f) is not SClos:
                raise MachineInvariantError(f"not a machine value in focus: {f!r}")
            params, v = f.abs.params, head.value
            if type(v) is not STup or len(v.items) != len(params):
                return MachineFinal("clash", ClashKind.ABS_OR_CLOSURE)
            name = "ebeta"
            f = make_record(Unev, (f.abs.body, tuple(zip(params, v.items)) + f.env))
            cost = make_record(Cost, (1 + len(params), 0, 0, 0))
        elif th is ProjFrame:
            i = head.index
            if type(f) is not STup or not 1 <= i <= len(f.items):
                return MachineFinal("clash", ClashKind.PROJECTION)
            name, f = "epi", f.items[i - 1]
        else:
            raise MachineInvariantError(f"unrecognized stack entry: {head!r}")
    return make_record(Transition, (name, make_record(SState, (f, stack)), cost))


_TOP = frozenset()  # no name shadowed: the top of a term under an environment


def _same(term):
    return term


def _value(memo: dict, u):
    """The leaf rule of machine values, with _read's memo."""
    if type(u) is STup:
        return Parts(u.items, None, memo, lambda *items: Tuple(items))
    if type(u) is SClos:
        if not u.env:
            return u.abs
        scope = context_memo(memo, id(u.env), u.env)
        return Parts((u.abs,), partial(_under, memo, u.env, _TOP), scope, _same)
    raise MachineInvariantError(f"not a machine value: {u!r}")


def _under(memo: dict, env: tuple, shadow: frozenset, u):
    """The leaf rule of substitution under env, the names in shadow bound above u."""
    if type(u) is Var:
        if u.name in shadow:
            return u
        v = lookup(env, u)[0]
        hit = memo.get(id(v))  # a value read back before is not requested again
        return Parts((v,), partial(_value, memo), memo, _same) if hit is None else hit[1]
    if type(u) is Abs:
        inner = partial(_under, memo, env, shadow | {p.name for p in u.params})
        return Parts((u.body,), inner, None, lambda body: Abs(u.params, body))
    raise MachineInvariantError(f"not a source term: {u!r}")


def _read(memo: dict, v: SValue) -> SourceTerm:
    """The source term of machine value v.

    memo maps id(v) to (v, its term) for every value read back, and
    id(env) to (env, the fold memo of the substitutions under env),
    which values closed under env share; holding the keyed object keeps
    its id from being reused.
    """
    hit = memo.get(id(v))
    return hit[1] if hit is not None else fold(v, partial(_value, memo), None, memo)


def _subst(memo: dict, t: SourceTerm, env: tuple) -> SourceTerm:
    """t with env's bindings resolved, innermost first, in one shadow-aware pass.

    Values in environments are closed once read back, and an empty env
    leaves t, which the closure invariant makes closed. A term
    substituted under env before is a hit, and a variable resolves
    directly.
    """
    if not env:
        return t
    if type(t) is Var:
        return _read(memo, lookup(env, t)[0])
    scope = context_memo(memo, id(env), env)
    if id(t) in scope:
        return scope[id(t)][1]
    return fold(t, partial(_under, memo, env, _TOP), None, scope)


def readback_value(v: SValue) -> SourceTerm:
    """The source term of machine value v."""
    return _read({}, v)


def readback_stam(s: SState, memo: dict | None = None) -> SourceTerm:
    """The term that state s stands for.

    memo is the readback memo; pass one dict to every readback of one
    run to reuse what earlier readbacks built, or none for a fresh one
    that shares work within this readback only. id(v) maps to (v, its
    term) for every machine value read back, and id(env) to (env, the
    fold memo of the substitutions under env), so the body of an
    activation is substituted once, at the first readback under its
    environment, and every later focus, pending term or closure under
    that environment is a hit; no object is both a value and an
    environment. Each entry holds its keyed object, so no id is reused
    while the memo lives. Terms, environments, values and stack tuples
    are immutable, reading back is pure, and a fold memo holds only
    nodes that no binder below their environment encloses, which
    substitute the same wherever they sit; so a hit is what recomputing
    would give, and a transition that builds a different stack or
    environment builds new objects, which miss.
    """
    if memo is None:
        memo = {}
    f = s.focus
    if type(f) is Unev:
        term = _subst(memo, f.term, f.env)
    else:
        term = _read(memo, f)
    for entry in reversed(s.stack):
        te = type(entry)
        if te is PendingFn:
            term = App(_subst(memo, entry.term, entry.env), term)
        elif te is ArgVal:
            term = App(term, _read(memo, entry.value))
        elif te is ProjFrame:
            term = Proj(entry.index, term)
        elif te is PartialTuple:
            env = entry.env
            items = [_subst(memo, p, env) for p in entry.pending]
            items.append(term)
            items += [_read(memo, v) for v in entry.done]
            term = Tuple(tuple(items))
        else:
            raise MachineInvariantError(f"unrecognized stack entry: {entry!r}")
    return term


def measure_stam(s: SState) -> int:
    """Overhead measure: total size of unevaluated source material."""
    total = shared_size_source(s.focus.term) if type(s.focus) is Unev else 0
    for entry in s.stack:
        te = type(entry)
        if te is PendingFn:
            total += shared_size_source(entry.term)
        elif te is PartialTuple:
            total += len(entry.pending) + sum(map(shared_size_source, entry.pending))
    return total


def run_stam(t: SourceTerm, fuel: int = DEFAULT_FUEL, record_measure: bool = False) -> RunRecord:
    return run_loop(step_stam, measure_stam, init_stam(t), fuel, record_measure)
