"""The stacked abstract machine of the intermediate and target calculi.

Unlike the source machine, this machine keeps a single environment for
the code it is currently executing. Control stack entries therefore
carry no environment of their own, and the machine never copies an
environment: beta saves the caller's control stack and environment as
one frame on the application stack, installs the callee's bindings as
a fresh environment, and esea7 restores the caller when the callee's
control stack drains.

Closures carry their free-variable bindings in their bag, so the
calculus values double as machine values. An unevaluated closure
becomes a value in one usubw step that resolves its variable bag
against the environment; evaluated closures always hold value bags,
which is why open-closure applications cannot happen inside the
machine once the initial term is closed.

The two machines differ only in how the environment is represented
and what that costs: `machine_int` holds the named representation and
`machine_target` the positional one. Each is plain data for the
factory: its lookup, its install, its calculus's checks on an initial
term and its empty environment. The factory builds the rest, init,
readback and the run loop included.

States and stack entries are NamedTuples, like the records in
`machine_common`: immutable, and compared as plain tuples, so
Unev(t) == PendingFn(t); nothing in the library compares them. The
step dispatches on the exact type of the focus and the stack head and
builds them with `make_record`, which takes every field.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import NamedTuple

from .calculi import DEFAULT_FUEL, ClashKind, subst_bags
from .machine_common import (
    UNIT_COST,
    ArgVal,
    Cost,
    MachineFinal,
    MachineInvariantError,
    ProjFrame,
    RunRecord,
    Transition,
    make_record,
    run_loop,
)
from .terms import (
    App, Closure, Proj, PVar, PVarBag, TClosure, Tuple, ValBag, Var, VarBag, context_memo,
    prime_int, size_int,
)


class Unev(NamedTuple):
    term: object


class PendingFn(NamedTuple):
    term: object


class PartialTuple(NamedTuple):
    pending: tuple  # still to evaluate, original order
    done: tuple  # evaluated items, original order


class State(NamedTuple):
    focus: object  # Unev or a value
    env: object  # as the environment representation defines it
    cstack: tuple
    astack: tuple  # of (cstack, env) caller frames, most recent last


_LIVE = object()  # the readback memo's key of the current activation stack


def stacked_machine(*, resolve, install, well_formed, closed, empty):
    """The machine over one environment representation: (init, step, measure, readback, run).

    resolve(env, var) gives (value, scan position), the position being
    the lookup cost; install(closure, args) gives (env, elem cost) for
    ebeta, or None when args miss the closure's arity; well_formed and
    closed are the calculus's checks on an initial term; empty is the
    environment that binds nothing, which init starts under. Readback
    puts the environment into a term through the same resolve, so a
    variable the environment lacks raises MachineInvariantError there
    as well.

    Under an environment equal to empty readback keeps the term itself,
    as the source machine's does. By the closure invariant that is exact:
    such an environment is the root one, whose terms init checked closed
    and prime, or that of a closure with no wrapped variables and no
    parameters, whose body has no variable outside nested closure bodies
    and only empty bags. There is nothing to resolve or rewrite.
    """

    def init(t) -> State:
        if not well_formed(t):
            raise ValueError("initial term must be well formed")
        if not closed(t):
            raise ValueError("initial term must be closed")
        if not prime_int(t):  # reads target terms too
            raise ValueError("initial term must have variable bags only")
        return State(Unev(t), empty, (), ())

    def substitute(memo, t, env):
        """t with env's bindings resolved; memo as in readback."""
        if env == empty:
            return t
        if type(t) is Var or type(t) is PVar:
            return resolve(env, t)[0]
        scope = context_memo(memo, id(env), env)  # env's fold memo
        if id(t) in scope:
            return scope[id(t)][1]
        return subst_bags(t, lambda v: resolve(env, v)[0], scope)

    def step(s: State) -> Transition | MachineFinal:
        f, env, cstack, astack = s
        cost = UNIT_COST
        if type(f) is Unev:
            t = f.term
            tt = type(t)
            if tt is Var or tt is PVar:
                name = "usubv"
                f, pos = resolve(env, t)
                cost = make_record(Cost, (1 + pos, 0, pos, pos))
            elif tt is Tuple and t.items:
                name, items = "usea3", t.items
                f = make_record(Unev, (items[-1],))
                cstack += (make_record(PartialTuple, (items[:-1], ())),)
                cost = make_record(Cost, (1 + len(items), 0, 0, 0))
            elif tt is App:
                name, f = "usea1", make_record(Unev, (t.arg,))
                cstack += (make_record(PendingFn, (t.fn,)),)
            elif tt is Proj:
                name, f = "usea2", make_record(Unev, (t.arg,))
                cstack += (make_record(ProjFrame, (t.index,)),)
            elif tt is Closure or tt is TClosure:
                name = "usubw"
                # Both closure classes list their two binder fields, the
                # body and the bag, in that order.
                match t:
                    case Closure(w, p, b, VarBag(vs)) | TClosure(w, p, b, PVarBag(vs)):
                        resolved = []
                        scanned = 0
                        for v in vs:
                            val, pos = resolve(env, v)
                            resolved.append(val)
                            scanned += pos
                        f = tt(w, p, b, ValBag(tuple(resolved)))
                        cost = make_record(Cost, (1 + len(vs), 0, scanned, 0))
                    case Closure(bag=ValBag(vals=())) | TClosure(bag=ValBag(vals=())):
                        f = t  # canonical empty bag, nothing to resolve
                    case Closure(bag=ValBag()) | TClosure(bag=ValBag()):
                        raise MachineInvariantError("unevaluated closure with a non-empty value bag")
                    case _:  # a bag of the other calculus
                        raise MachineInvariantError(f"not a stacked-machine term in focus: {t!r}")
            elif tt is Tuple:
                name, f = "usea4", t
            else:
                raise MachineInvariantError(f"not a stacked-machine term in focus: {t!r}")
        elif not cstack:
            if not astack:
                return MachineFinal("successful")
            name = "esea7"
            (cstack, env), astack = astack[-1], astack[:-1]
        else:
            head, cstack = cstack[-1], cstack[:-1]
            th = type(head)
            if th is PartialTuple:
                pending, done = head
                if pending:
                    cstack += (make_record(PartialTuple, (pending[:-1], (f,) + done)),)
                    name, f = "esea6", make_record(Unev, (pending[-1],))
                else:
                    name, f = "esea3", Tuple((f,) + done)
                    cost = make_record(Cost, (1 + len(f.items), 0, 0, 0))
            elif th is PendingFn:
                cstack += (make_record(ArgVal, (f,)),)
                name, f = "esea1", make_record(Unev, head)  # a pending function has Unev's fields
            elif th is ArgVal:
                tf = type(f)
                if tf is Tuple:
                    return MachineFinal("clash", ClashKind.TUPLE)
                if tf is not Closure and tf is not TClosure:
                    raise MachineInvariantError(f"not a machine value in focus: {f!r}")
                if type(f.bag) is not ValBag:
                    raise MachineInvariantError("applied closure still has a variable bag")
                v = head.value
                installed = install(f, v.items) if type(v) is Tuple else None
                if installed is None:
                    return MachineFinal("clash", ClashKind.ABS_OR_CLOSURE)
                name, f = "ebeta", make_record(Unev, (f.body,))
                astack += ((cstack, env),)  # the caller's frame
                cstack, (env, elem) = (), installed
                cost = make_record(Cost, (elem, 0, 0, 0))
            elif th is ProjFrame:
                i = head.index
                if type(f) is not Tuple or not 1 <= i <= len(f.items):
                    return MachineFinal("clash", ClashKind.PROJECTION)
                name, f = "epi", f.items[i - 1]
            else:
                raise MachineInvariantError(f"unrecognized stack entry: {head!r}")
        return make_record(Transition, (name, make_record(State, (f, env, cstack, astack)), cost))

    def readback(s: State, memo: dict | None = None):
        """The term that state s stands for.

        memo is a dict that one caller passes to every readback of one
        run, and lets a readback reuse what earlier ones built. id(env)
        maps to (env, the fold memo of the substitutions under env), so
        the body of an activation is substituted once, at the first
        readback under its environment, and every later focus or pending
        term under that environment is a hit; a variable resolves
        directly. Holding the keyed objects
        keeps their ids from being reused while the memo lives; terms
        and environments are immutable and substitution is pure and
        does not depend on where a term sits, so a hit is what
        recomputing would give. _LIVE maps to the last activation stack
        read back and its frames with a non-empty control stack,
        innermost first. ebeta and esea7 each build a new stack, so a
        run never returns to one it left but the empty one, which has no
        frames: keeping one stack loses no hit and keeps the memo linear
        in the depth. Without a memo a readback makes a fresh one, and
        reuses nothing from earlier readbacks.
        """
        if memo is None:
            memo = {}
        sub = partial(substitute, memo)
        astack, frames = memo.get(_LIVE, ((), ()))
        if s.astack is not astack:
            frames = list(filter(itemgetter(0), reversed(s.astack)))
            memo[_LIVE] = (s.astack, frames)
        f = s.focus
        # values are closed, the environment is irrelevant
        term = sub(f.term, s.env) if type(f) is Unev else f
        for cstack, env in ((s.cstack, s.env), *frames):  # innermost segment first
            for entry in reversed(cstack):
                te = type(entry)
                if te is PendingFn:
                    term = App(sub(entry.term, env), term)
                elif te is ArgVal:
                    term = App(term, entry.value)
                elif te is ProjFrame:
                    term = Proj(entry.index, term)
                elif te is PartialTuple:
                    term = Tuple(tuple([sub(p, env) for p in entry.pending]) + (term,) + entry.done)
                else:
                    raise MachineInvariantError(f"unrecognized stack entry: {entry!r}")
        return term

    def measure(s: State) -> int:
        total = size_int(s.focus.term) if type(s.focus) is Unev else 0
        for cstack, _ in ((s.cstack, s.env), *s.astack):
            for entry in cstack:
                te = type(entry)
                if te is PendingFn:
                    total += size_int(entry.term)
                elif te is PartialTuple:
                    total += len(entry.pending) + sum(map(size_int, entry.pending))
        return total

    def run(t, fuel: int = DEFAULT_FUEL, record_measure: bool = False) -> RunRecord:
        return run_loop(step, measure, init(t), fuel, record_measure)

    return init, step, measure, readback, run
