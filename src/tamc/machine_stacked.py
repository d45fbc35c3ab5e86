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
`machine_common`: immutable, built at tuple speed, and compared as
plain tuples, so Unev(t) == PendingFn(t); nothing in the library
compares them.
"""

from __future__ import annotations

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
    run_loop,
)
from .terms import App, Closure, Proj, PVar, PVarBag, TClosure, Tuple, ValBag, Var, VarBag, prime_int, size_int


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

    def substitute(t, env):
        if env == empty:
            return t
        return subst_bags(t, lambda v: resolve(env, v)[0])

    def step(s: State) -> Transition | MachineFinal:
        f, env, cstack, astack = s
        if isinstance(f, Unev):
            t = f.term
            match t:
                case App(fn=fn, arg=arg):
                    return Transition(
                        "usea1",
                        State(Unev(arg), env, cstack + (PendingFn(fn),), astack),
                        UNIT_COST,
                    )
                case Proj(index=i, arg=arg):
                    return Transition(
                        "usea2",
                        State(Unev(arg), env, cstack + (ProjFrame(i),), astack),
                        UNIT_COST,
                    )
                case Tuple(items=items) if items:
                    entry = PartialTuple(items[:-1], ())
                    return Transition(
                        "usea3",
                        State(Unev(items[-1]), env, cstack + (entry,), astack),
                        Cost(1 + len(items)),
                    )
                case Tuple(items=()):
                    return Transition(
                        "usea4", State(Tuple(()), env, cstack, astack), UNIT_COST
                    )
                case Var() | PVar():
                    val, pos = resolve(env, t)
                    return Transition(
                        "usubv",
                        State(val, env, cstack, astack),
                        Cost(1 + pos, lookup=pos, subv_lookup=pos),
                    )
                # Both closure classes list their two binder fields, the
                # body and the bag, in that order.
                case Closure(w, p, b, VarBag(vs)) | TClosure(w, p, b, PVarBag(vs)):
                    resolved = []
                    scanned = 0
                    for v in vs:
                        val, pos = resolve(env, v)
                        resolved.append(val)
                        scanned += pos
                    value = type(t)(w, p, b, ValBag(tuple(resolved)))
                    return Transition(
                        "usubw",
                        State(value, env, cstack, astack),
                        Cost(1 + len(vs), lookup=scanned),
                    )
                case Closure(bag=ValBag(vals=())) | TClosure(bag=ValBag(vals=())):
                    # canonical empty bag, nothing to resolve
                    return Transition(
                        "usubw", State(t, env, cstack, astack), UNIT_COST
                    )
                case Closure() | TClosure():
                    raise MachineInvariantError("unevaluated closure with a non-empty value bag")
            raise MachineInvariantError(f"not a stacked-machine term in focus: {t!r}")

        if not cstack:
            if not astack:
                return MachineFinal("successful")
            caller_cstack, caller_env = astack[-1]
            return Transition(
                "esea7",
                State(f, caller_env, caller_cstack, astack[:-1]),
                UNIT_COST,
            )
        head = cstack[-1]
        rest = cstack[:-1]
        match head:
            case PendingFn(term=t):
                return Transition(
                    "esea1",
                    State(Unev(t), env, rest + (ArgVal(f),), astack),
                    UNIT_COST,
                )
            case PartialTuple(pending=pending, done=done):
                if pending:
                    entry = PartialTuple(pending[:-1], (f,) + done)
                    return Transition(
                        "esea6",
                        State(Unev(pending[-1]), env, rest + (entry,), astack),
                        UNIT_COST,
                    )
                items = (f,) + done
                return Transition(
                    "esea3", State(Tuple(items), env, rest, astack), Cost(1 + len(items))
                )
            case ProjFrame(index=i):
                if isinstance(f, Tuple) and 1 <= i <= len(f.items):
                    return Transition(
                        "epi", State(f.items[i - 1], env, rest, astack), UNIT_COST
                    )
                return MachineFinal("clash", ClashKind.PROJECTION)
            case ArgVal(value=v):
                if isinstance(f, Tuple):
                    return MachineFinal("clash", ClashKind.TUPLE)
                if isinstance(f, (Closure, TClosure)):
                    if not isinstance(f.bag, ValBag):
                        raise MachineInvariantError("applied closure still has a variable bag")
                    installed = install(f, v.items) if isinstance(v, Tuple) else None
                    if installed is not None:
                        callee_env, elem = installed
                        return Transition(
                            "ebeta",
                            State(Unev(f.body), callee_env, (), astack + ((rest, env),)),
                            Cost(elem),
                        )
                    return MachineFinal("clash", ClashKind.ABS_OR_CLOSURE)
        raise MachineInvariantError(f"unrecognized stack entry: {head!r}")

    def _plug(term, cstack: tuple, env, sub):
        for entry in reversed(cstack):
            match entry:
                case PendingFn(term=t):
                    term = App(sub(t, env), term)
                case ArgVal(value=v):
                    term = App(term, v)
                case ProjFrame(index=i):
                    term = Proj(i, term)
                case PartialTuple(pending=pending, done=done):
                    items = tuple(sub(p, env) for p in pending) + (term,) + done
                    term = Tuple(items)
                case _:
                    raise MachineInvariantError(f"unrecognized stack entry: {entry!r}")
        return term

    def readback(s: State, memo: dict | None = None):
        """The term that state s stands for.

        memo, when given, is a dict that one caller passes to every
        readback of one run, and lets a readback reuse what earlier
        ones built: (id(term), id(env)) maps to (term, env,
        substitute(term, env)), and id(astack) maps to (astack, its
        frames with a non-empty control stack, innermost first).
        Holding the keyed objects keeps their ids from being reused
        while the memo lives; terms, environments and stacks are
        immutable and substitute is pure, so a hit is what recomputing
        would give. Without a memo nothing is reused.
        """
        if memo is None:
            sub = substitute
            frames = reversed(s.astack)
        else:

            def sub(t, env):
                key = (id(t), id(env))
                hit = memo.get(key)
                if hit is None:
                    hit = memo[key] = (t, env, substitute(t, env))
                return hit[2]

            hit = memo.get(id(s.astack))
            if hit is None:
                live = [frame for frame in reversed(s.astack) if frame[0]]
                hit = memo[id(s.astack)] = (s.astack, live)
            frames = hit[1]
        f = s.focus
        if isinstance(f, Unev):
            term = sub(f.term, s.env)
        else:
            term = f  # values are closed, the environment is irrelevant
        term = _plug(term, s.cstack, s.env, sub)
        for caller_cstack, caller_env in frames:
            term = _plug(term, caller_cstack, caller_env, sub)
        return term

    def _overhead(entries: tuple) -> int:
        total = 0
        for entry in entries:
            match entry:
                case PendingFn(term=t):
                    total += size_int(t)
                case PartialTuple(pending=pending):
                    total += len(pending)
                    total += sum(size_int(p) for p in pending)
                case _:
                    pass
        return total

    def measure(s: State) -> int:
        total = 0
        if isinstance(s.focus, Unev):
            total += size_int(s.focus.term)
        total += _overhead(s.cstack)
        for caller_cstack, _ in s.astack:
            total += _overhead(caller_cstack)
        return total

    def run(t, fuel: int = DEFAULT_FUEL, record_measure: bool = False) -> RunRecord:
        return run_loop(step, measure, init(t), fuel, record_measure)

    return init, step, measure, readback, run
