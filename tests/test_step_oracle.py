"""The machines' step functions against the class-pattern steps they replaced.

step_stam and the stacked machine's step dispatch on exact types and
build their records with make_record, which checks nothing. The
references below are the earlier bodies, written with `match` class
patterns and the records' own constructors, and are kept here
unchanged. From the same state both must give the same transition
name, the same Cost, the same successor state and the same final
stop. Records compare as plain tuples (Unev(t) == PendingFn(t)), so the
comparison also checks the type at every level, and every record
reached must hold exactly its class's fields.
"""

from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from tamc import machine_int, machine_target
from tamc.analysis import family_fun_explosion, family_tuple_explosion
from tamc.calculi import ClashKind
from tamc.generate import GenConfig, gen_corpus
from tamc.machine_common import (
    UNIT_COST,
    ArgVal,
    Cost,
    MachineFinal,
    MachineInvariantError,
    ProjFrame,
    Transition,
    lookup,
)
from tamc.machine_int import init_itam, step_itam
from tamc.machine_source import SClos, SState, STup, init_stam, step_stam
from tamc.machine_source import PartialTuple as SPartialTuple
from tamc.machine_source import PendingFn as SPendingFn
from tamc.machine_source import Unev as SUnev
from tamc.machine_stacked import PartialTuple, PendingFn, State, Unev
from tamc.machine_target import init_ttam, step_ttam
from tamc.syntax import parse
from tamc.terms import Abs, App, Closure, Proj, PVar, PVarBag, TClosure, Tuple, ValBag, Var, VarBag
from tamc.transforms import closure_convert, wrap

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def reference_step_stam(s: SState) -> Transition | MachineFinal:
    f, stack = s
    if isinstance(f, SUnev):
        t, env = f
        match t:
            case App(fn=fn, arg=arg):
                entry = SPendingFn(fn, env)
                return Transition(
                    "usea1",
                    SState(SUnev(arg, env), stack + (entry,)),
                    Cost(1 + len(env), env_copy=len(env)),
                )
            case Proj(index=i, arg=arg):
                return Transition(
                    "usea2", SState(SUnev(arg, env), stack + (ProjFrame(i),)), UNIT_COST
                )
            case Tuple(items=items) if items:
                entry = SPartialTuple(items[:-1], env, ())
                return Transition(
                    "usea3",
                    SState(SUnev(items[-1], env), stack + (entry,)),
                    Cost(1 + len(env) + len(items), env_copy=len(env)),
                )
            case Tuple(items=()):
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
        case SPendingFn(term=t, env=env):
            return Transition(
                "esea1", SState(SUnev(t, env), rest + (ArgVal(f),)), UNIT_COST
            )
        case SPartialTuple(pending=pending, env=env, done=done):
            if pending:
                entry = SPartialTuple(pending[:-1], env, (f,) + done)
                return Transition(
                    "esea6",
                    SState(SUnev(pending[-1], env), rest + (entry,)),
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
                        SState(SUnev(f.abs.body, new_env), rest),
                        Cost(1 + len(params)),
                    )
                return MachineFinal("clash", ClashKind.ABS_OR_CLOSURE)
    raise MachineInvariantError(f"unrecognized stack entry: {head!r}")


def reference_stacked_step(resolve, install):
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

    return step


# name: (translation, init, step, reference step)
MACHINES = {
    "source": (lambda t: t, init_stam, step_stam, reference_step_stam),
    "int": (
        wrap,
        init_itam,
        step_itam,
        reference_stacked_step(lookup, machine_int._install),
    ),
    "target": (
        closure_convert,
        init_ttam,
        step_ttam,
        reference_stacked_step(machine_target._resolve, machine_target._install),
    ),
}


def _parts(x):
    """The parts a record, plain tuple or dataclass instance holds; () for anything else."""
    if isinstance(x, tuple):
        return x
    if is_dataclass(x):
        return tuple(getattr(x, f.name) for f in fields(x))
    return ()


def _show(x) -> str:
    """x's repr, also for a record whose length its class's repr cannot format."""
    return type(x).__name__ + repr(tuple(x)) if isinstance(x, tuple) else repr(x)


def assert_same(got, want) -> None:
    """got equals want, with the same type at every level of both."""
    todo = [(got, want)]
    seen = set()  # id pairs already compared; both sides stay alive meanwhile
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        assert type(a) is type(b), f"{_show(a)} where a {type(b).__name__} was due"
        if (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        pa, pb = _parts(a), _parts(b)
        if not pa and not pb:
            assert a == b, f"{_show(a)} where {_show(b)} was due"
            continue
        assert len(pa) == len(pb), f"{_show(a)} where {_show(b)} was due"
        todo.extend(zip(pa, pb))


def assert_full_records(x, checked: dict) -> None:
    """Every NamedTuple reachable from x holds exactly its class's fields.

    checked maps id(obj) to obj for everything walked before in the same
    run; the objects are immutable, so they need no second walk.
    """
    todo = [x]
    while todo:
        y = todo.pop()
        if id(y) in checked:
            continue
        checked[id(y)] = y
        fields_of = getattr(type(y), "_fields", None)
        if isinstance(y, tuple) and fields_of is not None:
            assert len(y) == len(fields_of), f"{_show(y)} has {len(y)} of {len(fields_of)} fields"
        todo.extend(_parts(y))


def side_by_side(step, reference, state, fuel: int):
    """Run step beside reference from the same states.

    Returns the final stop, or None when fuel runs out, and the names
    of the transitions taken.
    """
    checked: dict = {}
    assert_full_records(state, checked)
    names = []
    for _ in range(fuel):
        got = step(state)
        assert_same(got, reference(state))
        if type(got) is MachineFinal:
            return got, names
        assert_full_records(got, checked)
        names.append(got.name)
        state = got.state
    return None, names


STEP_FUNCTIONS = {"id": "fun(u) -> u", "pi": "fun(u) -> pi 1 <u, u>"}


def church_program(a: int, b: int, g: str) -> str:
    """church(a) applied to church(b), to the step function g and to <>."""

    def church(k: int) -> str:
        body = "x"
        for _ in range(k):
            body = f"f <{body}>"
        return f"fun(f) -> fun(x) -> {body}"

    return f"({church(a)}) <{church(b)}> <{STEP_FUNCTIONS[g]}> <<>>"


def _corpus():
    return [(p.name, parse(p.read_text()), 2_000) for p in sorted(CORPUS.glob("*.lam"))]


GROUPS = {
    "corpus": _corpus,
    "generated": lambda: [
        (f"generated term {k}", t, 2_000)
        for k, t in enumerate(gen_corpus(GenConfig(seed=0), 500))
    ],
    "church": lambda: [
        (f"church-{a}-{b}-{g}", parse(church_program(a, b, g)), 100_000)
        for a, b, g in ((3, 3, "id"), (2, 4, "pi"))
    ],
    "omega": lambda: [("omega@3000", parse((CORPUS / "omega.lam").read_text()), 3_000)],
    "explosions": lambda: [
        ("tuple-explosion(40)", family_tuple_explosion(40), 100_000),
        ("fun-explosion(40)", family_fun_explosion(40), 100_000),
    ],
}


def _run_group(machine: str, group: str):
    translate, init, step, reference = MACHINES[machine]
    names, finals = set(), set()
    for label, t, fuel in GROUPS[group]():
        try:
            final, run_names = side_by_side(step, reference, init(translate(t)), fuel)
        except AssertionError as err:
            raise AssertionError(f"{machine} machine on {label}: {err}") from err
        names.update(run_names)
        if final is not None:
            finals.add((final.status, final.clash))
    return names, finals


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("machine", MACHINES)
def test_step_matches_the_class_pattern_step(machine, group):
    names, finals = _run_group(machine, group)
    if group == "omega":
        assert not finals  # fuel cuts every run
    else:
        assert finals


def test_the_programs_reach_every_transition_and_every_stop():
    """The oracle runs exercise every branch of both step functions."""
    for machine in MACHINES:
        names, finals = set(), set()
        for group in ("corpus", "church"):
            n, f = _run_group(machine, group)
            names |= n
            finals |= f
        common = {"usea1", "usea2", "usea3", "usea4", "esea1", "esea3", "esea6", "epi", "ebeta"}
        own = {"usea5", "usub"} if machine == "source" else {"usubv", "usubw", "esea7"}
        assert names == common | own, machine
        assert finals == {
            ("successful", None),
            ("clash", ClashKind.PROJECTION),
            ("clash", ClashKind.TUPLE),
            ("clash", ClashKind.ABS_OR_CLOSURE),
        }, machine


def test_the_comparison_sees_record_types_and_lengths():
    """Plain == would pass both of these; the oracle's checks must not."""
    t = Var("x")
    assert Unev(t) == PendingFn(t)
    with pytest.raises(AssertionError):
        assert_same(State(Unev(t), (), (), ()), State(PendingFn(t), (), (), ()))
    with pytest.raises(AssertionError):
        assert_same(UNIT_COST, (1, 0, 0, 0))
    short = tuple.__new__(SPartialTuple, ((), ()))
    with pytest.raises(AssertionError):
        assert_full_records(SState(STup(()), (short,)), {})
