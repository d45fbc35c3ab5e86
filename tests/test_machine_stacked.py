"""The two environment representations of the stacked machine, side by side.

The intermediate and target machines are one machine over a named and
a positional environment. On the same source program they must take
the same transitions and stop the same way; their counted costs may
differ only where the representations do: the scan of a variable
lookup (usubv) and the bindings ebeta installs. The named lookup is
the source machine's too, and neither representation substitutes
anything into a term where it binds nothing.
"""

from pathlib import Path

import pytest

from tamc import machine_source, machine_stacked
from tamc.calculi import subst_bags
from tamc.generate import GenConfig, gen_corpus
from tamc.machine_common import ArgVal, MachineFinal, MachineInvariantError, lookup
from tamc.machine_int import init_itam, measure_itam, readback_itam, run_itam, step_itam
from tamc.machine_source import SState, STup, init_stam, measure_stam, readback_stam, step_stam
from tamc.machine_stacked import PartialTuple, PendingFn, State, Unev
from tamc.machine_target import (
    TupledEnv, init_ttam, measure_ttam, readback_ttam, run_ttam, step_ttam,
)
from tamc.syntax import parse
from tamc.terms import (
    App, Closure, PVar, PVarBag, TClosure, Tuple, Var, VarBag, shared_size_source, size_int,
)
from tamc.transforms import closure_convert, wrap
from test_step_oracle import church_program

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _programs(count=500):
    out = []
    for p in sorted(CORPUS.glob("*.lam")):
        fuel = 1_000 if p.name == "omega.lam" else None
        out.append((p.name, parse(p.read_text()), fuel))
    for k, t in enumerate(gen_corpus(GenConfig(seed=0), count)):
        out.append((f"generated term {k}", t, None))
    return out


def test_named_and_positional_machines_are_twins():
    programs = _programs()
    assert len(programs) == 518
    costs_differ = set()
    for name, u, fuel in programs:
        kw = {} if fuel is None else {"fuel": fuel}
        named = run_itam(wrap(u), **kw)
        positional = run_ttam(closure_convert(u), **kw)
        assert named.labels == positional.labels, name
        assert named.final == positional.final, name
        assert named.clash is positional.clash, name
        differ = {
            k
            for k in named.elem_by_name.keys() | positional.elem_by_name.keys()
            if named.elem_by_name.get(k) != positional.elem_by_name.get(k)
        }
        assert differ <= {"ebeta", "usubv"}, (name, differ)
        costs_differ |= differ
    assert costs_differ == {"ebeta", "usubv"}


# Unreachable from a valid initial term: the focus mentions a variable
# that the environment does not bind. Readback substitutes with the
# machine's own lookup, so it fails as a lookup in a step would.
BROKEN = [
    (readback_itam, State(Unev(App(Var("y"), Tuple(()))), ((Var("x"), Tuple(())),), (), ())),
    (readback_ttam, State(Unev(App(PVar("l", 1), Tuple(()))), TupledEnv((), (Tuple(()),)), (), ())),
    (
        readback_stam,
        SState(machine_source.Unev(App(Var("y"), Tuple(())), ((Var("x"), STup(())),)), ()),
    ),
]


@pytest.mark.parametrize("readback,state", BROKEN, ids=["int", "target", "source"])
@pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
def test_readback_of_an_unbound_variable_breaks_an_invariant(readback, state, memo):
    with pytest.raises(MachineInvariantError):
        readback(state, {} if memo else None)


def test_lookup_scans_by_name_innermost_first():
    x, y = Var("x"), Var("y")
    env = ((x, "inner"), (y, "y"), (x, "outer"))
    assert lookup(env, x) == ("inner", 1)
    assert lookup(env, Var("y")) == ("y", 2)
    with pytest.raises(MachineInvariantError, match="unbound variable z"):
        lookup(env, Var("z"))
    with pytest.raises(MachineInvariantError, match="unbound variable x"):
        lookup((), x)


# An environment that binds nothing substitutes nothing: the factory's
# readback returns such terms as they are. That is exact only if no
# term the machines put under an empty environment has a variable to
# resolve or a value bag to rewrite, which real traffic checks here.

STACKED = [
    (wrap, init_itam, step_itam, readback_itam),
    (closure_convert, init_ttam, step_ttam, readback_ttam),
]


def _states(s, step, fuel):
    yield s
    for _ in range(fuel):
        r = step(s)
        if isinstance(r, MachineFinal):
            return
        s = r.state
        yield s


def _pending(cstack):
    for entry in cstack:
        match entry:
            case PendingFn(term=t):
                yield t
            case PartialTuple(pending=pending):
                yield from pending


def _under_empty_env(s):
    """The terms that readback of s substitutes under an environment binding nothing."""
    if not any(s.env):
        if isinstance(s.focus, Unev):
            yield s.focus.term
        yield from _pending(s.cstack)
    for cstack, env in s.astack:
        if not any(env):
            yield from _pending(cstack)


def _no_resolve(v):
    raise AssertionError(f"resolved {v!r} under an environment that binds nothing")


@pytest.mark.parametrize("translate,init,step,readback", STACKED, ids=["int", "target"])
def test_terms_under_an_empty_environment_substitute_to_themselves(
    translate, init, step, readback
):
    programs = [(u, fuel or 100_000) for _, u, fuel in _programs(200)]
    checked: dict = {}  # id -> term, so that a term shared by many states is checked once
    callee_states = 0  # states inside a call whose environment binds nothing
    for u, fuel in programs:
        for s in _states(init(translate(u)), step, fuel):
            if s.astack and not any(s.env):
                callee_states += 1
            for t in _under_empty_env(s):
                if id(t) not in checked:
                    checked[id(t)] = t
                    assert subst_bags(t, _no_resolve) == t, t
    assert len(checked) > 100
    assert callee_states > 0


@pytest.mark.parametrize(
    "text,calls_a_function",
    [("pi 1 <<>, <>>", False), ("(fun() -> <<>, <>>) <>", True)],
    ids=["no-beta", "zero-binder-callee"],
)
@pytest.mark.parametrize("translate,init,step,readback", STACKED, ids=["int", "target"])
@pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
def test_readback_under_an_empty_environment_calls_no_substitution(
    monkeypatch, text, calls_a_function, translate, init, step, readback, memo
):
    calls = 0
    real = machine_stacked.subst_bags

    def counting(t, resolve):
        nonlocal calls
        calls += 1
        return real(t, resolve)

    monkeypatch.setattr(machine_stacked, "subst_bags", counting)
    states = list(_states(init(translate(parse(text))), step, 1_000))
    shared = {} if memo else None
    for s in states:
        readback(s, shared)
    assert any(s.astack for s in states) is calls_a_function
    assert calls == 0


# Unreachable states whose fault is the focus, not the stack entry below it.
@pytest.mark.parametrize("step", [step_itam, step_ttam], ids=["int", "target"])
def test_an_argument_against_a_non_value_focus_names_the_focus(step):
    with pytest.raises(MachineInvariantError) as err:
        step(State(Var("x"), (), (ArgVal(Tuple(())),), ()))
    assert str(err.value) == "not a machine value in focus: Var(name='x')"


def test_an_intermediate_closure_with_a_target_bag_is_no_stacked_machine_term():
    t = Closure((), (), Tuple(()), PVarBag((PVar("l", 1),)))
    with pytest.raises(MachineInvariantError) as err:
        step_itam(State(Unev(t), (), (), ()))
    assert str(err.value) == f"not a stacked-machine term in focus: {t!r}"


def test_a_target_closure_with_an_intermediate_bag_is_no_stacked_machine_term():
    t = TClosure(1, 0, Tuple(()), VarBag((Var("a"),)))
    with pytest.raises(MachineInvariantError) as err:
        step_ttam(State(Unev(t), TupledEnv((Tuple(()),), ()), (), ()))
    assert str(err.value) == f"not a stacked-machine term in focus: {t!r}"


# The overhead measure, exactly: the code still pending in the focus and
# in every control-stack segment, the current one and each caller's. The
# reference sums each segment with its own helper. The source machine's
# stack is its one segment; its reference matches on each entry.


def _reference_overhead(entries: tuple) -> int:
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


def _reference_measure(s: State) -> int:
    total = 0
    if isinstance(s.focus, Unev):
        total += size_int(s.focus.term)
    total += _reference_overhead(s.cstack)
    for caller_cstack, _ in s.astack:
        total += _reference_overhead(caller_cstack)
    return total


def _reference_measure_stam(s: SState) -> int:
    total = 0
    f = s.focus
    if isinstance(f, machine_source.Unev):
        total += shared_size_source(f.term)
    for entry in s.stack:
        match entry:
            case machine_source.PendingFn(term=t):
                total += shared_size_source(t)
            case machine_source.PartialTuple(pending=pending):
                total += len(pending)
                total += sum(shared_size_source(p) for p in pending)
            case _:
                pass
    return total


@pytest.mark.parametrize(
    "translate,init,step,measure,reference",
    [
        (wrap, init_itam, step_itam, measure_itam, _reference_measure),
        (closure_convert, init_ttam, step_ttam, measure_ttam, _reference_measure),
        (lambda u: u, init_stam, step_stam, measure_stam, _reference_measure_stam),
    ],
    ids=["int", "target", "source"],
)
def test_measure_is_the_pending_code_of_every_segment(translate, init, step, measure, reference):
    programs = [(u, 3_000 if name == "omega.lam" else 100_000) for name, u, _ in _programs(200)]
    programs.append((parse(church_program(3, 3, "id")), 100_000))
    states = pending_callers = 0
    for u, fuel in programs:
        for s in _states(init(translate(u)), step, fuel):
            assert measure(s) == reference(s), s
            states += 1
            callers = s.astack if type(s) is State else ()  # a source state has no callers' segments
            pending_callers += any(_reference_overhead(cstack) for cstack, _ in callers)
    assert states > 5_000
    if measure is not measure_stam:
        assert pending_callers > 0
