"""Source machine tests against hand-stepped traces.

The longer traces here were derived on paper, transition by
transition, before the machine was written. They are frozen: a failure
means the machine moved, not the test.
"""

import pytest

from tamc.calculi import ClashKind, StepLabel, Stepped, normalize_source, step_source
from tamc.machine_common import ArgVal, MachineFinal, MachineInvariantError
from tamc.machine_source import (
    SClos,
    SState,
    STup,
    Unev,
    init_stam,
    measure_stam,
    readback_stam,
    readback_value,
    run_stam,
    step_stam,
)
from tamc.syntax import parse
from tamc.terms import Abs, App, Closure, Tuple, ValBag, Var, alpha_eq_source, metrics

IDX = parse("fun(x) -> x")
IDY = parse("fun(y) -> y")


def test_init_requires_closed():
    with pytest.raises(ValueError):
        init_stam(parse("x"))
    with pytest.raises(ValueError):
        init_stam(parse("fun(x) -> x y"))


X = Var("x")
CLOSURE = Closure((), (X,), X, ValBag(()))


@pytest.mark.parametrize(
    "t",
    [CLOSURE, App(IDX, Tuple((CLOSURE,))), Abs((X,), App(X, Tuple((CLOSURE,))))],
    ids=["root", "tuple-argument", "under-abstraction"],
)
def test_init_rejects_a_closure_anywhere(t):
    # the intermediate calculus's closures are foreign to this machine,
    # as source terms are to init_itam and init_ttam
    with pytest.raises(TypeError, match="not a source term"):
        init_stam(t)


def test_value_term_single_transition():
    rec = run_stam(IDX)
    assert rec.labels == ("usea5",)
    assert rec.final == "successful"
    assert readback_value(rec.final_state.focus) == IDX


def test_identity_application_trace():
    t = parse("(fun(x) -> x) <fun(y) -> y>")
    rec = run_stam(t)
    assert rec.labels == (
        "usea1",
        "usea3",
        "usea5",
        "esea3",
        "esea1",
        "usea5",
        "ebeta",
        "usub",
    )
    assert rec.final == "successful"
    assert rec.beta == 1 and rec.pi == 0
    assert readback_value(rec.final_state.focus) == IDY


def test_all_transitions_trace():
    # One run that visits every transition kind exactly where expected.
    t = parse("(fun(x) -> pi 1 <x, x, <>>) <fun(y) -> y>")
    rec = run_stam(t, record_measure=True)
    assert rec.labels == (
        "usea1",
        "usea3",
        "usea5",
        "esea3",
        "esea1",
        "usea5",
        "ebeta",
        "usea2",
        "usea3",
        "usea4",
        "esea6",
        "usub",
        "esea6",
        "usub",
        "esea3",
        "epi",
    )
    assert rec.final == "successful"
    assert rec.counts == {
        "usea1": 1,
        "usea2": 1,
        "usea3": 2,
        "usea4": 1,
        "usea5": 2,
        "usub": 2,
        "esea1": 1,
        "esea3": 2,
        "esea6": 2,
        "ebeta": 1,
        "epi": 1,
    }
    assert readback_value(rec.final_state.focus) == IDY
    # Instrumentation, counted by hand along the same trace.
    assert rec.env_copy_ops == 3
    assert rec.lookup_ops == 2
    assert rec.elem_ops == 30
    # The overhead measure starts at the term size and never goes negative.
    assert rec.measures is not None
    assert rec.measures[0] == metrics(t).size
    assert len(rec.measures) == rec.steps + 1
    assert all(m >= 0 for m in rec.measures)


def test_principal_labels_match_interpreter():
    t = parse("(fun(x) -> pi 1 <x, x, <>>) <fun(y) -> y>")
    rec = run_stam(t)
    nr = normalize_source(t)
    assert rec.principal_labels == (StepLabel.BETA, StepLabel.PI)
    assert rec.principal_labels == nr.labels
    assert readback_value(rec.final_state.focus) == nr.term


def test_projection_clash():
    rec = run_stam(parse("pi 2 <fun(y) -> y>"))
    assert rec.labels == ("usea2", "usea3", "usea5", "esea3")
    assert rec.final == "clash"
    assert rec.clash is ClashKind.PROJECTION


def test_arity_clash():
    rec = run_stam(parse("(fun(x, y) -> x) <fun(z) -> z>"))
    assert rec.final == "clash"
    assert rec.clash is ClashKind.ABS_OR_CLOSURE


def test_tuple_in_function_position_clash():
    rec = run_stam(parse("<> <>"))
    assert rec.labels == ("usea1", "usea4", "esea1", "usea4")
    assert rec.final == "clash"
    assert rec.clash is ClashKind.TUPLE


def test_fuel_exhaustion():
    omega = parse("(fun(x) -> x <x>) <fun(x) -> x <x>>")
    rec = run_stam(omega, fuel=25)
    assert rec.final == "fuel"
    assert rec.steps == 25


def test_initial_measure_is_term_size():
    for src in ["fun(x) -> x", "(fun(x) -> x) <>", "pi 3 <x> (fun(y) -> <y, y>)"]:
        t = parse(src)
        if src.startswith("pi"):
            # open term, build the state by hand
            state = SState(Unev(t, ()), ())
            assert measure_stam(state) == metrics(t).size
        else:
            assert measure_stam(init_stam(t)) == metrics(t).size


def test_readback_tracks_interpreter_trajectory():
    # Overhead transitions keep the readback fixed; principal transitions
    # perform exactly one interpreter step with the same label.
    t = parse("(fun(x) -> pi 2 <x <x>, x, pi 1 <x>>) <fun(y) -> <y>>")
    state = init_stam(t)
    current = readback_stam(state)
    assert current == t
    for _ in range(10_000):
        r = step_stam(state)
        if isinstance(r, MachineFinal):
            assert r.status == "successful"
            break
        nxt = readback_stam(r.state)
        if r.name == "ebeta":
            s = step_source(current)
            assert isinstance(s, Stepped) and s.label is StepLabel.BETA
            assert s.term == nxt
            current = nxt
        elif r.name == "epi":
            s = step_source(current)
            assert isinstance(s, Stepped) and s.label is StepLabel.PI
            assert s.term == nxt
            current = nxt
        else:
            assert nxt == current
        state = r.state
    else:
        pytest.fail("run did not finish")
    assert normalize_source(t).term == readback_value(state.focus)


def test_env_not_copied_on_beta():
    # beta extends the environment in place; only usea1/usea3/esea6 count copies.
    t = parse("(fun(x) -> (fun(y) -> y) <x>) <fun(z) -> z>")
    rec = run_stam(t)
    # The outer application runs under the empty env (two free copies);
    # after beta, the inner usea1 and usea3 each copy the 1-entry env.
    assert rec.env_copy_ops == 2
    assert rec.final == "successful"


def test_determinism():
    t = parse("(fun(x) -> pi 1 <x, x>) <fun(y) -> y>")
    a = run_stam(t, record_measure=True)
    b = run_stam(t, record_measure=True)
    assert a.labels == b.labels
    assert a.measures == b.measures
    assert a.elem_ops == b.elem_ops


def test_stale_environment_dropped_by_empty_tuple():
    # usea4 discards the environment; the result is the canonical empty tuple.
    t = parse("(fun(x) -> <>) <fun(y) -> y>")
    rec = run_stam(t)
    assert rec.labels[-1] == "usea4"
    assert rec.final_state.focus == STup(())


def test_nested_closure_readback_carries_env():
    # The result closure hangs on to its environment; readback substitutes it.
    t = parse("(fun(x) -> fun(y) -> x) <fun(z) -> z>")
    rec = run_stam(t)
    assert rec.final == "successful"
    v = rec.final_state.focus
    assert isinstance(v, SClos)
    assert len(v.env) == 1
    got = readback_value(v)
    want = parse("fun(y) -> fun(z) -> z")
    assert alpha_eq_source(got, want)
    assert got == want


def test_an_argument_against_a_non_value_focus_names_the_focus():
    # Unreachable: the stack entry is valid, the focus is no machine value.
    with pytest.raises(MachineInvariantError) as err:
        step_stam(SState(Tuple(()), (ArgVal(STup(())),)))
    assert str(err.value) == "not a machine value in focus: Tuple(items=())"
