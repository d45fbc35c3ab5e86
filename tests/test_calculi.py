"""Small-step interpreter tests for the three calculi.

Reduction is weak (never under a binder), deterministic, and right to
left: in an application the argument is evaluated before the function,
and tuple items are evaluated from the last to the first. Redex paths
are child-index sequences from the root (App: 0 function, 1 argument;
Proj: 0; Tuple: item position, 0-based).
"""

import pytest

from tamc.calculi import (
    DEFAULT_FUEL,
    ClashKind,
    ClashOutcome,
    FuelExhausted,
    OpenStuckOutcome,
    Stepped,
    StepLabel,
    ValueOutcome,
    normalize_int,
    normalize_source,
    normalize_target,
    psubst_target,
    step_int,
    step_source,
    step_target,
    subst_int,
    subst_source,
)
from tamc.syntax import parse
from tamc.terms import (
    Abs,
    App,
    Closure,
    PVar,
    PVarBag,
    Proj,
    TClosure,
    Tuple,
    ValBag,
    Var,
    VarBag,
    alpha_eq_source,
    free_vars,
)

x = Var("x")
y = Var("y")
z = Var("z")
ID = Abs((x,), x)
IDY = Abs((y,), y)
UNIT = Tuple(())


def test_beta_on_identity():
    t = App(ID, Tuple((IDY,)))
    r = step_source(t)
    assert r == Stepped(StepLabel.BETA, IDY)


def test_beta_requires_matching_arity():
    t = App(Abs((x, y), x), Tuple((IDY,)))
    r = step_source(t)
    assert isinstance(r, ClashOutcome)
    assert r.kind is ClashKind.ABS_OR_CLOSURE
    assert r.path == ()


def test_beta_with_empty_params():
    t = App(Abs((), UNIT), Tuple(()))
    assert step_source(t) == Stepped(StepLabel.BETA, UNIT)


def test_projection_step():
    t = Proj(2, Tuple((ID, IDY)))
    assert step_source(t) == Stepped(StepLabel.PI, IDY)


def test_projection_clash():
    r = step_source(Proj(2, Tuple((IDY,))))
    assert isinstance(r, ClashOutcome)
    assert r.kind is ClashKind.PROJECTION


def test_tuple_clash():
    # a tuple in function position with an evaluated argument
    r = step_source(App(UNIT, UNIT))
    assert isinstance(r, ClashOutcome)
    assert r.kind is ClashKind.TUPLE


def test_argument_evaluates_before_function():
    redex = App(ID, Tuple((UNIT,)))
    t = App(redex, redex)
    r = step_source(t)
    assert r == Stepped(StepLabel.BETA, App(redex, UNIT))


def test_tuple_items_evaluate_right_to_left():
    redex = App(ID, Tuple((UNIT,)))
    t = Tuple((redex, redex))
    r = step_source(t)
    assert r == Stepped(StepLabel.BETA, Tuple((redex, UNIT)))


def test_clash_path_points_into_the_term():
    bad = Proj(1, UNIT)
    t = App(ID, Tuple((bad,)))
    r = step_source(t)
    assert isinstance(r, ClashOutcome)
    assert r.kind is ClashKind.PROJECTION
    assert r.path == (1, 0)


def test_values_report_value_outcome():
    assert isinstance(step_source(ID), ValueOutcome)
    assert isinstance(step_source(Tuple((ID, UNIT))), ValueOutcome)


def test_open_terms_report_open_stuck():
    r = step_source(x)
    assert isinstance(r, OpenStuckOutcome)
    r2 = step_source(App(x, UNIT))
    assert isinstance(r2, OpenStuckOutcome)
    assert r2.path == (0,)


def test_normalize_identity_application():
    t = App(ID, Tuple((IDY,)))
    r = normalize_source(t)
    assert r.labels == (StepLabel.BETA,)
    assert r.term == IDY
    assert isinstance(r.final, ValueOutcome)


def test_normalize_omega_runs_out_of_fuel():
    omega = parse("(fun(x) -> x <x>) <fun(x) -> x <x>>")
    r = normalize_source(omega, fuel=5)
    assert r.labels == (StepLabel.BETA,) * 5
    assert isinstance(r.final, FuelExhausted)


def test_default_fuel_value():
    assert DEFAULT_FUEL == 100_000


def test_subst_simple():
    t = App(x, Tuple((y, x)))
    r = subst_source(t, (x, y), (ID, UNIT))
    assert r == App(ID, Tuple((UNIT, ID)))


def test_subst_respects_shadowing():
    t = Abs((x,), x)
    assert subst_source(App(t, x), (x,), (ID,)) == App(t, ID)


def test_subst_avoids_capture():
    # replace x under a binder named y with a value whose y is free
    t = Abs((y,), x)
    v = Abs((z,), App(z, y))
    r = subst_source(t, (x,), (v,))
    assert alpha_eq_source(r, Abs((Var("w"),), v))
    assert free_vars(r) == (y,)


def test_subst_keeps_binders_when_no_capture():
    t = Abs((y,), x)
    assert subst_source(t, (x,), (UNIT,)) == Abs((y,), UNIT)


def test_subst_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        subst_source(x, (x,), (ID, UNIT))


# intermediate calculus


def c_id(v: Var) -> Closure:
    return Closure((), (v,), v, ValBag(()))


def test_int_beta():
    cx, cy = c_id(x), c_id(y)
    t = App(cx, Tuple((cy,)))
    assert step_int(t) == Stepped(StepLabel.BETA, cy)


def test_int_beta_substitutes_both_groups():
    # closure wrapping one value and binding one param: body pairs them
    c = Closure((x,), (y,), Tuple((y, x)), ValBag((c_id(z),)))
    t = App(c, Tuple((UNIT,)))
    assert step_int(t) == Stepped(StepLabel.BETA, Tuple((UNIT, c_id(z))))


def test_int_arity_clash():
    c = Closure((), (x, y), x, ValBag(()))
    r = step_int(App(c, Tuple((c_id(z),))))
    assert isinstance(r, ClashOutcome)
    assert r.kind is ClashKind.ABS_OR_CLOSURE


def test_int_tuple_and_projection_clashes():
    r = step_int(App(UNIT, UNIT))
    assert r.kind is ClashKind.TUPLE
    r2 = step_int(Proj(1, c_id(x)))
    assert r2.kind is ClashKind.PROJECTION


def test_int_open_closure_is_stuck_not_clashing():
    open_c = Closure((x,), (y,), App(y, x), VarBag((x,)))
    r = step_int(App(open_c, Tuple(())))
    assert isinstance(r, OpenStuckOutcome)


def test_subst_int_rewrites_bags_only():
    c = Closure((x,), (y,), App(y, x), VarBag((x,)))
    v = c_id(z)
    r = subst_int(c, (), (), (x,), (v,))
    assert r == Closure((x,), (y,), App(y, x), ValBag((v,)))


def test_subst_int_requires_covered_variables():
    with pytest.raises(ValueError):
        subst_int(App(x, y), (x,), (c_id(z),), (), ())


def test_normalize_int():
    cx, cy = c_id(x), c_id(y)
    r = normalize_int(App(cx, Tuple((cy,))))
    assert r.labels == (StepLabel.BETA,)
    assert r.term == cy


# target calculus


TV = TClosure(0, 1, PVar("s", 1), ValBag(()))


def test_target_beta_uses_annotations():
    t = App(TClosure(0, 1, PVar("s", 1), ValBag(())), Tuple((TV,)))
    assert step_target(t) == Stepped(StepLabel.BETA, TV)


def test_target_arity_annotation_mismatch_clashes():
    t = App(TClosure(0, 2, PVar("s", 1), ValBag(())), Tuple((TV,)))
    r = step_target(t)
    assert isinstance(r, ClashOutcome)
    assert r.kind is ClashKind.ABS_OR_CLOSURE


def test_target_wrapped_annotation_checked_against_bag():
    c = TClosure(2, 0, PVar("l", 1), ValBag((TV, TV)))
    t = App(c, Tuple(()))
    assert step_target(t) == Stepped(StepLabel.BETA, TV)


def test_target_projection_and_tuple_clashes():
    assert step_target(Proj(3, Tuple((TV,)))).kind is ClashKind.PROJECTION
    assert step_target(App(Tuple(()), TV)).kind is ClashKind.TUPLE


def test_target_open_terms_stuck():
    assert isinstance(step_target(PVar("s", 1)), OpenStuckOutcome)
    open_c = TClosure(1, 1, PVar("l", 1), PVarBag((PVar("s", 1),)))
    assert isinstance(step_target(App(open_c, Tuple((TV,)))), OpenStuckOutcome)


def test_psubst_target():
    a = TClosure(0, 1, PVar("s", 1), ValBag(()))
    b = TClosure(0, 0, Tuple(()), ValBag(()))
    t = App(PVar("s", 1), PVar("l", 1))
    assert psubst_target(t, (a,), (b,)) == App(b, a)


def test_psubst_rewrites_closure_bags_not_bodies():
    c = TClosure(1, 1, App(PVar("s", 1), PVar("l", 1)), PVarBag((PVar("l", 2),)))
    v1, v2 = TV, TClosure(0, 0, Tuple(()), ValBag(()))
    r = psubst_target(c, (v1, v2), ())
    assert r == TClosure(1, 1, App(PVar("s", 1), PVar("l", 1)), ValBag((v2,)))


def test_psubst_requires_enough_values():
    with pytest.raises(ValueError):
        psubst_target(PVar("l", 2), (TV,), ())


def test_normalize_target():
    t = App(TClosure(0, 1, PVar("s", 1), ValBag(())), Tuple((TV,)))
    r = normalize_target(t)
    assert r.labels == (StepLabel.BETA,)
    assert r.term == TV


def test_int_beta_rejects_a_closure_one_bag_value_short():
    # one wrapped variable, an empty value bag, applied deep in a tuple
    short = Closure((Var("z"),), (), Var("z"), ValBag(()))
    with pytest.raises(ValueError) as e:
        step_int(Tuple((App(short, Tuple(())),)))
    assert str(e.value) == "ill-formed closure: 0 bag values for 1 wrapped variables"


def test_target_beta_rejects_a_closure_one_bag_value_short():
    short = TClosure(1, 0, PVar("l", 1), ValBag(()))
    with pytest.raises(ValueError) as e:
        step_target(Tuple((App(short, Tuple(())),)))
    assert str(e.value) == "ill-formed closure: 0 bag values promised as 1"


@pytest.mark.parametrize(
    "step, t",
    [
        (step_int, App(Closure((), (), Tuple(()), PVarBag((PVar("l", 1),))), Tuple(()))),
        (step_target, App(TClosure(1, 0, Tuple(()), VarBag((Var("a"),))), Tuple(()))),
    ],
    ids=["int", "target"],
)
def test_a_closure_whose_bag_belongs_to_the_other_calculus_is_a_type_error(step, t):
    # the bag's own calculus has its open-term outcome; another calculus's bag is no term of this one
    with pytest.raises(TypeError):
        step(t)
    with pytest.raises(TypeError):
        (normalize_int if step is step_int else normalize_target)(t)
