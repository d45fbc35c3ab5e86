"""Tests for term representations and their static measures.

Expected numbers in this file are worked out by hand from the size,
width, and height clauses, so they act as fixed oracles for the
implementation.
"""

import pytest

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
    alpha_eq_int,
    alpha_eq_source,
    closed_int,
    closed_target,
    context_memo,
    free_vars,
    is_closed_source,
    is_value_int,
    is_value_source,
    metrics,
    norms_target,
    prime_int,
    prime_target,
    shared_size_source,
    size_int,
    size_target,
    well_formed_int,
    well_formed_target,
)

x = Var("x")
y = Var("y")
z = Var("z")


def test_var_metrics():
    m = metrics(x)
    assert (m.size, m.width, m.height) == (1, 0, 0)


def test_empty_tuple_has_size_zero():
    m = metrics(Tuple(()))
    assert m.size == 0
    assert m.width == 0
    assert m.height == 0


def test_height_counts_bound_variables_in_scope():
    # fun(x1) -> fun(x2) -> x1 x2: innermost subterm sits under two binders
    t = Abs((Var("x1"),), Abs((Var("x2"),), App(Var("x1"), Var("x2"))))
    assert metrics(t).height == 2
    assert metrics(t).size == 7


def test_zero_param_abstraction_has_height_zero():
    t = Abs((), x)
    m = metrics(t)
    assert m.size == 2
    assert m.height == 0


def test_multi_param_binder_counts_each_variable():
    t = Abs((x, y), Tuple((x, y, x)))
    m = metrics(t)
    assert m.size == 9
    assert m.width == 3
    assert m.height == 2


def test_application_size():
    # (fun(x) -> x) <fun(y) -> y y>
    t = App(Abs((x,), x), Tuple((Abs((y,), App(y, y)),)))
    assert metrics(t).size == 10


def test_size_of_projection():
    assert metrics(Proj(1, Tuple((x,)))).size == 3


@pytest.mark.parametrize(
    "t",
    [
        x,
        Tuple(()),
        Abs((x,), App(x, Tuple((x, x)))),
        Proj(2, Tuple((x, Abs((y,), y)))),
        Abs((x, y, z), Tuple((Tuple((x, y)), z))),
    ],
)
def test_metrics_invariants(t):
    m = metrics(t)
    assert 0 <= m.width <= m.size
    assert 0 <= m.height <= m.size


def test_free_vars_first_occurrence_order():
    t = App(App(x, y), Tuple((z, x)))
    assert free_vars(t) == (x, y, z)


def test_free_vars_skips_bound():
    t = Abs((y,), App(y, x))
    assert free_vars(t) == (x,)
    assert not is_closed_source(t)
    assert is_closed_source(Abs((x,), x))


def test_free_vars_under_projection_and_shadowing():
    t = Proj(1, Tuple((y, Abs((y,), y))))
    assert free_vars(t) == (y,)


def test_duplicate_params_rejected():
    with pytest.raises(ValueError):
        Abs((x, x), x)


def test_is_value_source():
    assert is_value_source(Abs((), x))
    assert is_value_source(Tuple(()))
    assert is_value_source(Tuple((Abs((x,), x), Tuple(()))))
    assert not is_value_source(x)
    assert not is_value_source(Tuple((App(x, y),)))
    assert not is_value_source(Proj(1, Tuple((x,))))


def test_both_closure_kinds_are_int_values():
    c_var = Closure((x,), (y,), App(y, x), VarBag((x,)))
    c_val = Closure((x,), (y,), App(y, x), ValBag((Tuple(()),)))
    assert is_value_int(c_var)
    assert is_value_int(c_val)
    assert is_value_int(Tuple((c_var, c_val)))
    assert not is_value_int(x)
    assert not is_value_int(App(c_var, c_val))


def test_empty_var_bag_canonicalized_to_value_bag():
    c = Closure((), (x,), x, VarBag(()))
    assert c.bag == ValBag(())
    assert prime_int(c)
    assert well_formed_int(c)


def test_well_formed_int_examples():
    good = Closure((x,), (y,), App(y, x), VarBag((x,)))
    assert well_formed_int(good)
    assert prime_int(good)

    # variable bag must repeat the wrapped list exactly
    assert not well_formed_int(Closure((x,), (y,), App(y, x), VarBag((z,))))
    # body may only mention wrapped and param variables
    assert not well_formed_int(Closure((x,), (y,), App(y, z), VarBag((x,))))
    # wrapped and param lists must be disjoint
    assert not well_formed_int(Closure((x,), (x,), x, VarBag((x,))))


def test_well_formed_int_value_bag():
    c = Closure((x,), (y,), App(y, x), ValBag((Tuple(()),)))
    assert well_formed_int(c)
    assert not prime_int(c)
    # value bag length must match the wrapped list
    assert not well_formed_int(Closure((x,), (y,), App(y, x), ValBag(())))
    # value bags hold values only
    assert not well_formed_int(Closure((x,), (y,), App(y, x), ValBag((App(x, x),))))


def test_well_formed_int_recurses_into_subterms():
    bad = Closure((x,), (y,), App(y, z), VarBag((x,)))
    assert not well_formed_int(App(bad, Tuple(())))
    assert not closed_int(App(x, Tuple(())))
    assert closed_int(Closure((), (x,), x, ValBag(())))


def test_norms_target():
    t = App(PVar("s", 1), PVar("l", 1))
    assert norms_target(t) == (1, 1)
    assert norms_target(App(PVar("s", 2), PVar("l", 1))) == (1, 2)


def test_norms_ignore_closure_bodies_but_count_bags():
    c = TClosure(3, 0, PVar("s", 5), PVarBag((PVar("l", 3),)))
    assert norms_target(c) == (3, 0)


def test_well_formed_target_examples():
    # body projects position 2 of the wrapped tuple but only one value is promised
    bad = TClosure(1, 1, App(PVar("s", 1), PVar("l", 2)), PVarBag((PVar("s", 1),)))
    assert not well_formed_target(bad)

    good = TClosure(0, 1, PVar("s", 1), ValBag(()))
    assert well_formed_target(good)
    assert closed_target(good)
    assert prime_target(good)

    # bag length must equal the wrapped arity
    assert not well_formed_target(TClosure(1, 1, PVar("l", 1), ValBag(())))


def test_closed_target_means_no_projection_vars_outside_bodies():
    assert not closed_target(PVar("s", 1))
    assert not closed_target(Tuple((PVar("l", 1),)))
    assert closed_target(Tuple((TClosure(0, 1, PVar("s", 1), ValBag(())),)))


def test_size_int_and_target_agree_on_eliminated_shape():
    c_int = Closure((x,), (y,), App(y, x), VarBag((x,)))
    c_tgt = TClosure(1, 1, App(PVar("s", 1), PVar("l", 1)), PVarBag((PVar("s", 1),)))
    assert size_int(c_int) == 5
    assert size_target(c_tgt) == 5


def test_size_int_value_bag_counts_values():
    c = Closure((x,), (y,), y, ValBag((Tuple((Tuple(()), Tuple(()))),)))
    # body 1 + wrapped 1 + params 1 + bag value size 2
    assert size_int(c) == 5


def test_alpha_eq_int_renames_binders():
    a = Closure((x,), (y,), App(y, x), VarBag((x,)))
    b = Closure((x,), (z,), App(z, x), VarBag((x,)))
    assert alpha_eq_int(a, b)


def test_alpha_eq_int_wrapped_vars_are_binders_too():
    a = Closure((Var("a"),), (y,), App(y, Var("a")), VarBag((x,)))
    b = Closure((x,), (y,), App(y, x), VarBag((x,)))
    # the bag is a free occurrence, the wrapped list is a binder
    assert alpha_eq_int(a, b)


def test_alpha_eq_int_distinguishes_free_names():
    a = Closure((x,), (y,), App(y, x), VarBag((x,)))
    b = Closure((x,), (y,), App(y, x), ValBag((Tuple(()),)))
    assert not alpha_eq_int(a, b)
    c = Closure((z,), (y,), App(y, z), VarBag((z,)))
    # bags mention different free variables
    assert not alpha_eq_int(a, c)


def test_alpha_eq_source():
    assert alpha_eq_source(Abs((x,), x), Abs((y,), y))
    assert not alpha_eq_source(x, y)
    a = Abs((x,), Abs((y,), x))
    b = Abs((y,), Abs((x,), x))
    assert not alpha_eq_source(a, b)
    assert alpha_eq_source(a, Abs((z,), Abs((y,), z)))


def test_alpha_eq_source_arity_sensitive():
    assert not alpha_eq_source(Abs((x,), x), Abs((x, y), x))


def test_shared_size_matches_plain_size_on_trees():
    t = Abs((x,), App(x, Tuple((x, Tuple(())))))
    assert shared_size_source(t) == metrics(t).size


def test_shared_size_walks_dags_once():
    # build a deeply shared tuple without materializing 2**40 nodes
    t = Tuple(())
    for _ in range(40):
        t = Tuple((t, t))
    # size obeys s(n) = 2 + 2 * s(n - 1), s(0) = 0
    expected = 0
    for _ in range(40):
        expected = 2 + 2 * expected
    assert shared_size_source(t) == expected


def test_context_memo_makes_one_fold_memo_per_key():
    assert context_memo(None, 1, x) is None
    memo: dict = {}
    first = context_memo(memo, 1, x)
    assert first == {} and context_memo(memo, 1, y) is first
    assert memo[1][0] is x and memo[1][1] is first  # the entry holds what was given first
    other = context_memo(memo, 2, y)
    assert other is not first and memo[2][0] is y
