"""Capture-avoiding substitution reads free variables from `free_vars`.

`subst_source_any` used to keep its own walk, `free_var_names`, which
returned each node's free variable names as a frozenset and rejected
every non-source node. It now asks `free_vars` with one memo per
substitution. That walk, kept below as the reference, must give the
same name sets as `free_vars` on every term the source calculus
produces, along source trajectories at fuel 200. `free_vars` also
reads intermediate terms, so the rejection of a closure is checked
here separately.
"""

import pytest
from hypothesis import given, settings
from test_free_vars_memo import _subterms, _trajectory
from test_properties import open_terms

from tamc.calculi import step_source, subst_source
from tamc.generate import GenConfig, gen_corpus
from tamc.terms import (
    Abs,
    App,
    Closure,
    Proj,
    PVar,
    TClosure,
    Tuple,
    ValBag,
    Var,
    alpha_eq_source,
    free_vars,
)


def free_var_names(t, memo=None) -> frozenset:
    """The set-valued walk substitution used before, kept as the reference."""
    if memo is None:
        memo = {}

    def go(t) -> frozenset:
        cached = memo.get(id(t))
        if cached is not None:
            return cached
        match t:
            case Var(name):
                s = frozenset((name,))
            case Abs(params, body):
                s = go(body) - {p.name for p in params}
            case App(fn, arg):
                s = go(fn) | go(arg)
            case Proj(_, arg):
                s = go(arg)
            case Tuple(items):
                s = frozenset().union(*(go(it) for it in items)) if items else frozenset()
            case _:
                raise TypeError(f"not a source term: {t!r}")
        memo[id(t)] = s
        return s

    return go(t)


def _check_trajectory(t):
    for reduct in _trajectory(step_source, t):
        memo: dict = {}
        for u in _subterms(reduct):
            assert {v.name for v in free_vars(u, memo)} == free_var_names(u), u


def test_free_vars_names_match_the_reference_on_the_corpus_trajectories():
    for t in gen_corpus(GenConfig(seed=0), 500):
        _check_trajectory(t)


@settings(max_examples=200)
@given(open_terms)
def test_free_vars_names_match_the_reference_on_open_terms(t):
    _check_trajectory(t)


def test_replacement_free_variable_meets_a_binder_two_abstractions_deep():
    x, y, a = Var("x"), Var("y"), Var("a")
    # fun(a) -> fun(y) -> x, with y for x: the inner binder must move
    t = Abs((a,), Abs((y,), x))
    out = subst_source(t, (x,), (y,))
    assert out == Abs((a,), Abs((Var("y_0"),), y))
    assert alpha_eq_source(out, Abs((Var("p"),), Abs((Var("q"),), y)))
    assert not alpha_eq_source(out, Abs((Var("p"),), Abs((y,), y)))
    assert free_vars(out) == (y,)


def test_binders_the_substituted_variable_never_reaches_are_left_alone():
    x, y = Var("x"), Var("y")
    # x is bound by the inner abstraction, so nothing is captured there
    t = Tuple((x, Abs((y,), Abs((x,), y))))
    out = subst_source(t, (x,), (y,))
    assert out == Tuple((y, t.items[1]))
    assert out.items[1] is t.items[1]


FOREIGN = {
    "closure": Closure((), (Var("a"),), Var("a"), ValBag(())),
    "closure with a value bag": Closure((Var("z"),), (), Var("z"), ValBag((Tuple(()),))),
    "indexed variable": PVar("l", 1),
    "target closure": TClosure(0, 1, PVar("s", 1), ValBag(())),
}

X = Var("x")
PLACEMENTS = {
    "applied to the substituted variable": lambda n: App(n, X),
    "beside it in a tuple": lambda n: Tuple((X, n)),
    "under an abstraction that ignores it": lambda n: App(Abs((Var("q"),), Proj(1, Tuple((n,)))), X),
    "in a branch without it": lambda n: App(X, Tuple((Tuple((n,)),))),
}


@pytest.mark.parametrize("where", sorted(PLACEMENTS))
@pytest.mark.parametrize("kind", sorted(FOREIGN))
def test_subst_source_rejects_a_non_source_node_anywhere(kind, where):
    t = PLACEMENTS[where](FOREIGN[kind])
    with pytest.raises(TypeError):
        subst_source(t, (X,), (Tuple(()),))


@pytest.mark.parametrize(
    "t",
    [App(X, Tuple(())), Tuple((X,)), Tuple(())],
    ids=["applied", "in a tuple", "unused"],
)
@pytest.mark.parametrize("kind", sorted(FOREIGN))
def test_subst_source_rejects_a_non_source_replacement(kind, t):
    # no binder makes the substitution inspect the replacement here
    with pytest.raises(TypeError):
        subst_source(t, (X,), (FOREIGN[kind],))
