"""One search in evaluation order finds the redex: `terms.decompose`.

The steppers and the value tests used to fold every node outside
binders, memoizing which were values, at every step and every test.
`decompose` goes right to left through the parts of an application,
projection or tuple and stops at the first redex or stuck leaf, so it
never looks left of it. The fold it replaced is kept below as the
value test's reference, and a counting leaf predicate shows where the
search stops. A tuple proved a value is not entered again, so a value
shared in a DAG costs its nodes, not its unfolded tree.
"""

import pytest
from test_free_vars_memo import FUEL, _programs

from tamc import calculi
from tamc.analysis import family_tuple_explosion, tuple_explosion_nf_size
from tamc.calculi import StepLabel, Stepped, ValueOutcome, normalize_source, step_int, step_source, step_target
from tamc.syntax import parse
from tamc.terms import (
    Abs,
    App,
    Closure,
    PVar,
    Proj,
    TClosure,
    Tuple,
    ValBag,
    Var,
    VarBag,
    _walk,
    decompose,
    fold,
    is_value_int,
    is_value_source,
    is_value_target,
    shared_size_source,
)
from tamc.transforms import closure_convert, wrap

X = Var("x")
UNIT = Tuple(())


def ref_tuple_of_values(u, parts) -> bool:
    """fold's node rule for values: a tuple of values is one, an application or projection never."""
    return type(u) is Tuple and all(parts)


def ref_is_value(t) -> bool:
    """The value test as it was: fold every node outside binders."""
    return fold(t, lambda u: type(u) in (Abs, Closure, TClosure), ref_tuple_of_values, {})


CALCULI = {
    "source": (lambda t: t, step_source, is_value_source, Abs),
    "int": (wrap, step_int, is_value_int, Closure),
    "target": (closure_convert, step_target, is_value_target, TClosure),
}


@pytest.mark.parametrize("calculus", sorted(CALCULI))
def test_value_tests_match_the_fold_on_every_reduct(calculus):
    translate, step, is_value, leaf_type = CALCULI[calculus]

    def is_leaf_value(u):
        return type(u) is leaf_type

    checked = values = 0
    for name, program in _programs():
        t = translate(program)
        seen: dict = {}  # holds every node it keys, so no id is reused
        for _ in range(FUEL + 1):
            # every node outside binders, value-bag entries included
            for u in _walk(t, False):
                if id(u) in seen:
                    continue
                seen[id(u)] = u
                want = ref_is_value(u)
                assert is_value(u) is want, name
                checked += 1
                values += want
            r = step(t)
            assert (decompose(t, is_leaf_value) is None) is (type(r) is ValueOutcome), name
            if type(r) is not Stepped:
                break
            t = r.term
    # neither answer is vacuous
    assert 0 < values < checked


FOREIGN = {
    "variable": X,
    "indexed variable": PVar("l", 1),
    "closure with a variable bag": wrap(Abs((Var("a"),), X)),
    "closure with a value bag": Closure((Var("z"),), (), Var("z"), ValBag((UNIT,))),
    "target closure": TClosure(0, 1, PVar("s", 1), ValBag(())),
    "not a term": "x",
}
PLACEMENTS = {
    "alone": lambda n: n,
    "in a tuple": lambda n: Tuple((UNIT, n, Abs((), UNIT))),
    "applied": lambda n: App(n, Tuple((UNIT,))),
    "as an argument": lambda n: App(Abs((X,), X), Tuple((n,))),
    "projected": lambda n: Proj(1, Tuple((n,))),
    "nested in tuples": lambda n: Tuple((Tuple((n, UNIT)),)),
}


@pytest.mark.parametrize("where", sorted(PLACEMENTS))
@pytest.mark.parametrize("kind", sorted(FOREIGN))
def test_value_tests_match_the_fold_on_foreign_nodes(kind, where):
    t = PLACEMENTS[where](FOREIGN[kind])
    want = ref_is_value(t)
    assert is_value_source(t) is is_value_int(t) is is_value_target(t) is want


def test_a_closure_with_a_variable_bag_is_a_value():
    c = FOREIGN["closure with a variable bag"]
    assert type(c.bag) is VarBag
    assert is_value_int(c) and is_value_int(Tuple((c, UNIT)))


@pytest.mark.parametrize("shape", ["deep", "wide"])
def test_the_value_test_keeps_its_own_stack(shape):
    n = 100_000
    if shape == "deep":
        t = UNIT
        for _ in range(n):
            t = Tuple((t,))
    else:
        t = Tuple(tuple(Abs((), UNIT) for _ in range(n)))
    assert is_value_source(t)
    # a stuck leaf at the far end of the search
    if shape == "deep":
        bad = X
        for _ in range(n):
            bad = Tuple((bad, UNIT))
    else:
        bad = Tuple((X,) + t.items)
    assert not is_value_source(bad)


def _counting_stepper():
    calls = [0]

    def counting(u):
        calls[0] += 1
        return type(u) is Abs

    return calculi._stepper(counting, calculi._source_root), calls


REDEX = "(fun(x) -> x) <<>>"


def test_normalizing_n_redexes_tests_each_leaf_once():
    step, calls = _counting_stepper()
    n = 1_000
    r = calculi._normalize(step, parse("<" + ", ".join([REDEX] * n) + ">"), 2 * n)
    assert type(r.final) is ValueOutcome and len(r.labels) == n
    assert r.term == Tuple((Tuple(()),) * n)
    # the fold that marked values at every step made 500,500 calls here
    assert calls[0] <= 2 * n


@pytest.mark.parametrize("n", [5, 5_000])
def test_one_step_never_looks_left_of_the_redex(n):
    step, calls = _counting_stepper()
    # distinct abstractions, so that no memo could answer for them
    left = Tuple(tuple(Abs((Var(f"x{k}"),), Var(f"x{k}")) for k in range(n)))
    r = step(Tuple((left, parse(REDEX))))
    assert type(r) is Stepped and r.term.items[0] is left and r.term.items[1] == UNIT
    # the redex's abstraction only, however long the tuple to its left
    assert calls[0] == 1


def _shared_pairs(depth):
    """V_0 = fun() -> <>, V_k = <V_(k-1), V_(k-1)>: depth + 1 nodes, 2**depth leaves unfolded."""
    v = Abs((), UNIT)
    for _ in range(depth):
        v = Tuple((v, v))
    return v


def test_a_shared_value_is_proved_once():
    v = _shared_pairs(60)
    seen = []

    def is_abs(u):
        seen.append(u)
        assert len(seen) <= 3, "a shared value is proved again"
        return type(u) is Abs

    assert decompose(v, is_abs) is None
    # the one abstraction, from each side of the deepest pair
    assert len(seen) == 2
    assert is_value_source(v) and is_value_int(Tuple((v, v))) and not is_value_target(Tuple((X, v, v)))
    seen.clear()
    r = calculi._stepper(is_abs, calculi._source_root)(App(Abs((X,), X), Tuple((v,))))
    # and then the function
    assert type(r) is Stepped and r.term is v and len(seen) == 3


ROOTS = {"source": calculi._source_root, "int": calculi._int_root, "target": calculi._target_root}


@pytest.mark.parametrize("calculus", sorted(CALCULI))
def test_the_tuple_explosion_normalizes_in_n_steps(calculus):
    # substitution shares the argument, so after k steps the next one
    # tests a value of 2**k leaves folded into k + 1 nodes
    translate, _, _, leaf_type = CALCULI[calculus]
    n = 40
    calls = []

    def is_leaf_value(u):
        calls.append(u)
        assert len(calls) <= 4 * n, "a shared value is proved again"
        return type(u) is leaf_type

    step = calculi._stepper(is_leaf_value, ROOTS[calculus])
    r = calculi._normalize(step, translate(family_tuple_explosion(n)), 2 * n)
    assert type(r.final) is ValueOutcome and r.labels == (StepLabel.BETA,) * n
    if calculus == "source":
        assert shared_size_source(r.term) == tuple_explosion_nf_size(n)
        assert len(normalize_source(family_tuple_explosion(n)).labels) == n
