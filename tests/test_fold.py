"""`terms.fold` and the leaf rules of the passes built on it.

fold returns an untouched application, projection or tuple as the
node itself, calls leaf in left-to-right pre-order and memoizes every
node but the variables. A leaf that answers `Parts` has its terms
folded under the leaf rule and memo the `Parts` names, still in
pre-order, and its result built from theirs, possibly through a further
`Parts`, and memoized in the memo of the context that asked. Each leaf
rule ends in a TypeError for a node or bag of no calculus it reads;
before, a bag of the other calculus left a local unbound. The remaining
tests pin three rules added with the fold: unwrap substitutes nothing
for a variable bag that repeats the wrapped list, a target projection
index below 1 is not well formed, and the source readback still reports
a broken machine value.
"""

from pathlib import Path

import pytest

from tamc import transforms
from tamc.machine_common import MachineInvariantError
from tamc.machine_source import SClos, STup, readback_value
from tamc.machine_target import init_ttam
from tamc.syntax import parse
from tamc.terms import (
    Abs,
    App,
    Closure,
    Parts,
    PVar,
    PVarBag,
    Proj,
    TClosure,
    Tuple,
    ValBag,
    Var,
    VarBag,
    fold,
    free_vars,
    well_formed_target,
)
from tamc.transforms import FreshSupply, eliminate_names, naming, unwrap, wrap

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_fold_returns_an_untouched_node_itself_and_calls_leaves_in_pre_order():
    x, y = Var("x"), Var("y")
    t = App(Tuple((x, Proj(1, y))), Abs((x,), x))
    seen = []

    def leaf(u):
        seen.append(u)
        return u

    assert fold(t, leaf) is t
    assert seen == [x, y, t.arg]
    renamed = fold(t, lambda u: Var("z") if u == y else u)
    assert renamed == App(Tuple((x, Proj(1, Var("z")))), t.arg)
    assert renamed.arg is t.arg and renamed.fn.items[0] is x


def test_fold_memo_holds_every_node_but_the_variables():
    x = Var("x")
    shared = Tuple((x,))
    t = App(shared, Proj(1, shared))
    memo: dict = {}
    size = fold(t, lambda u: 1, lambda u, parts: 1 + sum(parts), memo)
    assert size == 6
    assert {id(u) for u, _ in memo.values()} == {id(t), id(shared), id(t.arg)}


X, Y, Z, W = Var("x"), Var("y"), Var("z"), Var("w")
INNER = App(Y, Proj(1, Z))  # the abstraction's body, folded under rule b
OTHER = Tuple((X, Y))  # a second term the abstraction asks for
NODE = lambda u, parts: (type(u).__name__, parts)


def _parts_fold(memo_a: dict, memo_b: dict, chained: bool):
    """Fold <fun(x) -> y (pi 1 z), w> under rule a; return (the term, the result, the leaf calls).

    The abstraction answers Parts: its body and <x, y> under rule b and
    memo_b, or, chained, its body under rule b and memo_b and then, from
    that Parts' build, <x, y> under rule a and memo_a.
    """
    calls = []

    def rule(name):
        def leaf(u):
            calls.append((name, u))
            if type(u) is Var:
                return (name, u.name)
            if chained:
                return Parts((u.body,), leaf_b, memo_b, lambda body: Parts(
                    (OTHER,), leaf_a, memo_a, lambda other: ("abs", body, other)
                ))
            return Parts((u.body, OTHER), leaf_b, memo_b, lambda body, other: ("abs", body, other))

        return leaf

    leaf_a, leaf_b = rule("a"), rule("b")
    t = Tuple((Abs((X,), INNER), W))
    return t, fold(t, leaf_a, NODE, memo_a), calls


BODY = ("App", [("b", "y"), ("Proj", [("b", "z")])])


@pytest.mark.parametrize("chained", [False, True], ids=["one-parts", "chained"])
def test_each_part_is_folded_under_its_own_leaf_rule_and_memo_in_pre_order(chained):
    memo_a, memo_b = {}, {}
    t, got, calls = _parts_fold(memo_a, memo_b, chained)
    other = "a" if chained else "b"  # the rule <x, y> was folded under
    assert got == ("Tuple", [("abs", BODY, ("Tuple", [(other, "x"), (other, "y")])), ("a", "w")])
    assert calls == [("a", t.items[0]), ("b", Y), ("b", Z), (other, X), (other, Y), ("a", W)]
    # the abstraction is memoized where it was asked for, each part's nodes where they were folded
    parts_a, parts_b = ({id(OTHER)}, set()) if chained else (set(), {id(OTHER)})
    assert {id(u) for u, _ in memo_a.values()} == {id(t), id(t.items[0])} | parts_a
    assert {id(u) for u, _ in memo_b.values()} == {id(INNER), id(INNER.arg)} | parts_b
    assert memo_a[id(t.items[0])][1] == got[1][0]


def test_a_memo_hit_on_a_part_root_skips_the_part():
    memo_b = {id(INNER): (INNER, "cached")}
    _, got, calls = _parts_fold({}, memo_b, chained=False)
    assert got[1][0] == ("abs", "cached", ("Tuple", [("b", "x"), ("b", "y")]))
    assert [rule for rule, _ in calls] == ["a", "b", "b", "a"]


def test_a_parts_without_a_leaf_folds_under_the_rule_that_answered():
    calls = []

    def rule(name, inner):
        def leaf(u):
            calls.append(name)
            if type(u) is Var:
                return u.name
            return Parts((u.body,), inner, None, lambda body: f"{name}({body})")

        return leaf

    t = Tuple((Abs((X,), Abs((Y,), Z)), W))
    assert fold(t, rule("a", rule("b", None)), NODE) == ("Tuple", ["a(b(z))", "w"])
    assert calls == ["a", "b", "b", "a"]


def test_parts_with_no_terms_is_built_at_once():
    t = Tuple((Abs((), X), W))
    leaf = lambda u: Parts((), None, None, lambda: "built") if type(u) is Abs else u.name
    assert fold(t, leaf, NODE) == ("Tuple", ["built", "w"])


@pytest.mark.parametrize(
    "call",
    [
        lambda: free_vars(Closure((), (), Tuple(()), PVarBag((PVar("l", 1),)))),
        lambda: unwrap(Closure((), (), Tuple(()), PVarBag((PVar("l", 1),)))),
        lambda: eliminate_names(Closure((), (), Tuple(()), PVarBag((PVar("l", 1),))), (), ()),
        lambda: naming(TClosure(1, 0, Tuple(()), VarBag((Var("x"),))), (), (), FreshSupply()),
    ],
    ids=["free_vars", "unwrap", "eliminate_names", "naming"],
)
def test_a_bag_of_the_other_calculus_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_unwrap_substitutes_nothing_for_a_bag_that_repeats_the_wrapped_list(monkeypatch):
    def refuse(t, mapping):
        raise AssertionError("substituted for a bag that repeats the wrapped list")

    monkeypatch.setattr(transforms, "subst_source_any", refuse)
    for p in sorted(CORPUS.glob("*.lam")):
        u = parse(p.read_text())
        assert unwrap(wrap(u)) == u, p.name
    # a bag that renames still substitutes
    with pytest.raises(AssertionError):
        unwrap(Closure((Var("a"),), (), Var("a"), VarBag((Var("b"),))))


@pytest.mark.parametrize(
    "t",
    [
        PVar("l", 0),
        Tuple((PVar("s", 0),)),
        TClosure(1, 0, PVar("l", 1), PVarBag((PVar("l", 0),))),
        TClosure(0, 1, PVar("s", 0), ValBag(())),
    ],
    ids=["top", "tuple", "bag", "body"],
)
def test_a_projection_index_below_one_is_not_well_formed(t):
    assert well_formed_target(t) is False


def test_init_rejects_a_projection_index_of_zero():
    with pytest.raises(ValueError, match="initial term must be well formed"):
        init_ttam(PVar("l", 0))


def test_a_broken_machine_value_is_an_invariant_error():
    ok = SClos(Abs((), Tuple(())), ())
    for value in (STup((ok, "junk")), SClos(Abs((), Var("x")), ((Var("x"), "junk"),))):
        with pytest.raises(MachineInvariantError):
            readback_value(value)
