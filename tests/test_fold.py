"""`terms.fold` and the leaf rules of the passes built on it.

fold returns an untouched application, projection or tuple as the
node itself, calls leaf in left-to-right pre-order and memoizes every
node but the variables. Each leaf rule ends in a TypeError for a node
or bag of no calculus it reads; before, a bag of the other calculus
left a local unbound. The remaining tests pin three rules added with
the fold: unwrap substitutes nothing for a variable bag that repeats
the wrapped list, a target projection index below 1 is not well
formed, and the source readback still reports a broken machine value.
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
