"""Alpha equality keeps its own stack; the recursive comparison is the reference.

`terms.alpha_eq_source` used to call itself once per level: a
`_Binds` object per scope held a copy of the enclosing name-to-level
map, and the methods of one `_Alpha` object compared two terms and
their variables, tracking the lowest binder level a variable matched.
That version is kept below as the reference. The loop must give the
same verdict on every clause (c) pair of `bisim_check` (the naming of
each target reduct against the intermediate reduct) along the fuel-200
trajectories of the corpus and of 300 generated programs, with a memo
shared per trajectory and without one, and must fill that memo with
the same pairs. It must also agree on random open terms against
binder-renamed copies and single-node mutants, in both calculi, and
on hand-built ill-formed closures.

A failing comparison may stop at another first mismatch than the
reference did, so only verdicts are compared there, not memos.
"""

from itertools import count
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_properties import open_terms

from tamc.bisim import _interp_trajectory
from tamc.calculi import step_int, step_target
from tamc.generate import GenConfig, gen_corpus
from tamc.syntax import parse
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
    VarBag,
    alpha_eq_source,
)
from tamc.transforms import FreshSupply, closure_convert, naming, wrap

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FUEL = 200


class _Binds:
    """On-the-fly de Bruijn levels for alpha comparison."""

    __slots__ = ("map", "next")

    def __init__(self):
        self.map: dict[str, int] = {}
        self.next = 0

    def child(self, names):
        c = _Binds.__new__(_Binds)
        c.map = dict(self.map)
        c.next = self.next
        for n in names:
            c.map[n.name] = c.next
            c.next += 1
        return c


class _Alpha:
    """One alpha comparison: its memo and its low-water binder level."""

    __slots__ = ("memo", "low")

    def __init__(self, memo):
        self.memo = memo
        self.low = 0

    def var(self, x, y, ma, mb):
        ix = ma.map.get(x.name)
        iy = mb.map.get(y.name)
        if ix is None and iy is None:
            self.low = -1
            return x.name == y.name
        if ix is None or ix != iy:
            return False
        if ix < self.low:
            self.low = ix
        return True

    def go(self, a, b, ma, mb):
        if type(a) is Var:
            return type(b) is Var and self.var(a, b, ma, mb)
        memo = self.memo
        if memo is not None and (id(a), id(b)) in memo:
            return True
        outer, self.low = self.low, ma.next
        go = self.go
        match a, b:
            case Abs(pa, ba), Abs(pb, bb):
                eq = len(pa) == len(pb) and go(ba, bb, ma.child(pa), mb.child(pb))
            case Closure(w1, p1, b1, g1), Closure(w2, p2, b2, g2):
                eq = len(w1) == len(w2) and len(p1) == len(p2) and go(b1, b2, ma.child(w1 + p1), mb.child(w2 + p2))
                if eq:
                    match g1, g2:
                        case VarBag(v1), VarBag(v2):
                            eq = len(v1) == len(v2) and all(self.var(p, q, ma, mb) for p, q in zip(v1, v2))
                        case ValBag(v1), ValBag(v2):
                            eq = len(v1) == len(v2) and all(go(p, q, ma, mb) for p, q in zip(v1, v2))
                        case _:
                            eq = False
            case App(f1, a1), App(f2, a2):
                eq = go(f1, f2, ma, mb) and go(a1, a2, ma, mb)
            case Proj(i, t1), Proj(j, t2):
                eq = i == j and go(t1, t2, ma, mb)
            case Tuple(xs), Tuple(ys):
                eq = len(xs) == len(ys) and all(go(p, q, ma, mb) for p, q in zip(xs, ys))
            case _:
                eq = False
        if eq and memo is not None and self.low >= ma.next:
            memo[(id(a), id(b))] = (a, b)
        self.low = min(self.low, outer)
        return eq


def alpha_eq_reference(a, b, memo=None) -> bool:
    return _Alpha(memo).go(a, b, _Binds(), _Binds())


def _agree(a, b) -> bool:
    """The verdict on a and b, the same from both versions, with and without a memo."""
    verdict = alpha_eq_reference(a, b)
    assert alpha_eq_source(a, b) == verdict, (a, b)
    assert alpha_eq_source(a, b, {}) == verdict, (a, b)
    return verdict


def _programs():
    out = [(p.name, parse(p.read_text())) for p in sorted(CORPUS.glob("*.lam"))]
    out += [(f"generated term {k}", t) for k, t in enumerate(gen_corpus(GenConfig(seed=0), 300))]
    return out


def test_clause_c_verdicts_and_memos_match_the_reference_along_trajectories():
    programs = _programs()
    assert len(programs) == 318
    pairs = 0
    for label, u in programs:
        i_terms = _interp_trajectory(step_int, wrap(u), FUEL)[0]
        t_terms = _interp_trajectory(step_target, closure_convert(u), FUEL)[0]
        supply, naming_memo = FreshSupply(), {}
        memo, reference_memo = {}, {}
        for k, (it, tt) in enumerate(zip(i_terms, t_terms)):
            named = naming(tt, (), (), supply, naming_memo)
            assert alpha_eq_reference(named, it, reference_memo), (label, k)
            assert alpha_eq_source(named, it, memo), (label, k)
            assert alpha_eq_source(named, it), (label, k)
            pairs += 1
        assert memo.keys() == reference_memo.keys(), label
        assert all(memo[key][0] is a and memo[key][1] is b for key, (a, b) in reference_memo.items()), label
    assert pairs > 2 * len(programs)


def _renamed(t, names=None, fresh=None):
    """t with every binder renamed to a fresh name, its bound occurrences with it."""
    names = {} if names is None else names
    fresh = count() if fresh is None else fresh
    match t:
        case Var(name):
            return Var(names.get(name, name))
        case Abs(params, body):
            new = tuple(Var(f"r{next(fresh)}") for _ in params)
            inner = {**names, **{p.name: v.name for p, v in zip(params, new)}}
            return Abs(new, _renamed(body, inner, fresh))
        case App(fn, arg):
            return App(_renamed(fn, names, fresh), _renamed(arg, names, fresh))
        case Proj(i, arg):
            return Proj(i, _renamed(arg, names, fresh))
        case Tuple(items):
            return Tuple(tuple(_renamed(it, names, fresh) for it in items))
    raise TypeError(t)


def _mutants(t):
    """Every copy of t with one node replaced by another node or a wrapper around it."""
    for new in (Var("g"), Var("a"), Tuple(()), Proj(1, t), Abs((Var("a"),), t)):
        yield new
    match t:
        case Abs(params, body):
            yield from (Abs(params, m) for m in _mutants(body))
            yield Abs(params[1:], body)
        case App(fn, arg):
            yield from (App(m, arg) for m in _mutants(fn))
            yield from (App(fn, m) for m in _mutants(arg))
            yield App(arg, fn)
        case Proj(i, arg):
            yield from (Proj(i, m) for m in _mutants(arg))
            yield Proj(i + 1, arg)
        case Tuple(items):
            for k, it in enumerate(items):
                yield from (Tuple(items[:k] + (m,) + items[k + 1 :]) for m in _mutants(it))
            yield Tuple(items[:-1])


@settings(max_examples=150, deadline=None)
@given(open_terms)
def test_verdicts_match_the_reference_on_renamed_copies_and_mutants(t):
    r = _renamed(t)
    assert _agree(t, r) and _agree(wrap(t), wrap(r))
    for m in _mutants(t):
        for a, b in ((t, m), (m, r), (wrap(t), wrap(m)), (wrap(m), wrap(r))):
            _agree(a, b)


X, Y, Q, E = Var("x"), Var("y"), Var("q"), Tuple(())


@pytest.mark.parametrize(
    "a, b",
    [
        # duplicate binders: the later one binds
        (Closure((X, X), (), X, VarBag((Y, Q))), Closure((Y, Q), (), Q, VarBag((Y, Q)))),
        (Closure((X, X), (), X, VarBag((Y, Q))), Closure((Y, Q), (), Y, VarBag((Y, Q)))),
        (Closure((X,), (X,), X, ValBag((E,))), Closure((Q,), (Y,), Y, ValBag((E,)))),
        # a body naming a variable bound outside its closure
        (Abs((X,), Closure((), (Y,), X, ValBag(()))), Abs((Q,), Closure((), (Y,), Q, ValBag(())))),
        (Abs((X,), Closure((), (Y,), X, ValBag(()))), Abs((Q,), Closure((), (Y,), Y, ValBag(())))),
        (Abs((X, Q), Closure((), (), X, ValBag(()))), Abs((Q, X), Closure((), (), X, ValBag(())))),
        # a variable bag against a value bag, and the other way round
        (Closure((X,), (), X, VarBag((X,))), Closure((X,), (), X, ValBag((E,)))),
        (Closure((X,), (), X, ValBag((E,))), Closure((X,), (), X, VarBag((X,)))),
        # bags of unequal lengths, one of them longer than its wrapped list
        (Closure((X,), (), X, ValBag((E,))), Closure((X,), (), X, ValBag((E, E)))),
        (Closure((X,), (), X, VarBag((X, Y))), Closure((X,), (), X, VarBag((X,)))),
        (Closure((X,), (), X, ValBag((E, E))), Closure((Y,), (), Y, ValBag((E, E)))),
    ],
)
def test_verdicts_match_the_reference_on_ill_formed_closures(a, b):
    _agree(a, b)
    _agree(b, a)
    _agree(Abs((X, Y), Tuple((a, b))), Abs((Y, X), Tuple((a, b))))


@pytest.mark.parametrize("t", [TClosure(0, 1, PVar("s", 1), ValBag(())), PVar("l", 1), "a"])
def test_a_node_of_neither_calculus_raises(t):
    # the reference answered False, so such a term was not equal to itself
    with pytest.raises(TypeError):
        alpha_eq_source(t, t)
    with pytest.raises(TypeError):
        alpha_eq_source(Tuple((t,)), Tuple((t,)), {})
    with pytest.raises(TypeError):
        alpha_eq_source(Var("x"), t)


def test_nodes_of_different_kinds_are_unequal():
    kinds = [X, Abs((X,), X), App(X, X), Proj(1, X), Tuple((X,)), Closure((), (X,), X, ValBag(()))]
    for a in kinds:
        for b in kinds:
            assert alpha_eq_source(a, b) == (a is b), (a, b)
