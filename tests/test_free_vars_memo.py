"""The bottom-up, identity-memoized free-variable pass.

`free_vars` computes each node's free variables once from its
children's, and `wrap` and `well_formed_int` share one memo across all
the closures of a term. The recursive walk below, which re-walks every
body under a growing set of bound variables, is the oracle: the two
must agree as tuples, first-occurrence order included, on every term
the workbench builds. The mutants check that a memo shared across
closures cannot carry one closure's binders into another's check.
"""

from pathlib import Path

import pytest

from tamc.calculi import Stepped, step_int, step_source
from tamc.generate import GenConfig, gen_corpus
from tamc.machine_int import init_itam
from tamc.syntax import parse
from tamc.terms import (
    Abs,
    App,
    Closure,
    Proj,
    Tuple,
    ValBag,
    Var,
    VarBag,
    closed_int,
    free_vars,
    well_formed_int,
)
from tamc.transforms import wrap

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FUEL = 200


def oracle_free_vars(t):
    """The left-to-right walk free_vars replaced, kept as the reference."""
    seen: dict[Var, None] = {}

    def note(v, bound):
        if v not in bound and v not in seen:
            seen[v] = None

    def walk(t, bound):
        match t:
            case Var(_):
                note(t, bound)
            case Abs(params, body):
                walk(body, bound | set(params))
            case App(fn, arg):
                walk(fn, bound)
                walk(arg, bound)
            case Proj(_, arg):
                walk(arg, bound)
            case Tuple(items):
                for it in items:
                    walk(it, bound)
            case Closure(wrapped, params, body, bag):
                walk(body, bound | set(wrapped) | set(params))
                match bag:
                    case VarBag(vs):
                        for v in vs:
                            note(v, bound)
                    case ValBag(vals):
                        for v in vals:
                            walk(v, bound)
            case _:
                raise TypeError(f"term has no named variables: {t!r}")

    walk(t, frozenset())
    return tuple(seen)


def _trajectory(step, t):
    out = [t]
    for _ in range(FUEL):
        r = step(t)
        if not isinstance(r, Stepped):
            break
        t = r.term
        out.append(t)
    return out


def _programs():
    progs = [(p.name, parse(p.read_text())) for p in sorted(CORPUS.glob("*.lam"))]
    progs += [(f"generated term {k}", t) for k, t in enumerate(gen_corpus(GenConfig(seed=0), 500))]
    return progs


def _subterms(t):
    """Every node of t reachable through constructors, each once by identity."""
    seen = {}
    todo = [t]
    while todo:
        u = todo.pop()
        if id(u) in seen:
            continue
        seen[id(u)] = u
        match u:
            case Abs(_, body):
                todo.append(body)
            case App(fn, arg):
                todo += (fn, arg)
            case Proj(_, arg):
                todo.append(arg)
            case Tuple(items):
                todo += items
            case Closure(_, _, body, bag):
                todo.append(body)
                if isinstance(bag, ValBag):
                    todo += bag.vals
    return list(seen.values())


def test_memoized_free_vars_equals_the_walk_on_programs_and_reducts():
    programs = _programs()
    assert len(programs) == 518
    checked = 0
    for name, u in programs:
        terms = _trajectory(step_source, u) + _trajectory(step_int, wrap(u))
        for k, t in enumerate(terms):
            assert free_vars(t) == oracle_free_vars(t), (name, k)
            checked += 1
    assert checked > 2 * len(programs)


def test_a_shared_memo_gives_every_subterm_its_own_free_vars():
    # wrap and well_formed_int ask one memo for nested bodies in turn;
    # each answer must be the one a fresh walk of that body gives
    for name, u in _programs():
        for t in (u, wrap(u)):
            memo = {}
            for sub in _subterms(t):
                assert free_vars(sub, memo) == oracle_free_vars(sub), name


def test_wrap_wraps_each_abstraction_over_the_walks_free_vars():
    def check(s, w):
        match s, w:
            case Abs(params, body), Closure(wrapped, ps, wbody, bag):
                assert wrapped == oracle_free_vars(s) and ps == params
                assert bag == (VarBag(wrapped) if wrapped else ValBag(()))
                check(body, wbody)
            case App(f, a), App(wf, wa):
                check(f, wf)
                check(a, wa)
            case Proj(i, a), Proj(j, wa):
                assert i == j
                check(a, wa)
            case Tuple(items), Tuple(witems):
                assert len(items) == len(witems)
                for it, wit in zip(items, witems):
                    check(it, wit)
            case _:
                assert isinstance(s, Var) and s is w

    for name, u in _programs():
        check(u, wrap(u))


def test_order_is_first_occurrence_body_before_bag():
    x, y, z = Var("x"), Var("y"), Var("z")
    t = App(Tuple((y, Abs((y,), App(z, y)), x)), App(x, z))
    assert free_vars(t) == oracle_free_vars(t) == (y, z, x)
    c = Closure((x,), (), App(x, x), VarBag((z,)))
    assert free_vars(Tuple((y, c))) == (y, z)
    body = App(x, Var("w"))
    c2 = Closure((x,), (Var("w"),), body, ValBag((Tuple((z, y, z)),)))
    assert free_vars(c2) == oracle_free_vars(c2) == (z, y)


def test_malformed_closures_keep_the_walks_order_and_drop_repeats():
    # in a well-formed closure the body has no free variables of its
    # own, so only malformed ones show the body-before-bag order
    x, y, z = Var("x"), Var("y"), Var("z")
    for t in (
        Closure((x,), (), App(y, x), VarBag((z,))),
        Closure((x,), (), App(y, x), ValBag((Tuple((z, y)),))),
        Closure((x,), (y,), Tuple((z, x, y)), VarBag((z, x, z))),
        Closure((x, x), (), Tuple((y, x)), VarBag((z, z, y))),
        Closure((x,), (), x, VarBag((z, y, z))),
        Tuple((Closure((), (x,), App(x, z), VarBag(())), x, z)),
    ):
        assert free_vars(t) == oracle_free_vars(t), t
    assert free_vars(Closure((x,), (), App(y, x), VarBag((z,)))) == (y, z)
    assert free_vars(Closure((x,), (), y, VarBag((z, z, y)))) == (y, z)
    assert free_vars(Closure((x,), (), x, VarBag((z, z)))) == (z,)


def test_shared_body_under_two_closures_with_different_binders():
    # one body object, reachable under a closure that binds x and under
    # one that does not: a memo of "checked bodies" would let the second pass
    x, y = Var("x"), Var("y")
    body = App(x, y)
    binds_x = Closure((), (x, y), body, VarBag(()))
    misses_x = Closure((), (y,), body, VarBag(()))
    assert well_formed_int(Tuple((binds_x, binds_x)))
    assert not well_formed_int(Tuple((binds_x, misses_x)))
    assert not well_formed_int(Tuple((misses_x, binds_x)))
    with pytest.raises(ValueError, match="well formed"):
        init_itam(App(binds_x, misses_x))


def test_unbound_variable_three_closures_deep():
    good = wrap(parse("fun(x) -> fun(y) -> fun(z) -> x y z"))
    assert well_formed_int(good) and closed_int(good)
    init_itam(good)
    # the innermost closure's body mentions u, which no closure binds
    x, y, z, u = Var("x"), Var("y"), Var("z"), Var("u")
    inner = Closure((x, y), (z,), App(App(x, u), z), VarBag((x, y)))
    middle = Closure((x,), (y,), inner, VarBag((x,)))
    outer = Closure((), (x,), middle, ValBag(()))
    assert not well_formed_int(outer)
    assert not closed_int(outer)
    assert free_vars(outer) == oracle_free_vars(outer) == (u,)
    with pytest.raises(ValueError, match="well formed"):
        init_itam(outer)
