"""The closure calculi's checks and sizes walk with an explicit stack.

`size_int`, `prime_int`, `norms_target`, `well_formed_int` and
`well_formed_target` used to recurse, each over the same constructors;
they now loop over one pre-order walk. The recursive bodies are kept
below as the reference. On every term the workbench builds, and on
mutants with one fault each, the two must give the same value or both
raise `TypeError`.

The walk reaches a closure before its bag entries and its body, so a
term with two faults may now answer `False` where the recursion raised
`TypeError`; the mutants here carry one fault each, where the order
cannot matter.
"""

import dataclasses
from pathlib import Path

import pytest
from test_free_vars_memo import _trajectory

from tamc.analysis import MACHINES, family_fun_explosion, family_tuple_explosion
from tamc.calculi import step_int, step_target
from tamc.generate import GenConfig, gen_corpus
from tamc.syntax import parse
from tamc.terms import (
    Abs,
    App,
    Closure,
    Proj,
    PVar,
    PVarBag,
    TClosure,
    Tuple,
    ValBag,
    Var,
    VarBag,
    closed_target,
    free_vars,
    is_value_int,
    is_value_target,
    norms_target,
    prime_int,
    size_int,
    well_formed_int,
    well_formed_target,
)
from tamc.transforms import closure_convert, wrap

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def ref_size_int(t) -> int:
    match t:
        case Var() | PVar():
            return 1
        case Closure(wrapped, params, body, bag):
            binders = len(wrapped) + len(params)
        case TClosure(n, m, body, bag):
            binders = n + m
        case App(fn, arg):
            return ref_size_int(fn) + ref_size_int(arg) + 1
        case Proj(_, arg):
            return ref_size_int(arg) + 1
        case Tuple(items):
            return len(items) + sum(ref_size_int(it) for it in items)
        case _:
            raise TypeError(f"not an intermediate or target term: {t!r}")
    extra = sum(ref_size_int(v) for v in bag.vals) if isinstance(bag, ValBag) else 0
    return ref_size_int(body) + binders + extra


def ref_well_formed_int(t) -> bool:
    memo: dict = {}

    def go(t) -> bool:
        match t:
            case Var(_):
                return True
            case Closure(wrapped, params, body, bag):
                names = {v.name for v in wrapped + params}
                if len(names) != len(wrapped) + len(params):
                    return False
                if not all(v.name in names for v in free_vars(body, memo)):
                    return False
                if not go(body):
                    return False
                match bag:
                    case VarBag(vs):
                        return vs == wrapped
                    case ValBag(vals):
                        return len(vals) == len(wrapped) and all(
                            is_value_int(v) and go(v) for v in vals
                        )
            case App(fn, arg):
                return go(fn) and go(arg)
            case Proj(_, arg):
                return go(arg)
            case Tuple(items):
                return all(go(it) for it in items)
        raise TypeError(f"not an intermediate term: {t!r}")

    return go(t)


def ref_prime_int(t) -> bool:
    match t:
        case Var() | PVar():
            return True
        case Closure(_, _, body, bag) | TClosure(_, _, body, bag):
            if isinstance(bag, ValBag) and bag.vals:
                return False
            return ref_prime_int(body)
        case App(fn, arg):
            return ref_prime_int(fn) and ref_prime_int(arg)
        case Proj(_, arg):
            return ref_prime_int(arg)
        case Tuple(items):
            return all(ref_prime_int(it) for it in items)
    raise TypeError(f"not an intermediate or target term: {t!r}")


def ref_norms_target(t) -> tuple[int, int]:
    match t:
        case PVar(base, i):
            return (i, 0) if base == "l" else (0, i)
        case TClosure(_, _, _, bag):
            match bag:
                case PVarBag(ps):
                    pairs = [ref_norms_target(p) for p in ps]
                case ValBag(vals):
                    pairs = [ref_norms_target(v) for v in vals]
            return (
                max((p[0] for p in pairs), default=0),
                max((p[1] for p in pairs), default=0),
            )
        case App(fn, arg):
            l1, s1 = ref_norms_target(fn)
            l2, s2 = ref_norms_target(arg)
            return max(l1, l2), max(s1, s2)
        case Proj(_, arg):
            return ref_norms_target(arg)
        case Tuple(items):
            pairs = [ref_norms_target(it) for it in items]
            return (
                max((p[0] for p in pairs), default=0),
                max((p[1] for p in pairs), default=0),
            )
    raise TypeError(f"not a target term: {t!r}")


def ref_well_formed_target(t) -> bool:
    match t:
        case PVar(_, i):
            return i >= 1
        case TClosure(n, m, body, bag):
            if n < 0 or m < 0:
                return False
            l, s = ref_norms_target(body)
            if l > n or s > m:
                return False
            if not ref_well_formed_target(body):
                return False
            match bag:
                case PVarBag(ps):
                    return len(ps) == n and all(p.index >= 1 for p in ps)
                case ValBag(vals):
                    return len(vals) == n and all(
                        is_value_target(v) and ref_well_formed_target(v) for v in vals
                    )
        case App(fn, arg):
            return ref_well_formed_target(fn) and ref_well_formed_target(arg)
        case Proj(_, arg):
            return ref_well_formed_target(arg)
        case Tuple(items):
            return all(ref_well_formed_target(it) for it in items)
    raise TypeError(f"not a target term: {t!r}")


PASSES = (
    (size_int, ref_size_int),
    (prime_int, ref_prime_int),
    (norms_target, ref_norms_target),
    (well_formed_int, ref_well_formed_int),
    (well_formed_target, ref_well_formed_target),
)


def _outcome(f, t):
    try:
        return f(t)
    except TypeError:
        return TypeError


def _agree(t, where) -> None:
    for walk, ref in PASSES:
        assert _outcome(walk, t) == _outcome(ref, t), (where, walk.__name__, t)


def _programs(count=200):
    progs = [(p.stem, parse(p.read_text())) for p in sorted(CORPUS.glob("*.lam"))]
    progs += [(f"generated term {k}", t) for k, t in enumerate(gen_corpus(GenConfig(seed=0), count))]
    return progs


CALCULI = (("int", wrap, step_int), ("target", closure_convert, step_target))


def _reducts(count=200):
    for name, u in _programs(count):
        for calculus, translate, step in CALCULI:
            for k, t in enumerate(_trajectory(step, translate(u))):
                yield (name, calculus, k), t


def _family_results():
    for build in (family_tuple_explosion, family_fun_explosion):
        for n in (0, 1, 2, 5, 8):
            for machine in ("int", "target"):
                m = MACHINES[machine]
                rec = m.run(build(n))
                yield (build.__name__, n, machine), m.readback(rec.final_state)


def _sites(t, plug):
    """(closure, plug) for every closure in t; plug(u) is t with u in its place."""
    match t:
        case App(fn, arg):
            yield from _sites(fn, lambda u: plug(App(u, arg)))
            yield from _sites(arg, lambda u: plug(App(fn, u)))
        case Proj(i, arg):
            yield from _sites(arg, lambda u: plug(Proj(i, u)))
        case Tuple(items):
            for k, it in enumerate(items):
                yield from _sites(it, lambda u, k=k: plug(Tuple(items[:k] + (u,) + items[k + 1 :])))
        case Closure() | TClosure():
            yield t, plug
            yield from _sites(t.body, lambda u: plug(dataclasses.replace(t, body=u)))
            if isinstance(t.bag, ValBag):
                vals = t.bag.vals
                for k, v in enumerate(vals):
                    yield from _sites(
                        v,
                        lambda u, k=k: plug(
                            dataclasses.replace(t, bag=ValBag(vals[:k] + (u,) + vals[k + 1 :]))
                        ),
                    )


def test_the_passes_match_the_reference_on_every_reduct_and_closure_body():
    checked = 0
    for where, t in _reducts():
        _agree(t, where)
        # a body sees its closure's binders, and the bags of the closures
        # inside it, from outside
        for c, _ in _sites(t, lambda u: u):
            _agree(c.body, (where, "body"))
        checked += 1
    assert checked > 4 * len(_programs())


def test_the_passes_match_the_reference_on_the_explosion_families_results():
    for where, t in _family_results():
        assert well_formed_int(t) if where[2] == "int" else well_formed_target(t), where
        _agree(t, where)


# Values and nodes of the calculi the mutated term does not belong to.
EMPTY = Tuple(())
FOREIGN_TO_INT = (
    PVar("l", 1),
    Abs((), EMPTY),
    TClosure(0, 0, EMPTY, ValBag(())),
)
FOREIGN_TO_TARGET = (
    Var("x"),
    Abs((), EMPTY),
    Closure((), (), EMPTY, ValBag(())),
)


def _bag_entries(bag):
    return bag.vals if isinstance(bag, ValBag) else bag.vars if isinstance(bag, VarBag) else bag.pvars


def _closure_mutants(c):
    """(fault, closure) pairs, each closure c with one fault."""
    foreign = FOREIGN_TO_INT if type(c) is Closure else FOREIGN_TO_TARGET
    for f in foreign:
        yield "foreign node in the body", dataclasses.replace(c, body=App(c.body, f))
        if isinstance(c.bag, ValBag) and c.bag.vals:
            bag = ValBag((f,) + c.bag.vals[1:])
            yield "foreign node in the value bag", dataclasses.replace(c, bag=bag)
    entries = _bag_entries(c.bag)
    if entries:
        short = type(c.bag)(entries[:-1])
        yield "bag one entry short", dataclasses.replace(c, bag=short)
    if isinstance(c.bag, VarBag) and len(entries) > 1:
        # the same variables in another order: the enclosing scope binds them all
        swapped = VarBag(entries[1:] + entries[:1])
        yield "variable bag out of order", dataclasses.replace(c, bag=swapped)
    if type(c) is Closure:
        binders = c.wrapped + c.params
        twice = (binders[0],) if binders else (Var("r"), Var("r"))
        yield "repeated binder", dataclasses.replace(c, params=c.params + twice)
        yield "free variable in the body", dataclasses.replace(c, body=App(c.body, Var("free")))
    else:
        over_l = App(c.body, PVar("l", c.n_wrapped + 1))
        over_s = App(c.body, PVar("s", c.n_params + 1))
        yield "l-norm above n", dataclasses.replace(c, body=over_l)
        yield "s-norm above m", dataclasses.replace(c, body=over_s)
        yield "negative n", dataclasses.replace(c, n_wrapped=-1)
        yield "negative m", dataclasses.replace(c, n_params=-1)


def _mutants(t, calculus):
    for f in FOREIGN_TO_INT if calculus == "int" else FOREIGN_TO_TARGET:
        yield "foreign node at the top", f
        yield "foreign node beside the term", Tuple((t, f))
    for c, plug in _sites(t, lambda u: u):
        for fault, mutant in _closure_mutants(c):
            yield fault, plug(mutant)


def test_the_passes_match_the_reference_on_single_fault_mutants():
    faults: dict = {}
    # every fourth reduct of fewer generated terms keeps the run short;
    # the reducts after a beta hold value bags
    sources = [(where[1], where, t) for where, t in _reducts(50) if where[2] % 4 == 0]
    sources += [(where[2], where, t) for where, t in _family_results() if where[1] <= 2]
    for calculus, where, t in sources:
        assert (well_formed_int if calculus == "int" else well_formed_target)(t), where
        for fault, mutant in _mutants(t, calculus):
            _agree(mutant, (where, fault))
            faults[fault] = faults.get(fault, 0) + 1
    # every fault kind was planted somewhere
    assert set(faults) == {
        "foreign node at the top",
        "foreign node beside the term",
        "foreign node in the body",
        "foreign node in the value bag",
        "bag one entry short",
        "variable bag out of order",
        "repeated binder",
        "free variable in the body",
        "l-norm above n",
        "s-norm above m",
        "negative n",
        "negative m",
    }, faults


@pytest.mark.parametrize(
    "t",
    [
        # bag one entry short and a source node in the body: the bag
        # check at the closure answers before the walk reaches the body
        Closure((Var("a"),), (), App(Var("a"), Abs((), EMPTY)), ValBag(())),
        TClosure(1, 0, App(PVar("l", 1), Abs((), EMPTY)), ValBag(())),
    ],
    ids=["int", "target"],
)
def test_a_closure_is_checked_before_its_body(t):
    check = well_formed_int if type(t) is Closure else well_formed_target
    assert check(t) is False
    with pytest.raises(TypeError):
        (ref_well_formed_int if type(t) is Closure else ref_well_formed_target)(t)


@pytest.mark.parametrize(
    "t",
    [
        PVar("l", -1),
        Tuple((PVar("s", -2),)),
        TClosure(0, 0, EMPTY, PVarBag((PVar("l", -1),))),
        TClosure(1, 1, PVar("s", -1), PVarBag((PVar("l", 1),))),
        TClosure(0, -1, PVar("s", -1), PVarBag(())),
    ],
    ids=["top", "tuple", "bag", "body", "negative arity"],
)
def test_a_lone_index_below_one_gives_the_reference_norms(t):
    # no translation makes such an index; a hand-built term may
    _agree(t, "index below one")


def test_a_projection_beside_an_empty_tuple_is_not_closed():
    # the recursion took 0 for the empty tuple's norms and returned
    # (0, 0) here; the walk takes the largest index that occurs
    t = Tuple((PVar("l", -1), EMPTY))
    assert norms_target(t) == (-1, 0)
    assert ref_norms_target(t) == (0, 0)
    assert not closed_target(t)
