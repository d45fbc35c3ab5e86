"""The memos that clause (c) of bisim_check shares across a trajectory.

`bisim._commutation_failures` passes one memo per function to every
unwrap, naming and alpha comparison of one trajectory, and one
FreshSupply to every naming; an unwrapped reduct is compared with ==.
Translating and comparing without a memo is the oracle: these tests
check that the memos never change a verdict or the reduct it names,
that a corrupted or ill-formed closure body cannot hide behind an
earlier hit, and that the memos really share the work.
"""

from pathlib import Path

from tamc import bisim
from tamc.bisim import _commutation_failures, _interp_trajectory, bisim_check
from tamc.calculi import step_int, step_source, step_target
from tamc.generate import GenConfig, gen_corpus
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
    alpha_eq_int,
)
from tamc.transforms import FreshSupply, closure_convert, naming, unwrap, wrap

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
STEP_FUNCTIONS = {"id": "fun(u) -> u", "pi": "fun(u) -> pi 1 <u, u>"}


def church_program(a: int, b: int, g: str) -> str:
    """church(a) applied to church(b), to the step function g and to <>."""

    def church(k: int) -> str:
        body = "x"
        for _ in range(k):
            body = f"f <{body}>"
        return f"fun(f) -> fun(x) -> {body}"

    return f"({church(a)}) <{church(b)}> <{STEP_FUNCTIONS[g]}> <<>>"


def _trajectories(u, fuel):
    """The source, intermediate and target reducts bisim_check compares."""
    return tuple(
        _interp_trajectory(stepf, x, fuel)[0]
        for stepf, x in (
            (step_source, u),
            (step_int, wrap(u)),
            (step_target, closure_convert(u)),
        )
    )


def _programs():
    out = []
    for p in sorted(CORPUS.glob("*.lam")):
        fuel = 500 if p.name == "omega.lam" else bisim.DEFAULT_BISIM_FUEL
        out.append((p.name, parse(p.read_text()), fuel))
    for k, t in enumerate(gen_corpus(GenConfig(seed=0), 500)):
        out.append((f"generated term {k}", t, 1_000))
    for a, b, g in ((3, 3, "id"), (2, 4, "pi")):
        out.append((f"church {a} {b} {g}", parse(church_program(a, b, g)), 10_000))
    return out


def test_memoized_clause_agrees_with_the_oracle():
    programs = _programs()
    assert len(programs) == 520
    for label, u, fuel in programs:
        s_terms, i_terms, t_terms = _trajectories(u, fuel)
        assert _commutation_failures(s_terms, i_terms, t_terms) == _commutation_failures(
            s_terms, i_terms, t_terms, memoize=False
        ), label


def test_memoized_translations_agree_with_fresh_ones_at_every_reduct():
    programs = _programs()
    for label, u, fuel in programs[:18] + programs[-2:]:  # the corpus and Church
        _, i_terms, t_terms = _trajectories(u, fuel)
        unwrap_memo, naming_memo, alpha_memo = {}, {}, {}
        supply = FreshSupply()
        for k, (it, tt) in enumerate(zip(i_terms, t_terms)):
            assert unwrap(it, unwrap_memo) == unwrap(it), (label, k)
            named = naming(tt, (), (), supply, naming_memo)
            assert alpha_eq_int(named, naming(tt, (), (), FreshSupply())), (label, k)
            assert alpha_eq_int(named, it, alpha_memo), (label, k)


# Mutants: reducts from k on hold a corrupted copy of a closure that
# reducts before k share, so the memos have already seen the original.


def _children(t):
    match t:
        case App(fn, arg):
            return (fn, arg)
        case Proj(_, arg):
            return (arg,)
        case Tuple(items):
            return items
        case Closure(_, _, body, bag) | TClosure(_, _, body, bag):
            return (body,) + (bag.vals if isinstance(bag, ValBag) else ())
    return ()


def _depths(t, depth=0, out=None):
    """Every node object of t, with the least depth it occurs at."""
    out = {} if out is None else out
    if id(t) not in out or out[id(t)][1] > depth:
        out[id(t)] = (t, depth)
        for c in _children(t):
            _depths(c, depth + 1, out)
    return out


def _replace(t, old, new, memo=None):
    """t with every occurrence of the object old replaced by new, sharing the rest."""
    memo = {} if memo is None else memo
    if t is old:
        return new
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    match t:
        case App(fn, arg):
            out = App(_replace(fn, old, new, memo), _replace(arg, old, new, memo))
        case Proj(i, arg):
            out = Proj(i, _replace(arg, old, new, memo))
        case Tuple(items):
            out = Tuple(tuple(_replace(it, old, new, memo) for it in items))
        case Closure(w, p, body, bag) | TClosure(w, p, body, bag):
            if isinstance(bag, ValBag):
                bag = ValBag(tuple(_replace(v, old, new, memo) for v in bag.vals))
            out = type(t)(w, p, _replace(body, old, new, memo), bag)
        case _:
            out = t
    if any(a is not b for a, b in zip(_children(out), _children(t))):
        memo[id(t)] = (t, out)
        return out
    memo[id(t)] = (t, t)
    return t


def _shared_closure(terms, kind, min_depth=3):
    """(k, closure) for a closure of reduct k, deep in it, that reduct k - 1 has too."""
    for k in range(len(terms) - 1, 0, -1):
        before = _depths(terms[k - 1])
        for t, depth in _depths(terms[k]).values():
            if type(t) is kind and depth >= min_depth and id(t) in before:
                return k, t
    raise AssertionError("no closure is shared deep between two reducts")


def _deepest_leaf(t, kind):
    """The leaf of type kind at the greatest depth in t."""
    return max(
        ((n, d) for n, d in _depths(t).values() if type(n) is kind), key=lambda nd: nd[1]
    )[0]


def _mutate(terms, k, old, new):
    return terms[:k] + [_replace(t, old, new) for t in terms[k:]]


def _both_paths(s_terms, i_terms, t_terms):
    memoized = _commutation_failures(s_terms, i_terms, t_terms)
    oracle = _commutation_failures(s_terms, i_terms, t_terms, memoize=False)
    assert memoized == oracle
    return memoized


CHURCH = parse(church_program(2, 3, "id"))


def _int_mutant(corrupt):
    s_terms, i_terms, t_terms = _trajectories(CHURCH, 1_000)
    k, c = _shared_closure(i_terms, Closure)
    leaf = _deepest_leaf(c.body, Var)
    body = _replace(c.body, leaf, corrupt(leaf))
    return k, (s_terms, _mutate(i_terms, k, c, Closure(c.wrapped, c.params, body, c.bag)), t_terms)


def test_corrupted_closure_body_in_a_reused_value_is_caught():
    k, trajectories = _int_mutant(lambda leaf: Proj(1, Tuple((leaf,))))
    assert _both_paths(*trajectories) == [
        f"unwrap of intermediate reduct {k} is not source reduct {k}",
        f"naming of target reduct {k} is not intermediate reduct {k}",
    ]


def test_free_variable_in_a_closure_body_is_caught():
    k, trajectories = _int_mutant(lambda leaf: Var("free"))
    assert _both_paths(*trajectories) == [
        f"unwrap of intermediate reduct {k} is not source reduct {k}",
        f"naming of target reduct {k} is not intermediate reduct {k}",
    ]


def test_corrupted_target_closure_body_in_a_reused_value_is_caught():
    s_terms, i_terms, t_terms = _trajectories(CHURCH, 1_000)
    k, c = _shared_closure(t_terms, TClosure)
    leaf = _deepest_leaf(c.body, PVar)
    body = _replace(c.body, leaf, Proj(1, Tuple((leaf,))))
    corrupt = TClosure(c.n_wrapped, c.n_params, body, c.bag)
    assert _both_paths(s_terms, i_terms, _mutate(t_terms, k, c, corrupt)) == [
        f"naming of target reduct {k} is not intermediate reduct {k}"
    ]


def test_bisim_check_reports_a_mutant_reduct(monkeypatch):
    k, trajectories = _int_mutant(lambda leaf: Var("free"))
    real = bisim._interp_trajectory

    def mutated(stepf, t, fuel):
        terms, labels, final = real(stepf, t, fuel)
        return (trajectories[1] if stepf is step_int else terms), labels, final

    monkeypatch.setattr(bisim, "_interp_trajectory", mutated)
    failures = bisim_check(CHURCH, 1_000).failures
    assert f"unwrap of intermediate reduct {k} is not source reduct {k}" in failures
    assert f"naming of target reduct {k} is not intermediate reduct {k}" in failures


def _distinct_nodes(terms):
    seen = {}
    for t in terms:
        _depths(t, 0, seen)
    return len(seen)


def test_memo_misses_stay_within_the_distinct_nodes(monkeypatch):
    memos = {}

    def capture(name):
        fn = getattr(bisim, name)

        def call(*args):
            memos[name] = args[-1]
            return fn(*args)

        return call

    for name in ("unwrap", "naming"):
        monkeypatch.setattr(bisim, name, capture(name))
    u = parse(church_program(3, 3, "id"))
    assert bisim_check(u).ok
    _, i_terms, t_terms = _trajectories(u, bisim.DEFAULT_BISIM_FUEL)
    # one memo entry per miss; naming adds one per distinct closure body
    assert 0 < len(memos["unwrap"]) <= _distinct_nodes(i_terms)
    assert 0 < len(memos["naming"]) <= _distinct_nodes(t_terms)


# The memoized functions on their own.


X, Y, Q = Var("x"), Var("y"), Var("q")


def test_alpha_memo_does_not_carry_a_body_into_another_context():
    # The closure body mentions x from outside: equal under the first pair
    # of binders, not under the second, where x sits at different levels.
    c = Closure((), (), X, ValBag(()))
    memo: dict = {}
    assert alpha_eq_int(Abs((X,), c), Abs((X,), c), memo)
    assert not alpha_eq_int(Abs((X, Q), c), Abs((Q, X), c), memo)
    pair = Tuple((Abs((X,), c), Abs((X, Q), c))), Tuple((Abs((X,), c), Abs((Q, X), c)))
    assert not alpha_eq_int(*pair)
    assert not alpha_eq_int(*pair, {})


def test_alpha_memo_does_not_carry_a_free_name_under_a_binder():
    c = Closure((), (), X, ValBag(()))
    memo: dict = {}
    assert alpha_eq_int(c, c, memo)  # x free on both sides
    assert not alpha_eq_int(Abs((X, Q), c), Abs((Q, X), c), memo)


def test_alpha_memo_remembers_closed_bodies_and_values():
    body = App(Y, Tuple((X,)))
    a = Closure((Y,), (X,), body, ValBag((Closure((), (Q,), Q, ValBag(())),)))
    b = Closure((X,), (Y,), App(X, Tuple((Y,))), a.bag)
    memo: dict = {}
    assert alpha_eq_int(a, b, memo)
    assert (id(a), id(b)) in memo
    swapped = Closure((X,), (Y,), App(Y, Tuple((X,))), a.bag)
    assert not alpha_eq_int(a, swapped, memo)
    assert not alpha_eq_int(a, swapped)


def test_alpha_memo_does_not_remember_a_variable_bag():
    a = Closure((Y,), (), Y, VarBag((X,)))
    b = Closure((Q,), (), Q, VarBag((X,)))
    memo: dict = {}
    assert alpha_eq_int(Abs((X,), a), Abs((X,), b), memo)
    assert (id(a), id(b)) not in memo
    assert not alpha_eq_int(Abs((X, Q), a), Abs((Q, X), b), memo)


def test_unwrap_memo_returns_the_remembered_node():
    inner = Closure((), (Y,), Y, ValBag(()))
    t = App(Closure((X,), (), X, ValBag((inner,))), Tuple((inner,)))
    memo: dict = {}
    out = unwrap(t, memo)
    assert out == unwrap(t)
    assert out.arg.items[0] is unwrap(inner, memo)
    assert len(memo) == 4  # the application, both closures and the tuple


def test_naming_memo_names_a_shared_body_once():
    body = PVar("s", 1)
    one = TClosure(0, 1, body, ValBag(()))
    other_arity = TClosure(1, 1, body, PVarBag((PVar("l", 1),)))
    t = Tuple((one, TClosure(0, 1, body, ValBag(())), other_arity))
    memo: dict = {}
    supply = FreshSupply()
    out = naming(t, (Var("o"),), (), supply, memo)
    assert alpha_eq_int(out, naming(t, (Var("o"),), (), FreshSupply()))
    first, second, third = out.items
    assert first.params == second.params and first.body is second.body
    # another arity gets its own names
    assert third.params != first.params and third.wrapped != ()
    assert third.bag == VarBag((Var("o"),))
    assert supply.counter == 3


def test_naming_memo_keeps_each_context_apart():
    c = TClosure(1, 0, PVar("l", 1), PVarBag((PVar("s", 1),)))
    memo: dict = {}
    supply = FreshSupply()
    a = naming(c, (), (Var("p"),), supply, memo)
    b = naming(c, (), (Var("q"),), supply, memo)
    assert a.bag == VarBag((Var("p"),)) and b.bag == VarBag((Var("q"),))
    assert a.body is b.body
