"""The stepper, the source substitution and the printers are folds.

`calculi._stepper`, `calculi.subst_source_any` and `syntax._print`
used to recurse through every node: the stepper through `go` and
`descend`, with a rebuild closure and a `Stepped` per level and a
recursive value test, the substitution through its own App, Proj and
Tuple cases, and the printers by threading a context down the term.
Those bodies are kept below as the reference. On every reduct of the
corpus and of 500 generated programs at fuel 200, in all three
calculi, each step must give the same outcome, label, reduct, clash
and blocker, and each printer the same text; the substitution must
give the same term, minted binder names included, on random open
terms, and reject the same foreign nodes.

A substitution that meets a node of another calculus raises
`TypeError` in both versions, but not always with the same message:
the reference rejected it from its first walk over the whole term,
the fold from the leaf rule that reaches it. So only the class is
compared there.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from test_free_var_names_oracle import FOREIGN, PLACEMENTS, X
from test_free_vars_memo import FUEL, _programs
from test_properties import open_terms, terms_at

from tamc import calculi
from tamc.calculi import (
    ClashKind,
    ClashOutcome,
    OpenStuckOutcome,
    StepLabel,
    Stepped,
    ValueOutcome,
    step_int,
    step_source,
    step_target,
    subst_source,
    subst_source_any,
)
from tamc.syntax import print_int, print_source, print_target
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
    free_vars,
    reject_closures,
)
from tamc.transforms import closure_convert, wrap

_VALUE = ValueOutcome()


def ref_stepper(is_abs_value, apply_root):
    """The recursive stepper, as it was."""

    def step(t):
        isv_memo: dict = {}

        def isv(u) -> bool:
            cached = isv_memo.get(id(u))
            if cached is not None:
                return cached
            match u:
                case Tuple(items):
                    r = all(isv(it) for it in items)
                case _:
                    r = is_abs_value(u)
            isv_memo[id(u)] = r
            return r

        def descend(child, path, rebuild):
            r = go(child, path)
            if isinstance(r, Stepped):
                return Stepped(r.label, rebuild(r.term))
            return r

        def go(t, path):
            match t:
                case App(fn, arg):
                    if not isv(arg):
                        return descend(arg, path + (1,), lambda a: App(fn, a))
                    if not isv(fn):
                        return descend(fn, path + (0,), lambda f: App(f, arg))
                    if isinstance(fn, Tuple):
                        return ClashOutcome(ClashKind.TUPLE, path)
                    return apply_root(fn, arg, path)
                case Proj(i, arg):
                    if not isv(arg):
                        return descend(arg, path + (0,), lambda a: Proj(i, a))
                    if isinstance(arg, Tuple) and 1 <= i <= len(arg.items):
                        return Stepped(StepLabel.PI, arg.items[i - 1])
                    return ClashOutcome(ClashKind.PROJECTION, path)
                case Tuple(items):
                    for k in range(len(items) - 1, -1, -1):
                        if not isv(items[k]):
                            def rebuild(it, k=k):
                                return Tuple(items[:k] + (it,) + items[k + 1 :])

                            return descend(items[k], path + (k,), rebuild)
                    return _VALUE
            if is_abs_value(t):
                return _VALUE
            return OpenStuckOutcome(t, path)

        return go(t, ())

    return step


def _ref_source_root(fn, arg, path):
    if isinstance(arg, Tuple) and len(arg.items) == len(fn.params):
        return Stepped(StepLabel.BETA, ref_subst_source(fn.body, fn.params, arg.items))
    return ClashOutcome(ClashKind.ABS_OR_CLOSURE, path)


# the closure roots did not change; the source root substitutes with the reference
REF_STEP = {
    "source": ref_stepper(lambda t: isinstance(t, Abs), _ref_source_root),
    "int": ref_stepper(lambda t: isinstance(t, Closure), calculi._int_root),
    "target": ref_stepper(lambda t: isinstance(t, TClosure), calculi._target_root),
}
STEP = {"source": step_source, "int": step_int, "target": step_target}
TRANSLATE = {"source": lambda t: t, "int": wrap, "target": closure_convert}


def ref_subst_source_any(t, mapping: dict):
    """The recursive capture-avoiding substitution, as it was."""
    if not mapping:
        return t
    memo: dict = {}

    def names(u) -> set:
        return {v.name for v in free_vars(u, memo)}

    def go(t, mp, dom):
        if not any(v.name in dom for v in free_vars(t, memo)):
            return t
        match t:
            case Var(_):
                return mp.get(t, t)
            case App(fn, arg):
                return App(go(fn, mp, dom), go(arg, mp, dom))
            case Proj(i, arg):
                return Proj(i, go(arg, mp, dom))
            case Tuple(items):
                return Tuple(tuple(go(it, mp, dom) for it in items))
            case Abs(params, body):
                body_names = names(body)
                live = {v: r for v, r in mp.items() if v not in params and v.name in body_names}
                repl_names = set().union(*(names(r) for r in live.values()))
                if any(p.name in repl_names for p in params):
                    avoid = repl_names | body_names | {p.name for p in params}
                    new_params = []
                    renames = {}
                    for p in params:
                        if p.name in repl_names:
                            fresh = Var(calculi._fresh_name(p.name, avoid))
                            avoid.add(fresh.name)
                            renames[p] = fresh
                            new_params.append(fresh)
                        else:
                            new_params.append(p)
                    live = live | {old: new for old, new in renames.items()}
                    params = tuple(new_params)
                new_dom = frozenset(v.name for v in live)
                return Abs(params, go(body, live, new_dom))
        raise TypeError(f"not a source term: {t!r}")

    out = go(t, dict(mapping), frozenset(v.name for v in mapping))
    for r in mapping.values():
        free_vars(r, memo)
    reject_closures(memo, t)
    return out


def ref_subst_source(t, params: tuple, vals: tuple):
    return ref_subst_source_any(t, dict(zip(params, vals)))


_TOP, _FN, _ARG = 0, 1, 2


def _ref_print(t, ctx: int, leaf) -> str:
    match t:
        case Var(name):
            return name
        case App(fn, arg):
            s = f"{_ref_print(fn, _FN, leaf)} {_ref_print(arg, _ARG, leaf)}"
            return f"({s})" if ctx == _ARG else s
        case Proj(i, arg):
            return f"pi {i} {_ref_print(arg, _ARG, leaf)}"
        case Abs(params, body):
            ps = ", ".join(p.name for p in params)
            s = f"fun({ps}) -> {_ref_print(body, _TOP, leaf)}"
            return s if ctx == _TOP else f"({s})"
        case Tuple(items):
            return "<" + ", ".join(_ref_print(it, _TOP, leaf) for it in items) + ">"
    return leaf(t, ctx)


def _ref_print_bag(bag, leaf) -> str:
    match bag:
        case VarBag(vs):
            return "<" + ", ".join(v.name for v in vs) + ">"
        case PVarBag(ps):
            return "<" + ", ".join(_ref_print(p, _TOP, leaf) for p in ps) + ">"
        case ValBag(vals):
            return "<" + ", ".join(_ref_print(v, _TOP, leaf) for v in vals) + ">"
    raise TypeError(f"not a bag: {bag!r}")


def ref_print_source(t) -> str:
    def leaf(t, ctx):
        raise TypeError(f"not a source term: {t!r}")

    return _ref_print(t, _TOP, leaf)


def ref_print_int(t) -> str:
    def leaf(t, ctx):
        match t:
            case Closure(wrapped, params, body, bag):
                ws = ", ".join(v.name for v in wrapped)
                ps = ", ".join(v.name for v in params)
                return f"[({ws}); ({ps}). {_ref_print(body, _TOP, leaf)}]{_ref_print_bag(bag, leaf)}"
        raise TypeError(f"not an intermediate term: {t!r}")

    return _ref_print(t, _TOP, leaf)


def ref_print_target(t) -> str:
    def leaf(t, ctx):
        match t:
            case PVar(base, i):
                s = f"pi{i} {base}"
                return s if ctx == _TOP else f"({s})"
            case TClosure(n, m, body, bag):
                return f"[^{{{n},{m}}} {_ref_print(body, _TOP, leaf)}]{_ref_print_bag(bag, leaf)}"
        raise TypeError(f"not a target term: {t!r}")

    return _ref_print(t, _TOP, leaf)


PRINTERS = {
    "source": (print_source, ref_print_source),
    "int": (print_int, ref_print_int),
    "target": (print_target, ref_print_target),
}


def _same_step(got, want):
    assert type(got) is type(want)
    match want:
        case Stepped(label, term):
            assert got.label is label
            assert got.term == term
        case ClashOutcome(kind, path):
            assert got.kind is kind and got.path == path
        case OpenStuckOutcome(blocker, path):
            assert got.blocker is blocker and got.path == path


@pytest.mark.parametrize("calculus", sorted(STEP))
def test_steps_and_prints_match_the_reference_along_every_trajectory(calculus):
    step, ref_step = STEP[calculus], REF_STEP[calculus]
    show, ref_show = PRINTERS[calculus]
    for name, program in _programs():
        t = TRANSLATE[calculus](program)
        for _ in range(FUEL + 1):
            assert show(t) == ref_show(t), name
            r = step(t)
            _same_step(r, ref_step(t))
            if type(r) is not Stepped:
                break
            t = r.term


def test_the_trajectories_reach_every_outcome():
    # the comparison above would be vacuous for an outcome no trajectory reached
    seen = set()
    for _, t in _programs():
        for calculus in STEP:
            u = TRANSLATE[calculus](t)
            for _ in range(FUEL + 1):
                r = STEP[calculus](u)
                seen.add(type(r).__name__ if type(r) is not ClashOutcome else r.kind)
                if type(r) is not Stepped:
                    break
                u = r.term
    assert seen >= {"Stepped", "ValueOutcome", *ClashKind}


OPEN = {
    "a variable in redex position": App(X, Tuple(())),
    "deep in a tuple": Tuple((Tuple(()), Proj(1, Tuple((X, Var("y")))))),
    "a function applied to it": App(Abs((Var("a"),), Var("a")), Tuple((X,))),
}


@pytest.mark.parametrize("where", sorted(OPEN))
@pytest.mark.parametrize("calculus", ["source", "int"])
def test_open_terms_stick_where_the_reference_sticks(calculus, where):
    t = TRANSLATE[calculus](OPEN[where])
    r = STEP[calculus](t)
    assert type(r) is OpenStuckOutcome
    _same_step(r, REF_STEP[calculus](t))


def test_a_closure_with_a_variable_bag_sticks_where_the_reference_sticks():
    t = Tuple((App(wrap(Abs((Var("a"),), X)), Tuple((Tuple(()),))), Tuple(())))
    r = step_int(t)
    assert type(r) is OpenStuckOutcome and r.path == (0,)
    _same_step(r, REF_STEP["int"](t))


# open terms under binders that the replacements mention, so that about
# a quarter of the examples rename a binder, some of them twice
binders = st.lists(st.sampled_from((Var("a"), Var("b"), Var("a_0"))), unique=True, min_size=1, max_size=2)
under_binders = st.builds(Abs, binders.map(tuple), open_terms)
replacements = st.dictionaries(
    st.sampled_from((Var("g"), Var("h"))),
    st.sampled_from((Var("a"), Var("b"))) | terms_at(("a", "b", "g"), 2),
    min_size=1,
)


@settings(max_examples=300, deadline=None)
@given(open_terms | under_binders, replacements)
def test_subst_source_matches_the_reference_on_open_terms(t, mapping):
    params, vals = tuple(mapping), tuple(mapping.values())
    out, ref = subst_source(t, params, vals), ref_subst_source(t, params, vals)
    assert out == ref
    # a term the substitution leaves alone comes back as itself
    assert (out is t) == (ref is t)


def test_a_minted_binder_name_matches_the_reference():
    a, g = Var("a"), Var("g")
    t = Tuple((Abs((a, Var("a_0")), App(g, a)), g))
    out = subst_source(t, (g,), (a,))
    assert out == ref_subst_source(t, (g,), (a,))
    assert out.items[0].params == (Var("a_1"), Var("a_0"))


def _raises(f, t):
    try:
        return ("value", f(t))
    except TypeError as e:
        return ("TypeError", str(e))


@pytest.mark.parametrize("where", sorted(PLACEMENTS))
@pytest.mark.parametrize("kind", sorted(FOREIGN))
def test_a_foreign_node_raises_what_the_reference_raises(kind, where):
    t = PLACEMENTS[where](FOREIGN[kind])
    with pytest.raises(TypeError):
        ref_subst_source_any(t, {X: Tuple(())})
    with pytest.raises(TypeError):
        subst_source_any(t, {X: Tuple(())})
    for show, ref_show in PRINTERS.values():
        assert _raises(show, t) == _raises(ref_show, t)


@pytest.mark.parametrize("kind", sorted(FOREIGN))
def test_a_foreign_replacement_raises_what_the_reference_raises(kind):
    for t in (App(X, Tuple(())), Tuple((X,)), Tuple(())):
        with pytest.raises(TypeError):
            ref_subst_source_any(t, {X: FOREIGN[kind]})
        with pytest.raises(TypeError):
            subst_source_any(t, {X: FOREIGN[kind]})
