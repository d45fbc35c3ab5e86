"""Substitutions and small-step semantics for the three calculi.

Reduction is weak and deterministic, searching for the redex right to
left: in an application the argument is evaluated before the function,
and tuple items are evaluated last to first. A step either fires one
of the two root rules (beta or projection, reported as the step label),
or classifies the unique stuck position:

* Projection: a projection applied to a non-tuple value or out of range,
* AbstractionOrClosure: a function value applied to a non-tuple or to a
  tuple of the wrong length,
* Tuple: a tuple value in function position.

Clash reports carry the redex path as child indices from the root
(App: 0 function side, 1 argument side; Proj: 0; Tuple: 0-based item).
Open terms are not errors: an unbound variable in redex position (or,
in the intermediate calculus, a closure whose bag still lists
variables) reports OpenStuck.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

from .terms import (
    Abs,
    App,
    Closure,
    IntTerm,
    Parts,
    PVar,
    PVarBag,
    Proj,
    SourceTerm,
    TargetTerm,
    TClosure,
    Tuple,
    ValBag,
    Var,
    VarBag,
    decompose,
    fold,
    free_vars,
    reject_closures,
)

DEFAULT_FUEL = 100_000


class StepLabel(Enum):
    BETA = "beta"
    PI = "pi"


class ClashKind(Enum):
    PROJECTION = "projection"
    ABS_OR_CLOSURE = "abstraction-or-closure"
    TUPLE = "tuple"


@dataclass(frozen=True, slots=True)
class Stepped:
    label: StepLabel
    term: object


@dataclass(frozen=True, slots=True)
class ValueOutcome:
    pass


@dataclass(frozen=True, slots=True)
class ClashOutcome:
    kind: ClashKind
    path: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class OpenStuckOutcome:
    blocker: object
    path: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class FuelExhausted:
    pass


@dataclass(frozen=True, slots=True)
class NormalizeResult:
    labels: tuple[StepLabel, ...]
    term: object
    final: ValueOutcome | ClashOutcome | OpenStuckOutcome | FuelExhausted


def _fresh_name(base: str, avoid: set) -> str:
    k = 0
    while f"{base}_{k}" in avoid:
        k += 1
    return f"{base}_{k}"


def _free_names(fv_memo: dict, u) -> set:
    return {v.name for v in free_vars(u, fv_memo)}


def _subst_under(fv_memo: dict, mp: dict, u):
    """subst_source_any's leaf rule for mapping mp, fv_memo its free-variable memo."""
    if type(u) is Var:
        return mp.get(u, u)
    if type(u) is not Abs:
        raise TypeError(f"not a source term: {u!r}")
    params, body = u.params, u.body
    body_names = _free_names(fv_memo, body)
    live = {v: r for v, r in mp.items() if v not in params and v.name in body_names}
    if not live:
        return u
    repl_names = set().union(*(_free_names(fv_memo, r) for r in live.values()))
    if any(p.name in repl_names for p in params):
        # a capturing param is renamed in the body too: live binds no param
        avoid = repl_names | body_names | {p.name for p in params}
        for p in params:
            if p.name in repl_names:
                live[p] = Var(_fresh_name(p.name, avoid))
                avoid.add(live[p].name)
        params = tuple(live.get(p, p) for p in params)
    return Parts((body,), partial(_subst_under, fv_memo, live), {}, lambda body: Abs(params, body))


def subst_source_any(t: SourceTerm, mapping: dict) -> SourceTerm:
    """Capture-avoiding simultaneous substitution, replacements arbitrary.

    Binders are renamed only when they would capture a free variable of
    a replacement; untouched subterms are returned as-is (shared). Each
    fold memoizes its results, so a shared subterm is visited once per
    binder scope.
    """
    if not mapping:
        return t
    memo: dict = {}  # free_vars memo shared by the whole substitution
    out = fold(t, partial(_subst_under, memo, mapping), None, {})
    # the leaf rejects a foreign node outside binders and reads the free
    # variables of every abstraction body it meets; walking each
    # replacement as well puts every other node of both in the memo.
    for r in mapping.values():
        free_vars(r, memo)
    reject_closures(memo, t)
    return out


def subst_source(t: SourceTerm, params: tuple, vals: tuple) -> SourceTerm:
    """Simultaneous substitution of values for pairwise distinct variables."""
    if len(params) != len(vals):
        raise ValueError(f"substituting {len(vals)} values for {len(params)} variables")
    mapping = dict(zip(params, vals))
    if len(mapping) != len(params):
        raise ValueError("substitution variables must be pairwise distinct")
    return subst_source_any(t, mapping)


def subst_bags(t: IntTerm | TargetTerm, resolve, memo: dict | None = None) -> IntTerm | TargetTerm:
    """Resolve every variable outside closure bodies to a value.

    resolve(v) gives the value of variable v. Closure bodies are never
    entered, only their bags are rewritten: a variable bag becomes the
    value bag of its resolved entries. So no capture can occur. Beta in
    both calculi substitutes through it, and so does the stacked
    machine's readback, with the environment's own lookup. memo is the
    fold memo, which a caller may share across substitutions under one
    resolve.
    """

    def leaf(u):
        match u:
            case Var() | PVar():
                return resolve(u)
            # w and p are the binder lists of a Closure, the arities of a TClosure
            case Closure(w, p, body, bag) | TClosure(w, p, body, bag):
                match bag:
                    case VarBag(vs) | PVarBag(vs):
                        return type(u)(w, p, body, ValBag(tuple(map(resolve, vs))))
                    case ValBag(vs):
                        return Parts(vs, None, None, lambda *vals: type(u)(w, p, body, ValBag(vals)))
        raise TypeError(f"not an intermediate or target term: {u!r}")

    return fold(t, leaf, None, memo)


def subst_int(
    t: IntTerm,
    wrapped: tuple,
    bagvals: tuple,
    params: tuple,
    argvals: tuple,
) -> IntTerm:
    """Simultaneous substitution for the intermediate calculus.

    Replaces the wrapped variables with the bag values and the params
    with the argument values, outside closure bodies (see subst_bags);
    the term's free variables must all be covered.
    """
    if len(wrapped) != len(bagvals) or len(params) != len(argvals):
        raise ValueError("substitution groups must pair up exactly")
    mapping = dict(zip(wrapped, bagvals))
    mapping.update(zip(params, argvals))
    if len(mapping) != len(wrapped) + len(params):
        raise ValueError("substitution variables must be pairwise distinct")

    def lookup(v: Var):
        r = mapping.get(v)
        if r is None:
            if not isinstance(v, Var):
                raise TypeError(f"not an intermediate term: {v!r}")
            raise ValueError(f"free variable {v.name} not covered by the substitution")
        return r

    return subst_bags(t, lookup)


def psubst_target(t: TargetTerm, lvals: tuple, svals: tuple) -> TargetTerm:
    """Projecting substitution: resolve indexed variables on the fly.

    pi_i l becomes lvals[i-1] and pi_j s becomes svals[j-1], outside
    closure bodies (see subst_bags). The supplied tuples must cover
    the term's norms.
    """

    def resolve(p: PVar):
        try:
            vals = lvals if p.base == "l" else svals
        except AttributeError:
            raise TypeError(f"not a target term: {p!r}") from None
        if not 1 <= p.index <= len(vals):
            raise ValueError(f"pi{p.index} {p.base} outside the supplied {len(vals)} values")
        return vals[p.index - 1]

    return subst_bags(t, resolve)


def _stepper(is_abs_value, apply_root):
    """Build a step function from the calculus-specific pieces.

    is_abs_value tells the leaves that are values (abstractions or
    closures); apply_root applies a function value to a value. A step
    finds the redex with terms.decompose, contracts it and plugs the
    contractum back up the evaluation context, whose child indices are
    the redex path. A tuple in function position is the same clash in
    every calculus, and a stuck leaf (a variable) is OpenStuck.
    """

    def step(t):
        found = decompose(t, is_abs_value)
        if found is None:
            return ValueOutcome()
        u, ctx = found
        path = tuple(k for _, k in ctx)
        if type(u) is Proj:
            if type(u.arg) is not Tuple or not 1 <= u.index <= len(u.arg.items):
                return ClashOutcome(ClashKind.PROJECTION, path)
            r = Stepped(StepLabel.PI, u.arg.items[u.index - 1])
        elif type(u) is not App:
            return OpenStuckOutcome(u, path)
        elif type(u.fn) is Tuple:
            return ClashOutcome(ClashKind.TUPLE, path)
        else:
            r = apply_root(u.fn, u.arg, path)
        if not ctx or type(r) is not Stepped:
            return r
        term = r.term
        for node, k in reversed(ctx):  # plug the contractum back up the context
            if type(node) is App:
                term = App(term, node.arg) if k == 0 else App(node.fn, term)
            elif type(node) is Proj:
                term = Proj(node.index, term)
            else:
                term = Tuple(node.items[:k] + (term,) + node.items[k + 1 :])
        return Stepped(r.label, term)

    return step


def _source_root(fn: Abs, arg, path):
    if isinstance(arg, Tuple) and len(arg.items) == len(fn.params):
        return Stepped(StepLabel.BETA, subst_source(fn.body, fn.params, arg.items))
    return ClashOutcome(ClashKind.ABS_OR_CLOSURE, path)


def _int_root(fn: Closure, arg, path):
    w, p = fn.wrapped, fn.params
    match fn.bag:
        case VarBag(_):
            # the bag still names free variables: open, not clashing
            return OpenStuckOutcome(fn, path)
        case ValBag(vals):
            if isinstance(arg, Tuple) and len(arg.items) == len(p):
                if len(vals) != len(w):
                    raise ValueError(f"ill-formed closure: {len(vals)} bag values for {len(w)} wrapped variables")
                return Stepped(StepLabel.BETA, subst_int(fn.body, w, vals, p, arg.items))
            return ClashOutcome(ClashKind.ABS_OR_CLOSURE, path)
    raise TypeError(f"not an intermediate term: {fn!r}")


def _target_root(fn: TClosure, arg, path):
    n, m = fn.n_wrapped, fn.n_params
    match fn.bag:
        case PVarBag(_):
            return OpenStuckOutcome(fn, path)
        case ValBag(vals):
            # the m annotation is the arity contract the machine checks as well
            if isinstance(arg, Tuple) and len(arg.items) == m:
                if len(vals) != n:
                    raise ValueError(f"ill-formed closure: {len(vals)} bag values promised as {n}")
                return Stepped(StepLabel.BETA, psubst_target(fn.body, vals, arg.items))
            return ClashOutcome(ClashKind.ABS_OR_CLOSURE, path)
    raise TypeError(f"not a target term: {fn!r}")


step_source = _stepper(lambda t: type(t) is Abs, _source_root)
step_int = _stepper(lambda t: type(t) is Closure, _int_root)
step_target = _stepper(lambda t: type(t) is TClosure, _target_root)


def _normalize(step, t, fuel: int, reducts: list | None = None) -> NormalizeResult:
    """At most fuel steps from t, then one more to tell a stop from a cut.

    When reducts is a list, every reduct is appended to it in order.
    """
    labels = []
    for _ in range(fuel):
        r = step(t)
        if not isinstance(r, Stepped):
            return NormalizeResult(tuple(labels), t, r)
        labels.append(r.label)
        t = r.term
        if reducts is not None:
            reducts.append(t)
    r = step(t)
    return NormalizeResult(tuple(labels), t, FuelExhausted() if isinstance(r, Stepped) else r)


def normalize_source(t: SourceTerm, fuel: int = DEFAULT_FUEL) -> NormalizeResult:
    return _normalize(step_source, t, fuel)


def normalize_int(t: IntTerm, fuel: int = DEFAULT_FUEL) -> NormalizeResult:
    return _normalize(step_int, t, fuel)


def normalize_target(t: TargetTerm, fuel: int = DEFAULT_FUEL) -> NormalizeResult:
    return _normalize(step_target, t, fuel)
