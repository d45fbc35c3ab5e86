"""Translations between the three calculi.

Forward: wrap turns every abstraction into a closure over its free
variables (first-occurrence order), and eliminate_names replaces the
variables of a wrapped term by indexed projections into the two
implicit tuples. closure_convert is their composition on closed terms.

Backward: unwrap substitutes bags away and restores abstractions;
naming re-introduces fresh variable names for the projections. Their
composition reverse_convert inverts closure_convert up to alpha
(naming cannot know the original names). unwrap(wrap(t)) = t exactly.

Wrapping does not commute with substitution in general, so nothing
here (or in the tests) relies on that.
"""

from __future__ import annotations

from functools import partial

from .calculi import subst_source_any
from .terms import (
    Abs,
    Closure,
    IntTerm,
    Parts,
    PVar,
    PVarBag,
    SourceTerm,
    TargetTerm,
    TClosure,
    ValBag,
    Var,
    VarBag,
    context_memo,
    fold,
    free_vars,
    norms_target,
)


class FreshSupply:
    """A counter for minting binder names during naming.

    Minted names contain '#', which the surface grammar excludes, so
    they can never collide with parsed or wrapped names. The supply is
    an explicit value threaded through calls; there is no hidden
    global state.
    """

    __slots__ = ("counter",)

    def __init__(self):
        self.counter = 0

    def _take(self, base: str) -> Var:
        v = Var(f"{base}#{self.counter}")
        self.counter += 1
        return v

    def wrapped_vars(self, n: int) -> tuple[Var, ...]:
        return tuple(self._take("y") for _ in range(n))

    def param_vars(self, m: int) -> tuple[Var, ...]:
        return tuple(self._take("x") for _ in range(m))


def wrap(t: SourceTerm) -> IntTerm:
    """Translate a source term into the intermediate calculus.

    Homomorphic except on abstractions, which become closures wrapping
    their free variables; the bag initially just names those variables,
    so the output is prime and well formed. One free-variable memo
    serves every abstraction, so nested bodies are walked once.
    """
    memo: dict = {}

    def leaf(u):
        if type(u) is Var:
            return u
        if type(u) is Abs:
            ys = free_vars(u, memo)
            return Parts((u.body,), None, None, lambda body: Closure(ys, u.params, body, VarBag(ys)))
        raise TypeError(f"not a source term: {u!r}")

    return fold(t, leaf)


def unwrap(t: IntTerm, memo: dict | None = None) -> SourceTerm:
    """Translate an intermediate term back to the source calculus.

    A closure becomes an abstraction whose body has the wrapped
    variables substituted by the bag entries: values from a value bag,
    or the bag's variables themselves (a renaming) from a variable bag.
    Substituting open values under the restored binder is
    capture-avoiding: subst_source_any freshens the params when a bag
    entry's free variable would be captured. A variable bag equal to the
    wrapped list, as wrap makes every bag, renames nothing and skips it.

    memo, when given, is a dict that one caller passes to every unwrap
    of one run: id(node) maps to (node, its unwrapping) for every node
    unwrapped so far. unwrap is pure and a node's result does not depend
    on where the node sits, terms are immutable, and each entry holds
    its node, so no id is reused while the memo lives and a hit is what
    recomputing would give. Without a memo nothing is reused.
    """

    def leaf(u):
        if type(u) is Var:
            return u
        bag = u.bag if type(u) is Closure else None
        if type(bag) is VarBag:
            entries, vals = bag.vars, ()
        elif type(bag) is ValBag:
            entries = vals = bag.vals
        else:
            raise TypeError(f"not an intermediate term: {u!r}")
        if len(entries) != len(u.wrapped):
            raise ValueError(
                f"closure bag has {len(entries)} entries for {len(u.wrapped)} wrapped variables"
            )

        def build(*rs):
            out = Abs(u.params, rs[-1])
            new = rs[:-1] if vals else entries  # the unwrapped values, or the bag's variables
            return out if new == u.wrapped else subst_source_any(out, dict(zip(u.wrapped, new)))

        return Parts((*vals, u.body), None, memo, build)

    return fold(t, leaf, None, memo)


def _projections(wrapped: tuple, params: tuple) -> dict:
    """Each variable of the two lists mapped to its projection: pi_i l, else pi_j s."""
    if set(wrapped) & set(params):
        raise ValueError("wrapped and param lists must be disjoint")
    index = {v: PVar("s", j) for j, v in enumerate(params, start=1)}
    index.update((v, PVar("l", i)) for i, v in enumerate(wrapped, start=1))
    return index


def _project(index: dict, v: Var) -> PVar:
    p = index.get(v)
    if p is None:
        raise ValueError(f"variable {v.name} is bound by neither list")
    return p


def _eliminate(index: dict, u):
    """eliminate_names's leaf rule under the lists that index was built from."""
    match u:
        case Var():
            return _project(index, u)
        case Closure(w, p, body, VarBag(vs)):
            new_bag = PVarBag(tuple(_project(index, v) for v in vs))
            inner = partial(_eliminate, _projections(w, p))
            return Parts((body,), inner, None, lambda b: TClosure(len(w), len(p), b, new_bag))
        case Closure(w, p, body, ValBag(vals)):
            inner = partial(_eliminate, _projections(w, p))
            # the bag's values first, then the body under the closure's lists
            return Parts(vals, None, None, lambda *vs: Parts(
                (body,), inner, None, lambda b: TClosure(len(w), len(p), b, ValBag(vs))
            ))
    raise TypeError(f"not an intermediate term: {u!r}")


def eliminate_names(t: IntTerm, wrapped: tuple, params: tuple) -> TargetTerm:
    """Replace variables by projections into the two implicit tuples.

    A variable listed in wrapped becomes pi_i l, one listed in params
    becomes pi_j s (1-based positions); anything else is rejected. A
    closure's body is translated under the closure's own lists, its bag
    under the enclosing ones.
    """
    return fold(t, partial(_eliminate, _projections(wrapped, params)))


def _named(wrapped: tuple, params: tuple, p: PVar) -> Var:
    vars_ = wrapped if p.base == "l" else params
    if not 1 <= p.index <= len(vars_):
        raise ValueError(f"pi{p.index} {p.base} outside the enclosing {len(vars_)} names")
    return vars_[p.index - 1]


def _naming_scope(memo, supply: FreshSupply, wrapped: tuple, params: tuple):
    """naming's (leaf rule, fold memo) under the two lists; the fold memo is None without a memo."""
    context = context_memo(memo, (id(wrapped), id(params)), (wrapped, params))
    return partial(_naming, memo, supply, wrapped, params, context), context


def _naming(memo, supply: FreshSupply, wrapped: tuple, params: tuple, context, u):
    """naming's leaf rule under the two lists, context their fold memo."""
    match u:
        case PVar():
            return _named(wrapped, params, u)
        case TClosure(n, m, body, bag):
            names = None if memo is None else memo.get(id(body))
            if names is None or len(names[1]) != n or len(names[2]) != m:
                names = (body, supply.wrapped_vars(n), supply.param_vars(m))
                if memo is not None:
                    memo[id(body)] = names
            _, zs, ws = names
            inner, inner_context = _naming_scope(memo, supply, zs, ws)
            match bag:
                case PVarBag(ps):
                    new_bag = VarBag(tuple(_named(wrapped, params, p) for p in ps))
                    return Parts((body,), inner, inner_context, lambda b: Closure(zs, ws, b, new_bag))
                case ValBag(vals):
                    # the bag's values first, then the body under the minted names
                    return Parts(vals, None, context, lambda *vs: Parts(
                        (body,), inner, inner_context, lambda b: Closure(zs, ws, b, ValBag(vs))
                    ))
    raise TypeError(f"not a target term: {u!r}")


def naming(
    t: TargetTerm,
    wrapped: tuple,
    params: tuple,
    supply: FreshSupply,
    memo: dict | None = None,
) -> IntTerm:
    """Reverse name elimination: give every projection a variable name.

    Each closure mints fresh wrapped and param names from the supply
    for its own body; bag projections resolve against the enclosing
    lists. Composed with eliminate_names this is the identity up to
    alpha, since the original names are gone.

    memo, when given, is a dict that one caller passes to every naming
    of one run, together with one supply for all of them. A node's
    naming depends on the node and the two enclosing lists only, so
    memo keeps one context per pair of lists: (id(wrapped), id(params))
    maps to ((wrapped, params), the fold memo of the namings under them).
    A closure body's projections resolve against the body's own lists,
    so a body is named once, under the names minted for it the first
    time it is met: id(body) maps to (body, wrapped names, param names),
    used again by every closure of the same arity that shares the body,
    while each closure's bag is still resolved against its enclosing
    lists. Closures sharing a body may thus share binder names, which
    captures nothing: names minted for different bodies differ, and a
    body cannot contain itself. Each entry holds its keyed objects, so
    no id is reused while the memo lives. Without a memo every closure
    mints fresh names.
    """
    leaf, context = _naming_scope(memo, supply, wrapped, params)
    return fold(t, leaf, None, context)


def closure_convert(t: SourceTerm) -> TargetTerm:
    """Wrap then eliminate names; the term must be closed."""
    fv = free_vars(t)
    if fv:
        raise ValueError(f"closure conversion needs a closed term; free: {[v.name for v in fv]}")
    return eliminate_names(wrap(t), (), ())


def reverse_convert(t: TargetTerm) -> SourceTerm:
    """Name then unwrap; inverts closure_convert up to alpha."""
    if norms_target(t) != (0, 0):
        raise ValueError("reverse conversion needs a closed target term")
    return unwrap(naming(t, (), (), FreshSupply()))
