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

from .calculi import subst_source_any
from .terms import (
    Abs,
    App,
    Closure,
    IntTerm,
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

    def go(t):
        match t:
            case Var(_):
                return t
            case Abs(params, body):
                ys = free_vars(t, memo)
                return Closure(ys, params, go(body), VarBag(ys))
            case App(fn, arg):
                return App(go(fn), go(arg))
            case Proj(i, arg):
                return Proj(i, go(arg))
            case Tuple(items):
                return Tuple(tuple(go(it) for it in items))
        raise TypeError(f"not a source term: {t!r}")

    return go(t)


def unwrap(t: IntTerm, memo: dict | None = None) -> SourceTerm:
    """Translate an intermediate term back to the source calculus.

    A closure becomes an abstraction whose body has the wrapped
    variables substituted by the bag entries: values from a value bag,
    or the bag's variables themselves (a renaming) from a variable bag.
    Substituting open values under the restored binder is
    capture-avoiding: subst_source_any freshens the params when a bag
    entry's free variable would be captured.

    memo, when given, is a dict that one caller passes to every unwrap
    of one run: id(node) maps to (node, its unwrapping) for every node
    unwrapped so far. unwrap is pure and a node's result does not depend
    on where the node sits, terms are immutable, and each entry holds
    its node, so no id is reused while the memo lives and a hit is what
    recomputing would give. Without a memo nothing is reused.
    """
    if type(t) is Var:
        return t
    if memo is not None:
        hit = memo.get(id(t))
        if hit is not None:
            return hit[1]
    match t:
        case Closure(wrapped, params, body, bag):
            match bag:
                case VarBag(vs):
                    entries = vs
                case ValBag(vals):
                    entries = tuple(unwrap(v, memo) for v in vals)
            if len(entries) != len(wrapped):
                raise ValueError(
                    f"closure bag has {len(entries)} entries for {len(wrapped)} wrapped variables"
                )
            out = subst_source_any(Abs(params, unwrap(body, memo)), dict(zip(wrapped, entries)))
        case App(fn, arg):
            out = App(unwrap(fn, memo), unwrap(arg, memo))
        case Proj(i, arg):
            out = Proj(i, unwrap(arg, memo))
        case Tuple(items):
            out = Tuple(tuple(unwrap(it, memo) for it in items))
        case _:
            raise TypeError(f"not an intermediate term: {t!r}")
    if memo is not None:
        memo[id(t)] = (t, out)
    return out


def eliminate_names(t: IntTerm, wrapped: tuple, params: tuple) -> TargetTerm:
    """Replace variables by projections into the two implicit tuples.

    A variable listed in wrapped becomes pi_i l, one listed in params
    becomes pi_j s (1-based positions); anything else is rejected. A
    closure's body is translated under the closure's own lists, its bag
    under the enclosing ones.
    """
    if set(wrapped) & set(params):
        raise ValueError("wrapped and param lists must be disjoint")
    l_index = {v: i for i, v in enumerate(wrapped, start=1)}
    s_index = {v: j for j, v in enumerate(params, start=1)}

    def resolve(v: Var) -> PVar:
        i = l_index.get(v)
        if i is not None:
            return PVar("l", i)
        j = s_index.get(v)
        if j is not None:
            return PVar("s", j)
        raise ValueError(f"variable {v.name} is bound by neither list")

    def go(t):
        match t:
            case Var(_):
                return resolve(t)
            case Closure(w, p, body, bag):
                match bag:
                    case VarBag(vs):
                        new_bag = PVarBag(tuple(resolve(v) for v in vs))
                    case ValBag(vals):
                        new_bag = ValBag(tuple(go(v) for v in vals))
                return TClosure(len(w), len(p), eliminate_names(body, w, p), new_bag)
            case App(fn, arg):
                return App(go(fn), go(arg))
            case Proj(i, arg):
                return Proj(i, go(arg))
            case Tuple(items):
                return Tuple(tuple(go(it) for it in items))
        raise TypeError(f"not an intermediate term: {t!r}")

    return go(t)


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
    (id(node), id(wrapped), id(params)) maps to (node, wrapped, params,
    its naming). A closure body's projections resolve against the
    body's own lists, so a body is named once, under the names minted
    for it the first time it is met: id(body) maps to (body, wrapped
    names, param names), used again by every closure of the same arity
    that shares the body, while each closure's bag is still resolved
    against its enclosing lists. Closures sharing a body may thus share
    binder names, which captures nothing: names minted for different
    bodies differ, and a body cannot contain itself. Each entry holds
    its keyed objects, so no id is reused while the memo lives. Without
    a memo every closure mints fresh names.
    """

    def resolve(p: PVar) -> Var:
        vars_ = wrapped if p.base == "l" else params
        if not 1 <= p.index <= len(vars_):
            raise ValueError(f"pi{p.index} {p.base} outside the enclosing {len(vars_)} names")
        return vars_[p.index - 1]

    if type(t) is PVar:
        return resolve(t)
    if memo is not None:
        hit = memo.get((id(t), id(wrapped), id(params)))
        if hit is not None:
            return hit[3]
    match t:
        case TClosure(n, m, body, bag):
            names = None if memo is None else memo.get(id(body))
            if names is None or len(names[1]) != n or len(names[2]) != m:
                names = (body, supply.wrapped_vars(n), supply.param_vars(m))
                if memo is not None:
                    memo[id(body)] = names
            _, zs, ws = names
            match bag:
                case PVarBag(ps):
                    new_bag = VarBag(tuple(resolve(p) for p in ps))
                case ValBag(vals):
                    new_bag = ValBag(tuple(naming(v, wrapped, params, supply, memo) for v in vals))
            out = Closure(zs, ws, naming(body, zs, ws, supply, memo), new_bag)
        case App(fn, arg):
            out = App(
                naming(fn, wrapped, params, supply, memo),
                naming(arg, wrapped, params, supply, memo),
            )
        case Proj(i, arg):
            out = Proj(i, naming(arg, wrapped, params, supply, memo))
        case Tuple(items):
            out = Tuple(tuple(naming(it, wrapped, params, supply, memo) for it in items))
        case _:
            raise TypeError(f"not a target term: {t!r}")
    if memo is not None:
        memo[(id(t), id(wrapped), id(params))] = (t, wrapped, params, out)
    return out


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
