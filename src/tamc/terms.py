"""Term representations for the three calculi and their static measures.

Three term languages share the application, projection, and tuple
constructors:

* source terms add multi-parameter abstractions,
* intermediate terms replace abstractions with closures carrying an
  explicit bag (either the list of wrapped variables or a tuple of
  values),
* target terms are nameless: variables become indexed projections out
  of one of two implicit tuples ("l" for the wrapped values, "s" for
  the parameters), and closures carry the expected arities of both.

All nodes are immutable. Sequences are tuples, so terms hash and
compare structurally; constructors take them as tuples and convert
nothing. Projection indices are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Var:
    """A variable, used both as a term and as a binder list entry."""

    name: str


@dataclass(frozen=True, slots=True)
class Abs:
    """Multi-parameter abstraction. Parameters are pairwise distinct."""

    params: tuple[Var, ...]
    body: "SourceTerm"

    def __post_init__(self):
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameters: {names}")


@dataclass(frozen=True, slots=True)
class App:
    fn: "AnyTerm"
    arg: "AnyTerm"


@dataclass(frozen=True, slots=True)
class Proj:
    index: int
    arg: "AnyTerm"


@dataclass(frozen=True, slots=True)
class Tuple:
    items: tuple["AnyTerm", ...]


@dataclass(frozen=True, slots=True)
class VarBag:
    """Bag holding the wrapped variables themselves (unevaluated)."""

    vars: tuple[Var, ...]


@dataclass(frozen=True, slots=True)
class ValBag:
    """Bag holding already evaluated values."""

    vals: tuple["AnyTerm", ...]


def _canonical_bag(bag):
    # The empty bag is both a variable bag and a value bag; a single
    # representation keeps equality and primality structural.
    if isinstance(bag, (VarBag, PVarBag)) and not (bag.vars if isinstance(bag, VarBag) else bag.pvars):
        return ValBag(())
    return bag


@dataclass(frozen=True, slots=True)
class Closure:
    """Intermediate closure [wrapped; params. body] with its bag.

    The wrapped and param variables scope over the body only, never
    over the bag.
    """

    wrapped: tuple[Var, ...]
    params: tuple[Var, ...]
    body: "IntTerm"
    bag: "VarBag | ValBag"

    def __post_init__(self):
        object.__setattr__(self, "bag", _canonical_bag(self.bag))


@dataclass(frozen=True, slots=True)
class PVar:
    """Indexed projection out of an implicit tuple: base 'l' or 's'."""

    base: str
    index: int

    def __post_init__(self):
        if self.base not in ("l", "s"):
            raise ValueError(f"projection variable base must be 'l' or 's', got {self.base!r}")


@dataclass(frozen=True, slots=True)
class PVarBag:
    pvars: tuple[PVar, ...]


@dataclass(frozen=True, slots=True)
class TClosure:
    """Nameless closure with arity annotations.

    n_wrapped is the promised length of the wrapped-value tuple, and
    n_params the expected length of the argument tuple.
    """

    n_wrapped: int
    n_params: int
    body: "TargetTerm"
    bag: "PVarBag | ValBag"

    def __post_init__(self):
        object.__setattr__(self, "bag", _canonical_bag(self.bag))


SourceTerm = Var | Abs | App | Proj | Tuple
IntTerm = Var | Closure | App | Proj | Tuple
TargetTerm = PVar | TClosure | App | Proj | Tuple
AnyTerm = SourceTerm | IntTerm | TargetTerm


@dataclass(frozen=True, slots=True)
class TermMetrics:
    size: int
    width: int
    height: int


def metrics(t: SourceTerm) -> TermMetrics:
    """Size, width, and height of a source term.

    Size clauses: |x| = 1, |fun(xs) -> t| = |t| + len(xs) + 1,
    |t u| = |t| + |u| + 1, |pi i t| = |t| + 1, |<t1..tn>| = n + sum.
    Width is the longest tuple or parameter list anywhere in the term.
    Height is the largest number of bound variables in whose scope a
    subterm sits, so a zero-parameter abstraction adds nothing.

    Memoized by node identity, each entry holding its node, so a term
    DAG costs one visit per shared node: substitution and read-back
    share value nodes instead of copying them, and normal forms of the
    exploding families are small DAGs of exponential unfolded size.
    """
    memo: dict = {}

    def go(t) -> tuple[int, int, int]:
        if type(t) is Var:
            return 1, 0, 0
        hit = memo.get(id(t))
        if hit is not None:
            return hit[1]
        match t:
            case Abs(params, body):
                s, w, h = go(body)
                k = len(params)
                out = s + k + 1, max(w, k), h + k
            case App(fn, arg):
                s1, w1, h1 = go(fn)
                s2, w2, h2 = go(arg)
                out = s1 + s2 + 1, max(w1, w2), max(h1, h2)
            case Proj(_, arg):
                s, w, h = go(arg)
                out = s + 1, w, h
            case Tuple(items):
                parts = [go(it) for it in items]
                out = (
                    len(items) + sum(p[0] for p in parts),
                    max([len(items)] + [p[1] for p in parts], default=0),
                    max([p[2] for p in parts], default=0),
                )
            case _:
                raise TypeError(f"not a source term: {t!r}")
        memo[id(t)] = (t, out)
        return out

    return TermMetrics(*go(t))


def size_int(t: IntTerm | TargetTerm) -> int:
    """Size of an intermediate or target term.

    A closure counts its body plus both binder counts (len(wrapped) +
    len(params), or n + m); a variable bag adds nothing on top of that
    (its length equals the wrapped count), while value bags add their
    values' sizes.
    """
    match t:
        case Var() | PVar():
            return 1
        case Closure(wrapped, params, body, bag):
            binders = len(wrapped) + len(params)
        case TClosure(n, m, body, bag):
            binders = n + m
        case App(fn, arg):
            return size_int(fn) + size_int(arg) + 1
        case Proj(_, arg):
            return size_int(arg) + 1
        case Tuple(items):
            return len(items) + sum(size_int(it) for it in items)
        case _:
            raise TypeError(f"not an intermediate or target term: {t!r}")
    extra = sum(size_int(v) for v in bag.vals) if isinstance(bag, ValBag) else 0
    return size_int(body) + binders + extra


size_target = size_int


def shared_size_source(t: SourceTerm) -> int:
    """Source size over a term DAG, visiting each shared node once."""
    return metrics(t).size


def _unbound(fv: tuple[Var, ...], binders: tuple[Var, ...]) -> tuple[Var, ...]:
    """fv without the binders; variables compare by name, so names are the keys."""
    if not fv or not binders:
        return fv
    bound = {v.name for v in binders}
    return tuple(v for v in fv if v.name not in bound)


def _merge(parts) -> tuple[Var, ...]:
    """Concatenate free-variable tuples, each without repeats, keeping first occurrences."""
    parts = [p for p in parts if p]
    if len(parts) <= 1:
        return parts[0] if parts else ()
    first, *rest = parts
    seen = {v.name for v in first}
    new = []
    for p in rest:
        for v in p:
            if v.name not in seen:
                seen.add(v.name)
                new.append(v)
    return first + tuple(new) if new else first


def free_vars(t: SourceTerm | IntTerm, memo: dict | None = None) -> tuple[Var, ...]:
    """Free variables in order of first occurrence, left to right.

    Works on source and intermediate terms. Closure binders scope over
    the body only; bag occurrences are free.

    Computed bottom-up: an abstraction's result is its body's minus its
    params; a closure's is its body's minus its binders, followed by its
    bag's; an application, projection or tuple merges its children's
    results left to right, keeping first occurrences. That is the order
    of a left-to-right walk, without re-walking a body at every binder
    above it. Results are memoized by node identity in memo, which a
    caller may share across calls on subterms of one term; each entry
    holds its node, so no id is reused while the memo lives.
    """
    if memo is None:
        memo = {}

    def go(t) -> tuple[Var, ...]:
        if type(t) is Var:
            return (t,)
        hit = memo.get(id(t))
        if hit is not None:
            return hit[1]
        match t:
            case Abs(params, body):
                out = _unbound(go(body), params)
            case App(fn, arg):
                out = _merge((go(fn), go(arg)))
            case Proj(_, arg):
                out = go(arg)
            case Tuple(items):
                out = _merge([go(it) for it in items])
            case Closure(wrapped, params, body, bag):
                inner = _unbound(go(body), wrapped + params)
                match bag:
                    case VarBag(vs):
                        # a malformed bag may repeat a variable
                        outer = _merge([(v,) for v in vs])
                    case ValBag(vals):
                        outer = _merge([go(v) for v in vals])
                out = _merge((inner, outer))
            case _:
                raise TypeError(f"term has no named variables: {t!r}")
        memo[id(t)] = (t, out)
        return out

    return go(t)


def reject_closures(memo: dict, t) -> None:
    """Raise TypeError, naming t, when a free_vars memo holds a closure.

    free_vars reads intermediate terms too, and its memo holds every
    node it walked but the variables, so a closure anywhere in the
    walked terms shows up there.
    """
    if any(type(node) is Closure for node, _ in memo.values()):
        raise TypeError(f"not a source term: {t!r}")


def is_closed_source(t: SourceTerm | IntTerm) -> bool:
    return not free_vars(t)


closed_int = is_closed_source


def is_value_source(t: AnyTerm) -> bool:
    """Values are abstractions, closures whatever their bag, and tuples of values."""
    match t:
        case Abs() | Closure() | TClosure():
            return True
        case Tuple(items):
            return all(is_value_source(it) for it in items)
    return False


is_value_int = is_value_target = is_value_source


def well_formed_int(t: IntTerm) -> bool:
    """Check the closure discipline everywhere in the term.

    For each closure: binders are pairwise distinct and disjoint, the
    body mentions only binder variables, a variable bag repeats the
    wrapped list exactly, and a value bag supplies one value per
    wrapped variable. One free-variable memo serves every closure, so
    nested bodies are walked once, not once per binder above them.
    """
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


def prime_int(t: IntTerm | TargetTerm) -> bool:
    """True when every bag in the term is a variable bag (empty counts)."""
    match t:
        case Var() | PVar():
            return True
        case Closure(_, _, body, bag) | TClosure(_, _, body, bag):
            if isinstance(bag, ValBag) and bag.vals:
                return False
            return prime_int(body)
        case App(fn, arg):
            return prime_int(fn) and prime_int(arg)
        case Proj(_, arg):
            return prime_int(arg)
        case Tuple(items):
            return all(prime_int(it) for it in items)
    raise TypeError(f"not an intermediate or target term: {t!r}")


prime_target = prime_int


def norms_target(t: TargetTerm) -> tuple[int, int]:
    """Largest l- and s-projection indices outside closure bodies.

    Closure bags count as outside; closure bodies do not.
    """
    match t:
        case PVar(base, i):
            return (i, 0) if base == "l" else (0, i)
        case TClosure(_, _, _, bag):
            match bag:
                case PVarBag(ps):
                    pairs = [norms_target(p) for p in ps]
                case ValBag(vals):
                    pairs = [norms_target(v) for v in vals]
            return (
                max((p[0] for p in pairs), default=0),
                max((p[1] for p in pairs), default=0),
            )
        case App(fn, arg):
            l1, s1 = norms_target(fn)
            l2, s2 = norms_target(arg)
            return max(l1, l2), max(s1, s2)
        case Proj(_, arg):
            return norms_target(arg)
        case Tuple(items):
            pairs = [norms_target(it) for it in items]
            return (
                max((p[0] for p in pairs), default=0),
                max((p[1] for p in pairs), default=0),
            )
    raise TypeError(f"not a target term: {t!r}")


def closed_target(t: TargetTerm) -> bool:
    """Closed means no projection variable occurs outside a closure body."""
    return norms_target(t) == (0, 0)


def well_formed_target(t: TargetTerm) -> bool:
    """Check arity promises: body norms within (n, m), bag length n."""
    match t:
        case PVar(_, _):
            return True
        case TClosure(n, m, body, bag):
            if n < 0 or m < 0:
                return False
            l, s = norms_target(body)
            if l > n or s > m:
                return False
            if not well_formed_target(body):
                return False
            match bag:
                case PVarBag(ps):
                    return len(ps) == n
                case ValBag(vals):
                    return len(vals) == n and all(
                        is_value_target(v) and well_formed_target(v) for v in vals
                    )
        case App(fn, arg):
            return well_formed_target(fn) and well_formed_target(arg)
        case Proj(_, arg):
            return well_formed_target(arg)
        case Tuple(items):
            return all(well_formed_target(it) for it in items)
    raise TypeError(f"not a target term: {t!r}")


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


def alpha_eq_source(
    a: SourceTerm | IntTerm, b: SourceTerm | IntTerm, memo: dict | None = None
) -> bool:
    """Alpha equivalence of source or intermediate terms.

    Free variables compare by name. An abstraction's params, and a
    closure's wrapped and param lists, bind in the body; a closure's bag
    lives in the enclosing scope.

    memo, when given, is a dict that one caller passes to every
    comparison of one run. It remembers the pairs proven alpha-equal
    whose proof consulted nothing outside them, neither a free name nor
    a binder above them: such a pair is equal wherever it sits, so a
    later comparison that meets the same two objects answers at once.
    (id(a), id(b)) maps to (a, b) for two subterms equal in every
    context. Only equal pairs enter the memo, terms are immutable, and
    each entry holds its keyed objects, so no id is reused while the
    memo lives and a hit is what comparing would give. Without a memo
    nothing is remembered.
    """
    # The lowest binder level a variable matched since the innermost
    # node comparison began, or -1 once a free name matched.
    low = 0

    def var(x: Var, y: Var, ma: _Binds, mb: _Binds) -> bool:
        nonlocal low
        ix = ma.map.get(x.name)
        iy = mb.map.get(y.name)
        if ix is None and iy is None:
            low = -1
            return x.name == y.name
        if ix is None or ix != iy:
            return False
        if ix < low:
            low = ix
        return True

    def go(a, b, ma: _Binds, mb: _Binds) -> bool:
        # ma and mb always hold the same number of binders, since each
        # scope is entered on both sides with lists of equal lengths.
        nonlocal low
        if type(a) is Var:
            return type(b) is Var and var(a, b, ma, mb)
        if memo is not None and (id(a), id(b)) in memo:
            return True
        outer, low = low, ma.next
        match a, b:
            case Abs(pa, ba), Abs(pb, bb):
                eq = len(pa) == len(pb) and go(ba, bb, ma.child(pa), mb.child(pb))
            case Closure(w1, p1, b1, g1), Closure(w2, p2, b2, g2):
                eq = (
                    len(w1) == len(w2)
                    and len(p1) == len(p2)
                    and go(b1, b2, ma.child(w1 + p1), mb.child(w2 + p2))
                )
                if eq:
                    match g1, g2:
                        case VarBag(v1), VarBag(v2):
                            eq = len(v1) == len(v2) and all(
                                var(p, q, ma, mb) for p, q in zip(v1, v2)
                            )
                        case ValBag(v1), ValBag(v2):
                            eq = len(v1) == len(v2) and all(
                                go(p, q, ma, mb) for p, q in zip(v1, v2)
                            )
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
        if eq and memo is not None and low >= ma.next:
            memo[(id(a), id(b))] = (a, b)
        low = min(low, outer)
        return eq

    return go(a, b, _Binds(), _Binds())


alpha_eq_int = alpha_eq_source
