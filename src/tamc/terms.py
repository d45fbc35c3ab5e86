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

from collections.abc import Callable
from dataclasses import dataclass
from operator import is_


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


@dataclass(slots=True)
class Parts:
    """A leaf rule's answer: fold terms under leaf and memo, then build(*their results).

    A leaf of None folds the terms under the rule that answered, so that
    a rule need not refer to itself.
    """

    terms: tuple
    leaf: Callable
    memo: dict | None
    build: Callable


_BUILD = object()  # on fold's stack, marks an entry whose parts are done


def fold(t, leaf, node=None, memo=None):
    """Fold t bottom-up on one explicit stack, its parts before it.

    Applications, projections and tuples are walked here and rebuilt from
    their parts' results (themselves when no part changed), or given to
    node(u, parts) when node is given; every other node goes to leaf(u),
    in left-to-right pre-order. memo, when given, maps id(u) to (u, its
    result) for every node but a Var or PVar; a node found there is
    skipped. leaf does not fold a binder body or a bag entry itself: it
    answers Parts, whose terms are folded next, in order, under the
    Parts' own leaf rule (or the one that answered, when that is None)
    and memo, with the same node rule, and whose build(*their results)
    gives the node's result or a further Parts.
    The result is memoized in the memo of the context that asked. No
    nesting costs a Python frame.
    """
    if memo is not None and id(t) in memo:
        return memo[id(t)][1]
    todo, done = [t], []
    while todo:
        u = todo.pop()
        if u is _BUILD:
            u = todo.pop()
            tu = type(u)
            if tu is list:  # a leaf's parts are done: build, back in the context that asked
                u, leaf, memo, r = u
                tu = type(u)
                k = len(done) - len(r.terms)
                r = r.build(*done[k:])
            else:  # an application, projection or tuple whose parts are done
                k = len(done) - (2 if tu is App else 1 if tu is Proj else len(u.items))
                parts = done[k:]
                if node is not None:
                    r = node(u, parts)
                elif tu is App:
                    r = u if parts[0] is u.fn and parts[1] is u.arg else App(*parts)
                elif tu is Proj:
                    r = u if parts[0] is u.arg else Proj(u.index, *parts)
                else:
                    r = u if all(map(is_, parts, u.items)) else Tuple(tuple(parts))
            del done[k:]
        else:
            tu = type(u)
            if memo is not None and id(u) in memo:
                done.append(memo[id(u)][1])
                continue
            if tu is App or tu is Proj or tu is Tuple:
                todo += (u, _BUILD)
                todo += (u.arg, u.fn) if tu is App else (u.arg,) if tu is Proj else reversed(u.items)
                continue
            r = leaf(u)
        if type(r) is Parts:  # its terms next, the first on top, under its leaf rule and memo
            todo += ([u, leaf, memo, r], _BUILD, *reversed(r.terms))
            if r.leaf is not None:
                leaf = r.leaf
            memo = r.memo
        else:
            if memo is not None and tu is not Var and tu is not PVar:
                memo[id(u)] = (u, r)
            done.append(r)
    return done[0]


def context_memo(memo: dict | None, key, held) -> dict | None:
    """The fold memo of one context inside memo, or None without a memo.

    memo maps key to (held, the context's fold memo), made on first use;
    held holds the objects whose ids make up key, so no id is reused
    while memo lives.
    """
    if memo is None:
        return None
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (held, {})
    return entry[1]


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

    def leaf(u) -> tuple[int, int, int]:
        if type(u) is Var:
            return 1, 0, 0
        if type(u) is Abs:
            k = len(u.params)
            return Parts((u.body,), None, memo, lambda body: (body[0] + k + 1, max(body[1], k), body[2] + k))
        raise TypeError(f"not a source term: {u!r}")

    def node(u, parts) -> tuple[int, int, int]:
        # the node's own share: a tuple adds its length and offers it as a width
        own = (len(u.items), len(u.items), 0) if type(u) is Tuple else (1, 0, 0)
        sizes, widths, heights = zip(own, *parts)
        return sum(sizes), max(widths), max(heights)

    return TermMetrics(*fold(t, leaf, node, memo))


def _walk(t, bodies: bool):
    """Every node of an intermediate or target term, in left-to-right pre-order.

    A closure comes before the entries of its value bag, and those
    before its body, which is walked only when bodies is true. Variable
    bags are left to the caller, and a node of no calculus is yielded
    with no parts, so the caller decides whether it is an error. The
    walk keeps its own stack, so nesting depth costs no Python frames.
    """
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        tu = type(u)
        if tu is App:
            stack += (u.arg, u.fn)
        elif tu is Proj:
            stack.append(u.arg)
        elif tu is Tuple:
            stack += reversed(u.items)
        elif tu is Closure or tu is TClosure:
            if bodies:
                stack.append(u.body)
            if type(u.bag) is ValBag:
                stack += reversed(u.bag.vals)


def size_int(t: IntTerm | TargetTerm) -> int:
    """Size of an intermediate or target term.

    A closure counts its body plus both binder counts (len(wrapped) +
    len(params), or n + m); a variable bag adds nothing on top of that
    (its length equals the wrapped count), while value bags add their
    values' sizes.
    """
    size = 0
    for u in _walk(t, True):
        tu = type(u)
        if tu is Var or tu is PVar or tu is App or tu is Proj:
            size += 1
        elif tu is Tuple:
            size += len(u.items)
        elif tu is Closure:
            size += len(u.wrapped) + len(u.params)
        elif tu is TClosure:
            size += u.n_wrapped + u.n_params
        else:
            raise TypeError(f"not an intermediate or target term: {u!r}")
    return size


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


def _merge_parts(u, parts) -> tuple[Var, ...]:
    return _merge(parts)


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

    def leaf(u) -> tuple[Var, ...]:
        tu = type(u)
        if tu is Var:
            return (u,)
        if tu is Abs:
            return Parts((u.body,), None, memo, lambda body: _unbound(body, u.params))
        bag = u.bag if tu is Closure else None
        if type(bag) is VarBag:
            # a malformed bag may repeat a variable
            outer, terms = [(v,) for v in bag.vars], (u.body,)
        elif type(bag) is ValBag:
            outer, terms = [], (*bag.vals, u.body)
        else:
            raise TypeError(f"term has no named variables: {u!r}")
        return Parts(terms, None, memo, lambda *rs: _merge((_unbound(rs[-1], u.wrapped + u.params), *outer, *rs[:-1])))

    return fold(t, leaf, _merge_parts, memo)


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


def decompose(t, is_leaf_value):
    """(u, ctx) for the first redex or stuck leaf u of t in evaluation order, or None for a value.

    The search keeps its own stack and goes right to left through the
    parts of an application, projection or tuple, stopping at u, so it
    never looks left of it. Any other node is a leaf, a value when
    is_leaf_value holds; no binder, bag or tuple already proved a value
    is entered. ctx is the evaluation context, the (node, child index)
    pairs from the root down to u.
    """
    ctx, u, values = [], t, set()
    while True:
        tu = type(u)
        if tu is App or tu is Proj or tu is Tuple and u.items and id(u) not in values:
            k = 1 if tu is App else 0 if tu is Proj else len(u.items) - 1
            ctx.append((u, k))
            u = u.items[k] if tu is Tuple else u.arg
            continue
        if tu is not Tuple and not is_leaf_value(u):
            return u, ctx
        # u is a value: go left of it, past every parent whose parts are all values
        while ctx and not ctx[-1][1]:
            u = ctx.pop()[0]
            if type(u) is not Tuple:
                return u, ctx
            values.add(id(u))
        if not ctx:
            return None
        u, k = ctx[-1]
        ctx[-1] = u, k - 1
        u = u.fn if type(u) is App else u.items[k - 1]


def is_value_source(t: AnyTerm) -> bool:
    """Values are abstractions, closures whatever their bag, and tuples of values."""
    return decompose(t, lambda u: type(u) in (Abs, Closure, TClosure)) is None


is_value_int = is_value_target = is_value_source


def well_formed_int(t: IntTerm) -> bool:
    """Check the closure discipline everywhere in the term.

    For each closure: binders are pairwise distinct and disjoint, the
    body mentions only binder variables, a variable bag repeats the
    wrapped list exactly, and a value bag supplies one value per
    wrapped variable. A closure is checked when the walk reaches it,
    before its bag entries and its body, and the first failing closure
    answers False. One free-variable memo serves every closure, so
    nested bodies are walked once, not once per binder above them.
    """
    memo: dict = {}
    for u in _walk(t, True):
        tu = type(u)
        if tu is Closure:
            binders, bag = u.wrapped + u.params, u.bag
            if type(bag) is VarBag:
                fits = bag.vars == u.wrapped
            elif type(bag) is ValBag:
                fits = len(bag.vals) == len(u.wrapped) and all(map(is_value_int, bag.vals))
            else:
                raise TypeError(f"not an intermediate term: {u!r}")
            names = {v.name for v in binders}
            if not fits or len(names) != len(binders):
                return False
            if not all(v.name in names for v in free_vars(u.body, memo)):
                return False
        elif not (tu is Var or tu is App or tu is Proj or tu is Tuple):
            raise TypeError(f"not an intermediate term: {u!r}")
    return True


def prime_int(t: IntTerm | TargetTerm) -> bool:
    """True when every bag in the term is a variable bag (empty counts)."""
    for u in _walk(t, True):
        tu = type(u)
        if tu is Closure or tu is TClosure:
            if type(u.bag) is ValBag and u.bag.vals:
                return False
        elif not (tu is Var or tu is PVar or tu is App or tu is Proj or tu is Tuple):
            raise TypeError(f"not an intermediate or target term: {u!r}")
    return True


prime_target = prime_int


def norms_target(t: TargetTerm) -> tuple[int, int]:
    """Largest l- and s-projection indices outside closure bodies, 0 where there is none.

    Closure bags count as outside; closure bodies do not.
    """
    top: dict = {}
    for u in _walk(t, False):
        tu = type(u)
        if tu is PVar:
            pvars = (u,)
        elif tu is TClosure:
            pvars = u.bag.pvars if type(u.bag) is PVarBag else ()
        elif tu is App or tu is Proj or tu is Tuple:
            continue
        else:
            raise TypeError(f"not a target term: {u!r}")
        for p in pvars:
            top[p.base] = max(top.get(p.base, p.index), p.index)
    return top.get("l", 0), top.get("s", 0)


def closed_target(t: TargetTerm) -> bool:
    """Closed means no projection variable occurs outside a closure body."""
    return norms_target(t) == (0, 0)


def well_formed_target(t: TargetTerm) -> bool:
    """Check arity promises: body norms within (n, m), bag length n.

    Every projection index, in a bag or not, must be at least 1. A
    closure is checked when the walk reaches it, before its bag entries
    and its body, and the first failing node answers False.
    """
    for u in _walk(t, True):
        tu = type(u)
        if tu is PVar:
            if u.index < 1:
                return False
        elif tu is TClosure:
            n, m, bag = u.n_wrapped, u.n_params, u.bag
            if type(bag) is PVarBag:
                fits = len(bag.pvars) == n and all(p.index >= 1 for p in bag.pvars)
            elif type(bag) is ValBag:
                fits = len(bag.vals) == n and all(map(is_value_target, bag.vals))
            else:
                raise TypeError(f"not a target term: {u!r}")
            if not fits or n < 0 or m < 0:
                return False
            l, s = norms_target(u.body)
            if l > n or s > m:
                return False
        elif not (tu is App or tu is Proj or tu is Tuple):
            raise TypeError(f"not a target term: {u!r}")
    return True


_ENTER = object()  # on alpha_eq_source's stack, binds the binder lists it holds
_LEAVE = object()  # on alpha_eq_source's stack, unbinds them and settles the pair it holds


def alpha_eq_source(
    a: SourceTerm | IntTerm, b: SourceTerm | IntTerm, memo: dict | None = None
) -> bool:
    """Alpha equivalence of source or intermediate terms.

    Free variables compare by name. An abstraction's params, and a
    closure's wrapped and param lists, bind in the body; a closure's bag
    lives in the enclosing scope and is compared first. Two nodes of
    different kinds are unequal; a node of neither calculus raises
    TypeError.

    The comparison keeps its own stack. Each side maps a bound name to
    its binders' de Bruijn levels, innermost last: entering a scope
    pushes them, leaving it pops them, and two bound variables match
    when their levels do.

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
    ma: dict[str, list[int]] = {}
    mb: dict[str, list[int]] = {}
    # low: the lowest level a variable matched since the innermost pair
    # began, or -1 once a free name matched
    level = low = 0
    todo: list = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is _ENTER:  # b is the two binder lists
            for x, y in zip(*b):
                ma.setdefault(x.name, []).append(level)
                mb.setdefault(y.name, []).append(level)
                level += 1
            continue
        if a is _LEAVE:  # b is the pair, its binder lists and the low outside it
            a, b, pa, pb, before = b
            for x, y in zip(pa, pb):
                ma[x.name].pop()
                mb[y.name].pop()
            level -= len(pa)
            if memo is not None and low >= level:
                memo[id(a), id(b)] = (a, b)
            if before < low:
                low = before
            continue
        ta = type(a)
        if ta is not type(b):
            for u in a, b:
                if type(u) not in (Var, Abs, App, Proj, Tuple, Closure):
                    raise TypeError(f"not a source or intermediate term: {u!r}")
            return False
        if ta is Var:
            la, lb = ma.get(a.name), mb.get(b.name)
            ix = la[-1] if la else -1  # a free name's level is -1
            if ix != (lb[-1] if lb else -1) or ix < 0 and a.name != b.name:
                return False
            if ix < low:
                low = ix
            continue
        if memo is not None and (id(a), id(b)) in memo:
            continue
        pa = pb = ()  # the binder lists over the body, whose parts are compared outside them
        if ta is App:
            parts = (a.fn, b.fn), (a.arg, b.arg)
        elif ta is Proj:
            parts = ((a.arg, b.arg),) if a.index == b.index else None
        elif ta is Tuple:
            parts = tuple(zip(a.items, b.items)) if len(a.items) == len(b.items) else None
        elif ta is Abs:
            parts, pa, pb = (), a.params, b.params
        elif ta is Closure:
            ga, gb = a.bag, b.bag
            if type(ga) is VarBag and type(gb) is VarBag:
                ga, gb = ga.vars, gb.vars
            elif type(ga) is ValBag and type(gb) is ValBag:
                ga, gb = ga.vals, gb.vals
            else:
                return False
            same = len(ga) == len(gb) and len(a.wrapped) == len(b.wrapped)
            parts = tuple(zip(ga, gb)) if same else None
            pa, pb = a.wrapped + a.params, b.wrapped + b.params
        else:
            raise TypeError(f"not a source or intermediate term: {a!r}")
        if parts is None or len(pa) != len(pb):
            return False
        todo.append((_LEAVE, (a, b, pa, pb, low)))
        if ta is Abs or ta is Closure:
            todo += ((a.body, b.body), (_ENTER, (pa, pb)))
        todo += reversed(parts)
        low = level
    return True


alpha_eq_int = alpha_eq_source
