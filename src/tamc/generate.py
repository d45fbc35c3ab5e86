"""Seeded random closed source terms for differential testing.

Terms are closed by construction: variables are only drawn from the
binders in scope. Applications are built head-first with a literal
abstraction and an argument tuple of exactly matching width, and
projections index into a literal tuple of sufficient width, so the
obvious clash sources are ruled out syntactically. Clashes can still
arise (a bound variable applied to the wrong shape, for instance);
candidates whose fueled interpreter run ends in a clash are dropped
and regenerated, which keeps the corpus dominated by terms that
actually exercise beta and pi.

Everything is driven by one random.Random seeded from the config, so
a fixed seed reproduces the identical term sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .calculi import ClashOutcome, normalize_source
from .terms import Abs, App, Proj, SourceTerm, Tuple, Var


@dataclass(frozen=True, slots=True)
class GenConfig:
    seed: int = 0


_MAX_DEPTH = 6
_MAX_WIDTH = 3
_ORACLE_FUEL = 200
_MAX_RETRIES = 200


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0

    def fresh_params(self, k: int) -> tuple:
        out = []
        for _ in range(k):
            self.counter += 1
            out.append(Var(f"v{self.counter}"))
        return tuple(out)

    def leaf(self, scope: tuple) -> SourceTerm:
        rng = self.rng
        if scope and rng.random() < 0.6:
            return rng.choice(scope)
        if rng.random() < 0.7:
            (p,) = self.fresh_params(1)
            return Abs((p,), p)
        return Tuple(())

    def go(self, depth: int, scope: tuple) -> SourceTerm:
        rng = self.rng
        if depth <= 1:
            # shallow budgets produce plain values
            return self.leaf(scope)
        roll = rng.random()
        if roll < 0.30:
            # redex: literal abstraction applied to a matching tuple
            k = rng.randint(0, _MAX_WIDTH)
            params = self.fresh_params(k)
            body = self.go(depth - 1, scope + params)
            args = Tuple(tuple(self.go(depth - 2, scope) for _ in range(k)))
            return App(Abs(params, body), args)
        if roll < 0.45:
            # projection into a literal tuple of visible width
            w = rng.randint(1, _MAX_WIDTH)
            i = rng.randint(1, w)
            items = tuple(self.go(depth - 2, scope) for _ in range(w))
            return Proj(i, Tuple(items))
        if roll < 0.60:
            w = rng.randint(0, _MAX_WIDTH)
            return Tuple(tuple(self.go(depth - 1, scope) for _ in range(w)))
        if roll < 0.85:
            k = rng.randint(0, _MAX_WIDTH - 1)
            params = self.fresh_params(k)
            return Abs(params, self.go(depth - 1, scope + params))
        if scope and rng.random() < 0.5:
            # apply something from scope; the oracle filter catches clashes
            args = Tuple(tuple(self.go(depth - 2, scope) for _ in range(rng.randint(0, 1))))
            return App(rng.choice(scope), args)
        return self.leaf(scope)


def gen_corpus(cfg: GenConfig, count: int) -> list[SourceTerm]:
    rng = random.Random(cfg.seed)
    gen = _Gen(rng)
    out = []
    for _ in range(count):
        for _ in range(_MAX_RETRIES):
            t = gen.go(_MAX_DEPTH, ())
            r = normalize_source(t, fuel=_ORACLE_FUEL)
            if not isinstance(r.final, ClashOutcome):
                out.append(t)
                break
        else:
            raise RuntimeError("generator kept producing clashing terms")
    return out
