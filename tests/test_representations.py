"""The named and positional representations measured by one function each.

`size_int`, `prime_int`, `is_value_int` and `unfolded_size_from_int`
each have one body that matches both the intermediate and the target
constructors; the `*_target` names are the same functions. Along the
interpreter trajectories of a program in the three calculi, the k-th
intermediate and the k-th target reduct must measure alike, and their
unfolded size must be the size of the k-th source reduct.
"""

from pathlib import Path

import pytest

from tamc.analysis import unfolded_size_from_int, unfolded_size_from_target
from tamc.calculi import Stepped, step_int, step_source, step_target, subst_int
from tamc.generate import GenConfig, gen_corpus
from tamc.syntax import parse
from tamc.terms import (
    Abs,
    Var,
    is_value_int,
    is_value_target,
    metrics,
    prime_int,
    prime_target,
    size_int,
    size_target,
)
from tamc.transforms import closure_convert, wrap

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FUEL = 200


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
    progs += [(f"generated term {k}", t) for k, t in enumerate(gen_corpus(GenConfig(seed=0), 200))]
    return progs


def test_named_and_positional_reducts_measure_alike():
    programs = _programs()
    assert len(programs) == 218
    reducts = 0
    for name, u in programs:
        source = _trajectory(step_source, u)
        inter = _trajectory(step_int, wrap(u))
        target = _trajectory(step_target, closure_convert(u))
        assert len(source) == len(inter) == len(target), name
        for k, (s, i, t) in enumerate(zip(source, inter, target)):
            where = (name, k)
            assert size_int(i) == size_target(t), where
            assert prime_int(i) == prime_target(t), where
            assert is_value_int(i) == is_value_target(t), where
            assert unfolded_size_from_int(i) == unfolded_size_from_target(t), where
            assert unfolded_size_from_int(i) == metrics(s).size, where
            reducts += 1
    assert reducts == 807


@pytest.mark.parametrize(
    "fn",
    [size_int, prime_int, unfolded_size_from_int, lambda t: subst_int(t, (), (), (), ())],
    ids=["size_int", "prime_int", "unfolded_size_from_int", "subst_int"],
)
def test_intermediate_functions_reject_source_abstractions(fn):
    with pytest.raises(TypeError):
        fn(Abs((Var("x"),), Var("x")))
