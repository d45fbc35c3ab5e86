"""Deep inputs through the stepper, the source substitution and the printers.

The three interpreters find the redex with `terms.decompose`, one
explicit-stack search, the source substitution is a leaf rule over
`terms.fold`, and the printers are folds, so nesting outside binders
costs them no Python frames. When each recursed through every node,
the inputs below raised `RecursionError`: `normalize_source` on an
argument spine 308 deep, `subst_source` on a tuple chain 604 deep and
the printers on chains about 1,000 deep, and `tamc run` of a Church
program whose result is a tuple nested 512 deep exited 2 ("input
nested too deeply").

No check below compares a deep term with `==`: dataclass equality still
recurses.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tamc
from tamc.analysis import MACHINES
from tamc.calculi import (
    FuelExhausted,
    StepLabel,
    ValueOutcome,
    normalize_int,
    normalize_source,
    normalize_target,
    subst_source,
)
from tamc.syntax import print_int, print_source, print_target
from tamc.terms import Abs, App, Proj, Tuple, Var
from tamc.transforms import closure_convert, wrap

DATA = Path(__file__).resolve().parent / "data"

X = Var("x")
IDENTITY = Abs((X,), X)
UNIT = Tuple(())

NORMALIZE = {
    "source": lambda t, fuel: normalize_source(t, fuel),
    "int": lambda t, fuel: normalize_int(wrap(t), fuel),
    "target": lambda t, fuel: normalize_target(closure_convert(t), fuel),
}


def _chain(depth: int, inner):
    """inner nested in depth unary tuples."""
    for _ in range(depth):
        inner = Tuple((inner,))
    return inner


def _unwrap_chain(t):
    """How many unary tuples t is nested in, and what they hold."""
    depth = 0
    while type(t) is Tuple and len(t.items) == 1:
        t, depth = t.items[0], depth + 1
    return depth, t


def _argument_spine(depth: int):
    """I <I <... <<>>...>>, with depth applications of the identity I."""
    t = UNIT
    for _ in range(depth):
        t = App(IDENTITY, Tuple((t,)))
    return t


@pytest.mark.parametrize("calculus", sorted(NORMALIZE))
def test_a_redex_at_the_bottom_of_a_deep_tuple_chain(calculus):
    out = NORMALIZE[calculus](_chain(2000, App(IDENTITY, Tuple((UNIT,)))), 3)
    assert out.labels == (StepLabel.BETA,)
    assert type(out.final) is ValueOutcome
    depth, inner = _unwrap_chain(out.term)
    assert depth == 2000 and inner.items == ()


@pytest.mark.parametrize("calculus", sorted(NORMALIZE))
def test_a_deep_argument_spine_steps_from_its_innermost_redex(calculus):
    out = NORMALIZE[calculus](_argument_spine(2000), 3)
    assert out.labels == (StepLabel.BETA,) * 3
    assert type(out.final) is FuelExhausted
    # each beta removes the innermost application and its argument tuple
    t = out.term
    for _ in range(1997):
        assert type(t) is App and type(t.arg) is Tuple
        t = t.arg.items[0]
    assert t == UNIT


def test_subst_source_through_a_deep_chain():
    depth, inner = _unwrap_chain(subst_source(_chain(5000, X), (X,), (UNIT,)))
    assert depth == 5000 and inner == UNIT


def test_subst_source_renames_a_binder_above_a_deep_chain():
    y = Var("y")
    out = subst_source(Abs((y,), _chain(5000, App(X, y))), (X,), (y,))
    assert out.params == (Var("y_0"),)
    depth, inner = _unwrap_chain(out.body)
    assert depth == 5000 and inner == App(y, Var("y_0"))


def test_the_printers_on_deep_chains():
    n = 10_000
    t = _chain(n, IDENTITY)
    assert print_source(t) == "<" * n + "fun(x) -> x" + ">" * n
    assert print_int(wrap(t)) == "<" * n + "[(); (x). x]<>" + ">" * n
    assert print_target(closure_convert(t)) == "<" * n + "[^{0,1} pi1 s]<>" + ">" * n


def test_the_printers_on_deep_spines_and_projections():
    n = 10_000
    f = Var("f")
    left, right, proj = f, X, X
    for _ in range(n):
        left, right, proj = App(left, X), App(f, right), Proj(1, proj)
    assert print_source(left) == "f" + " x" * n
    assert print_source(right) == "f (" * (n - 1) + "f x" + ")" * (n - 1)
    assert print_source(proj) == "pi 1 " * n + "x"
    assert print_int(wrap(Abs((f, X), left))).endswith("f" + " x" * n + "]<>")
    assert print_target(closure_convert(Abs((f, X), proj))) == (
        "[^{0,2} " + "pi 1 " * n + "(pi2 s)]<>"
    )


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_tamc_run_prints_the_512_deep_church_result(machine):
    env = dict(os.environ)
    src = str(Path(tamc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    program = str(DATA / "church-512-tuples.lam")
    proc = subprocess.run(
        [sys.executable, "-m", "tamc.cli", "run", program, "--machine", machine],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("<" * 512 + "<>" + ">" * 512 + "\n").encode()
    assert proc.stdout == (DATA / "run-church-512-tuples.txt").read_bytes()
