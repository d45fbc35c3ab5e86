"""A binder chain 5,000 deep through every pass, and a guard against per-level recursion.

`fun(x1) -> ... -> fun(xd) -> x1`, applied to d unary tuples, nests d
binders; every closure of its wrapped form wraps x1 alone, so that form
stays linear in d. Every pass that builds a result from a term's parts
runs on `terms.fold`, and a leaf rule hands a binder body or a bag's
entries back to the fold as `Parts` instead of folding them itself, so
the fold takes them onto its own stack. When leaf rules called `fold`,
each binder cost two frames, and `closure_convert` raised
`RecursionError` from d = 1,000.

`reverse_convert` runs on the chain that ends in xd, whose closures wrap
nothing. On the chain above, naming mints fresh wrapped names for every
closure and unwrap substitutes the bag's names for them at every level,
which is quadratic in d.

The last test runs every check again in a subprocess whose recursion
limit is lowered to 200, so a pass that recurses once per level fails
there at any depth the other tests use.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tamc.analysis import MACHINES
from tamc.calculi import DEFAULT_FUEL
from tamc.machine_common import run_loop
from tamc.syntax import print_int, print_source, print_target
from tamc.terms import (
    Abs,
    App,
    TermMetrics,
    Tuple,
    Var,
    closed_target,
    free_vars,
    metrics,
    size_int,
    well_formed_int,
    well_formed_target,
)
from tamc.transforms import closure_convert, reverse_convert, unwrap, wrap

D = 5_000
IDENTITY = Abs((Var("z"),), Var("z"))


def chain(d: int, last: bool = False) -> Abs:
    """fun(x1) -> ... -> fun(xd) -> x1, or -> xd when last."""
    xs = [Var(f"x{k}") for k in range(1, d + 1)]
    t = xs[-1] if last else xs[0]
    for x in reversed(xs):
        t = Abs((x,), t)
    return t


def applied(d: int) -> App:
    """chain(d) applied to <fun(z) -> z>, then to d - 1 copies of <<>>; it returns fun(z) -> z."""
    t = chain(d)
    for k in range(d):
        t = App(t, Tuple((IDENTITY if k == 0 else Tuple(()),)))
    return t


def check_free_vars(d):
    assert free_vars(applied(d)) == ()


def check_metrics(d):
    # each binder adds 2, each application 1, <<>> 1 and <fun(z) -> z> 4
    assert metrics(applied(d)) == TermMetrics(4 * d + 4, 1, d)


def check_wrap_and_unwrap(d):
    w = wrap(chain(d))
    assert well_formed_int(w)
    assert size_int(w) == 2 * d  # x1 is the only wrapped variable
    assert print_source(unwrap(w)) == print_source(chain(d))


def check_closure_convert(d):
    c = closure_convert(applied(d))
    assert well_formed_target(c) and closed_target(c)


def check_reverse_convert(d):
    c = closure_convert(chain(d, last=True))
    assert print_target(closure_convert(reverse_convert(c))) == print_target(c)


def check_printers(d):
    inner = range(2, d + 1)
    assert print_source(chain(d)) == "fun(x1) -> " + "".join(f"fun(x{k}) -> " for k in inner) + "x1"
    assert print_int(wrap(chain(d))) == (
        "[(); (x1). " + "".join(f"[(x1); (x{k}). " for k in inner) + "x1" + "]<x1>" * (d - 1) + "]<>"
    )
    assert print_target(closure_convert(chain(d))) == (
        "[^{0,1} " + "[^{1,1} " * (d - 1) + "pi1 l" + "]<pi1 l>" * (d - 2) + "]<pi1 s>]<>"
    )


def check_machines(d):
    t = applied(d)
    for name, m in MACHINES.items():
        # some betas in, with thousands of control stack entries still to go
        mid = m.run(t, 6 * d)
        back = m.readback(mid.final_state)
        assert closed_target(back) if name == "target" else free_vars(back) == (), name
        rec = run_loop(m.step, m.measure, mid.final_state, DEFAULT_FUEL)
        assert rec.final == "successful" and mid.beta + rec.beta == d, name
        assert print_source(m.read_out(m.readback(rec.final_state))) in ("fun(z) -> z", "fun(x#0) -> x#0"), name


CHECKS = {
    "free_vars": check_free_vars,
    "metrics": check_metrics,
    "wrap_and_unwrap": check_wrap_and_unwrap,
    "closure_convert": check_closure_convert,
    "reverse_convert": check_reverse_convert,
    "printers": check_printers,
    "machines": check_machines,
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_a_binder_chain_5000_deep(name):
    CHECKS[name](D)


def test_no_pass_recurses_per_level_under_a_recursion_limit_of_200():
    # The limit is lowered, never raised: deep enough input would then
    # overflow the C stack and crash the interpreter instead of raising.
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    paths = [str(here.parent / "src"), str(here), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    script = (
        "import sys, test_binder_chain_depth as m\n"
        "sys.setrecursionlimit(200)\n"
        "for name in sorted(m.CHECKS):\n"
        "    m.CHECKS[name](m.D)\n"
        "print('ok', len(m.CHECKS))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["ok", str(len(CHECKS))]
