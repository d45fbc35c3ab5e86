"""Alpha equality 100,000 deep, under a recursion limit of 200.

`alpha_eq_source` keeps binder scopes and pending pairs on its own
stack, so nesting costs it no Python frame. When it called itself once
per level it raised `RecursionError` on a binder chain from about 995
deep, and `tamc bisim` reported a function applied 3,000 times to its
parameter as nested too deeply, from clause (c)'s comparison.

Each comparison runs in a subprocess whose recursion limit is lowered
to 200, with and without a memo. Nothing here compares with `==` or
hashes a term, since those still recurse.
"""

import os
import subprocess
import sys
from pathlib import Path

from tamc.cli import main
from tamc.terms import Abs, App, Closure, Tuple, ValBag, Var, VarBag, alpha_eq_source

D = 100_000


def chain(d: int, prefix: str, target: int = 1) -> Abs:
    """fun(p1) -> ... -> fun(pd) -> p<target>."""
    t = Var(f"{prefix}{target}")
    for k in range(d, 0, -1):
        t = Abs((Var(f"{prefix}{k}"),), t)
    return t


def closure_chain(d: int, prefix: str) -> Closure:
    """The wrapped form of chain(d, prefix): each closure wraps p1 and binds its own parameter."""
    first = Var(f"{prefix}1")
    t = first
    for k in range(d, 1, -1):
        t = Closure((first,), (Var(f"{prefix}{k}"),), App(t, Var(f"{prefix}{k}")), VarBag((first,)))
    return Closure((), (first,), t, ValBag(()))


def spine(n: int, name: str) -> Abs:
    """fun(f) -> f f ... f, f applied n times."""
    f = Var(name)
    t = f
    for _ in range(n):
        t = App(t, f)
    return Abs((f,), t)


def nest(d: int) -> Tuple:
    t = Tuple(())
    for _ in range(d):
        t = Tuple((t,))
    return t


CASES = {
    "binder chains": (lambda: chain(D, "x"), lambda: chain(D, "y"), True),
    "binder chains one level off": (lambda: chain(D, "x"), lambda: chain(D, "y", 2), False),
    "closure chains": (lambda: closure_chain(D, "x"), lambda: closure_chain(D, "y"), True),
    "application spines": (lambda: spine(D, "f"), lambda: spine(D, "g"), True),
    "tuple nests": (lambda: nest(D), lambda: nest(D), True),
}


def check(name):
    make_a, make_b, equal = CASES[name]
    a, b = make_a(), make_b()
    assert alpha_eq_source(a, b) is equal, name
    assert alpha_eq_source(a, b, {}) is equal, name


def test_deep_comparisons_under_a_recursion_limit_of_200():
    # The limit is lowered, never raised: deep enough input would then
    # overflow the C stack and crash the interpreter instead of raising.
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    paths = [str(here.parent / "src"), str(here), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    script = (
        "import sys, test_alpha_depth as m\n"
        "sys.setrecursionlimit(200)\n"
        "for name in m.CASES:\n"
        "    m.check(name)\n"
        "print('ok', len(m.CASES))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["ok", str(len(CASES))]


def test_bisim_of_a_function_applied_3000_times(tmp_path, capsys):
    path = tmp_path / "spine.lam"
    path.write_text("fun(f) -> f" + " f" * 3_000 + "\n")
    assert main(["bisim", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "1/1 agreed"
    assert captured.err == ""
