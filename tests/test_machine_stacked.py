"""The two environment representations of the stacked machine, side by side.

The intermediate and target machines are one machine over a named and
a positional environment. On the same source program they must take
the same transitions and stop the same way; their counted costs may
differ only where the representations do: the scan of a variable
lookup (usubv) and the bindings ebeta installs.
"""

from pathlib import Path

import pytest

from tamc.generate import GenConfig, gen_corpus
from tamc.machine_common import MachineInvariantError
from tamc.machine_int import readback_itam, run_itam
from tamc.machine_stacked import State, Unev
from tamc.machine_target import TupledEnv, readback_ttam, run_ttam
from tamc.syntax import parse
from tamc.terms import App, PVar, Tuple, Var
from tamc.transforms import closure_convert, wrap

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _programs():
    out = []
    for p in sorted(CORPUS.glob("*.lam")):
        fuel = 1_000 if p.name == "omega.lam" else None
        out.append((p.name, parse(p.read_text()), fuel))
    for k, t in enumerate(gen_corpus(GenConfig(seed=0), 500)):
        out.append((f"generated term {k}", t, None))
    return out


def test_named_and_positional_machines_are_twins():
    programs = _programs()
    assert len(programs) == 518
    costs_differ = set()
    for name, u, fuel in programs:
        kw = {} if fuel is None else {"fuel": fuel}
        named = run_itam(wrap(u), **kw)
        positional = run_ttam(closure_convert(u), **kw)
        assert named.labels == positional.labels, name
        assert named.final == positional.final, name
        assert named.clash is positional.clash, name
        differ = {
            k
            for k in named.elem_by_name.keys() | positional.elem_by_name.keys()
            if named.elem_by_name.get(k) != positional.elem_by_name.get(k)
        }
        assert differ <= {"ebeta", "usubv"}, (name, differ)
        costs_differ |= differ
    assert costs_differ == {"ebeta", "usubv"}


# Unreachable from a valid initial term: the focus mentions a variable
# that the environment does not bind. Readback substitutes with the
# machine's own lookup, so it fails as a lookup in a step would.
BROKEN = [
    (readback_itam, State(Unev(App(Var("y"), Tuple(()))), ((Var("x"), Tuple(())),), (), ())),
    (readback_ttam, State(Unev(App(PVar("l", 1), Tuple(()))), TupledEnv((), (Tuple(()),)), (), ())),
]


@pytest.mark.parametrize("readback,state", BROKEN, ids=["int", "target"])
@pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
def test_readback_of_an_unbound_variable_breaks_an_invariant(readback, state, memo):
    with pytest.raises(MachineInvariantError):
        readback(state, {} if memo else None)
