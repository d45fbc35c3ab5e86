"""The two environment representations of the stacked machine, side by side.

The intermediate and target machines are one machine over a named and
a positional environment. On the same source program they must take
the same transitions and stop the same way; their counted costs may
differ only where the representations do: the scan of a variable
lookup (usubv) and the bindings ebeta installs.
"""

from pathlib import Path

from tamc.generate import GenConfig, gen_corpus
from tamc.machine_int import run_itam
from tamc.machine_target import run_ttam
from tamc.syntax import parse
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
