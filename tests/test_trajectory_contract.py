"""One fuelled interpreter loop behind `normalize_*` and the bisim walk.

Both take at most `fuel` steps and then one more to tell a stop from a
cut. Run at a program's exact step count, the run ends in its final
outcome; one step less, or at fuel 0 for a program that steps at all,
it ends in `FuelExhausted`. `normalize_*` and `bisim._interp_trajectory`
must agree on the labels, the last term and the classification.

The machines' `run_loop` keeps the same contract with its own record:
the final status at the exact transition count, `"fuel"` one short,
and exactly one probe step past the fuel.
"""

from pathlib import Path

import pytest

from tamc.analysis import MACHINES
from tamc.bisim import _interp_trajectory, _outcome_str
from tamc.calculi import (
    FuelExhausted,
    normalize_int,
    normalize_source,
    normalize_target,
    step_int,
    step_source,
    step_target,
)
from tamc.machine_common import run_loop
from tamc.syntax import parse
from tamc.transforms import closure_convert, wrap

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# omega never stops; at this cap it is cut like any other run
CAP = 300

CALCULI = (
    ("source", lambda u: u, normalize_source, step_source),
    ("int", wrap, normalize_int, step_int),
    ("target", closure_convert, normalize_target, step_target),
)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.lam")), ids=lambda p: p.stem)
def test_normalize_and_the_bisim_trajectory_agree_at_the_edges_of_the_fuel(path):
    u = parse(path.read_text())
    for calculus, translate, normalize, step in CALCULI:
        t = translate(u)
        full = normalize(t, fuel=CAP)
        exact = len(full.labels)
        for fuel in sorted({exact, max(exact - 1, 0), 0}):
            where = (path.stem, calculus, fuel)
            r = normalize(t, fuel=fuel)
            terms, labels, final = _interp_trajectory(step, t, fuel)
            assert labels == r.labels == full.labels[:fuel], where
            assert len(terms) == len(labels) + 1, where
            assert terms[0] is t and terms[-1] == r.term, where
            assert _outcome_str(final) == _outcome_str(r.final), where
            if fuel < exact or isinstance(full.final, FuelExhausted):
                assert isinstance(r.final, FuelExhausted), where
            else:
                assert r.final == full.final, where


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.lam")), ids=lambda p: p.stem)
def test_run_loop_stops_at_the_edges_of_the_fuel(path):
    u = parse(path.read_text())
    for machine, m in MACHINES.items():
        start = m.init(m.translate(u))
        full = run_loop(m.step, m.measure, start, CAP)
        exact = full.steps
        for fuel in sorted({exact, max(exact - 1, 0), 0}):
            where = (path.stem, machine, fuel)
            calls = 0

            def step(s):
                nonlocal calls
                calls += 1
                return m.step(s)

            r = run_loop(step, m.measure, start, fuel)
            assert r.labels == full.labels[:fuel], where
            assert calls == fuel + 1, where  # the transitions, then one probe
            assert r.elem_ops == sum(r.elem_by_name.values()), where
            if fuel < exact or full.final == "fuel":
                assert (r.final, r.clash) == ("fuel", None), where
            else:
                assert r == full, where
