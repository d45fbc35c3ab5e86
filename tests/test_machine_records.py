"""The records the machines build at every transition.

Transitions, costs, states, stack entries and the target machine's
positional environment are NamedTuples. They must stay immutable and
print as the frozen dataclasses they replaced did (the trace,
`--dump-states` and failure messages show them), and
`run_loop`, which unpacks them and tallies its counts once at the end,
must total exactly what each transition reports.
"""

from pathlib import Path

import pytest

from tamc import machine_source, machine_stacked
from tamc.analysis import MACHINES
from tamc.generate import GenConfig, gen_corpus
from tamc.machine_common import (
    UNIT_COST,
    ArgVal,
    Cost,
    MachineFinal,
    ProjFrame,
    Transition,
    run_loop,
)
from tamc.machine_source import STup
from tamc.machine_target import TupledEnv
from tamc.syntax import parse
from tamc.terms import Tuple, Var

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

X = Var("x")
EMPTY = Tuple(())

# Each record with its repr as the frozen dataclasses of the parent
# commit printed it.
RECORDS = [
    (Cost(1), "Cost(elem=1, env_copy=0, lookup=0, subv_lookup=0)"),
    (
        Cost(3, env_copy=1, lookup=2, subv_lookup=2),
        "Cost(elem=3, env_copy=1, lookup=2, subv_lookup=2)",
    ),
    (
        Transition("usea4", machine_stacked.State(EMPTY, (), (), ()), Cost(1)),
        "Transition(name='usea4', state=State(focus=Tuple(items=()), env=(), cstack=(),"
        " astack=()), cost=Cost(elem=1, env_copy=0, lookup=0, subv_lookup=0))",
    ),
    (ArgVal(EMPTY), "ArgVal(value=Tuple(items=()))"),
    (ProjFrame(2), "ProjFrame(index=2)"),
    (
        machine_stacked.State(machine_stacked.Unev(X), (), (), ()),
        "State(focus=Unev(term=Var(name='x')), env=(), cstack=(), astack=())",
    ),
    (machine_stacked.Unev(X), "Unev(term=Var(name='x'))"),
    (machine_stacked.PendingFn(X), "PendingFn(term=Var(name='x'))"),
    (
        machine_stacked.PartialTuple((X,), (EMPTY,)),
        "PartialTuple(pending=(Var(name='x'),), done=(Tuple(items=()),))",
    ),
    (
        machine_source.SState(machine_source.Unev(X, ()), ()),
        "SState(focus=Unev(term=Var(name='x'), env=()), stack=())",
    ),
    (machine_source.Unev(X, ()), "Unev(term=Var(name='x'), env=())"),
    (machine_source.PendingFn(X, ()), "PendingFn(term=Var(name='x'), env=())"),
    (
        machine_source.PartialTuple((X,), (), (STup(()),)),
        "PartialTuple(pending=(Var(name='x'),), env=(), done=(STup(items=()),))",
    ),
    (TupledEnv((), (EMPTY,)), "TupledEnv(lvals=(), svals=(Tuple(items=()),))"),
]
IDS = [f"{type(r).__module__}.{type(r).__name__}-{k}" for k, (r, _) in enumerate(RECORDS)]


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_record_keeps_the_dataclass_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_record_fields_cannot_be_assigned(record, text):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def _programs():
    out = []
    for p in sorted(CORPUS.glob("*.lam")):
        fuel = 2_000 if p.name == "omega.lam" else 100_000
        out.append((p.name, parse(p.read_text()), fuel))
    for k, t in enumerate(gen_corpus(GenConfig(seed=0), 200)):
        out.append((f"generated term {k}", t, 100_000))
    return out


def _reference_run(step, state, fuel):
    """(labels, counts, the four cost totals, final status), each
    transition's cost re-summed field by field, with run_loop's one
    extra step past the fuel."""
    labels, counts = [], {}
    elem = env_copy = lookup = subv = 0
    for _ in range(fuel + 1):
        r = step(state)
        if isinstance(r, MachineFinal):
            return labels, counts, (elem, env_copy, lookup, subv), r.status
        if len(labels) == fuel:
            break
        assert isinstance(r, Transition) and type(r.cost) is Cost
        labels.append(r.name)
        counts[r.name] = counts.get(r.name, 0) + 1
        elem += r.cost.elem
        env_copy += r.cost.env_copy
        lookup += r.cost.lookup
        subv += r.cost.subv_lookup
        state = r.state
    return labels, counts, (elem, env_copy, lookup, subv), "fuel"


@pytest.mark.parametrize("machine", tuple(MACHINES))
def test_run_loop_totals_what_each_transition_reports(machine):
    m = MACHINES[machine]
    programs = _programs()
    assert len(programs) == 218
    for name, u, fuel in programs:
        state = m.init(m.translate(u))
        rec = run_loop(m.step, m.measure, state, fuel)
        labels, counts, totals, final = _reference_run(m.step, state, fuel)
        assert rec.labels == tuple(labels), name
        assert list(rec.counts.items()) == list(counts.items()), name
        assert type(rec.counts) is dict, name
        assert (rec.elem_ops, rec.env_copy_ops, rec.lookup_ops, rec.subv_lookup_ops) == totals, name
        assert sum(rec.elem_by_name.values()) == rec.elem_ops, name
        assert rec.final == final, name


@pytest.mark.parametrize("machine", tuple(MACHINES))
def test_shared_unit_cost_is_a_fresh_unit_cost(machine):
    assert UNIT_COST == Cost(1)
    assert type(UNIT_COST) is Cost
    assert tuple(UNIT_COST) == (1, 0, 0, 0)
    m = MACHINES[machine]
    state = m.init(m.translate(parse((CORPUS / "mixed-pipeline.lam").read_text())))
    shared = set()
    while not isinstance(r := m.step(state), MachineFinal):
        if r.cost is UNIT_COST:
            shared.add(r.name)
        state = r.state
    assert shared
