"""Pieces shared by the three tupled abstract machines.

Each machine exposes a step function from states to either a
Transition (name, successor state, instrumented cost) or a
MachineFinal (successful stop or clash). The run loop below drives a
step function for at most `fuel` transitions and accumulates a
RunRecord.

Costs are counted, never measured: each transition reports
1 + env-copy length + tuple/bag width where applicable, so runs are
deterministic and machine-independent. Lookup cost is the scan
position (or 1 for positional access); subv_lookup isolates the cost
of plain variable lookups so per-lookup trends can be compared across
machines.

The source and intermediate machines share the flat named environment
and its one lookup, below; the target's positional one is in
`machine_target`.

The records a machine builds at every transition (Transition, Cost,
states and stack entries) are NamedTuples. They are immutable and keep
the dataclass repr, but they compare as plain tuples, so records of
different classes with equal fields are equal (Unev(t) == PendingFn(t));
nothing in the library compares records. The step functions dispatch
on exact types (`type(x) is C`) and build them with make_record, which
takes every field, defaults included.
MachineFinal and RunRecord, built once per run, stay dataclasses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .calculi import ClashKind, StepLabel


class MachineInvariantError(Exception):
    """An internal machine invariant broke; reachable states never raise this."""


def lookup(env: tuple, var) -> tuple:
    """Return (value, scan position) for var in a named environment.

    A named environment is a tuple of (Var, value) bindings, innermost
    first, so the first binding of a name shadows the later ones. The
    scan position, counted from 1, is the lookup's cost.
    """
    for pos, (v, val) in enumerate(env, start=1):
        if v.name == var.name:
            return val, pos
    raise MachineInvariantError(f"unbound variable {var.name}")


class Cost(NamedTuple):
    elem: int
    env_copy: int = 0
    lookup: int = 0
    subv_lookup: int = 0


make_record = tuple.__new__
"""make_record(Cls, fields) builds the NamedTuple Cls from the tuple of all its fields.

fields holds every field in order, defaults included, as in
make_record(Cost, (1 + n, n, 0, 0)). The call goes straight to the
built-in tuple constructor, skipping the Python-level __new__ that
NamedTuple generates, and checks nothing: a missing or extra field
makes a record of the wrong length without an error.
"""

# The cost of every transition that does one unit of work and nothing else.
UNIT_COST = Cost(1)


class Transition(NamedTuple):
    name: str
    state: object
    cost: Cost


@dataclass(frozen=True, slots=True)
class MachineFinal:
    status: str  # "successful" or "clash"
    clash: ClashKind | None = None


# The principal transitions and the calculus step each one performs;
# every other transition is overhead.
PRINCIPAL = {"ebeta": StepLabel.BETA, "epi": StepLabel.PI}


class ArgVal(NamedTuple):
    """Control stack entry: an evaluated argument waiting for its function."""

    value: object


class ProjFrame(NamedTuple):
    """Control stack entry: a projection waiting for its tuple."""

    index: int


@dataclass(frozen=True)
class RunRecord:
    """Everything observed along one machine run."""

    labels: tuple[str, ...]
    counts: dict
    final: str  # "successful", "clash", or "fuel"
    clash: ClashKind | None
    final_state: object
    elem_ops: int
    env_copy_ops: int
    lookup_ops: int
    subv_lookup_ops: int
    measures: tuple[int, ...] | None = None
    elem_by_name: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return len(self.labels)

    @property
    def beta(self) -> int:
        return self.counts.get("ebeta", 0)

    @property
    def pi(self) -> int:
        return self.counts.get("epi", 0)

    @property
    def principal_labels(self) -> tuple[StepLabel, ...]:
        return tuple(PRINCIPAL[n] for n in self.labels if n in PRINCIPAL)


def run_loop(step, measure, state, fuel: int, record_measure: bool = False) -> RunRecord:
    labels: list[str] = []
    elem_by_name: dict = {}
    env_copy = lookup = subv = 0
    measures = [measure(state)] if record_measure else None
    for _ in range(fuel):
        r = step(state)
        if isinstance(r, MachineFinal):
            break
        name, state, cost = r
        labels.append(name)
        elem_by_name[name] = elem_by_name.get(name, 0) + cost.elem
        env_copy += cost.env_copy
        lookup += cost.lookup
        subv += cost.subv_lookup
        if measures is not None:
            measures.append(measure(state))
    else:
        r = step(state)  # one probe past the fuel tells a stop from a cut
    stopped = isinstance(r, MachineFinal)
    return RunRecord(
        labels=tuple(labels),
        counts=dict(Counter(labels)),  # in order of first occurrence
        final=r.status if stopped else "fuel",
        clash=r.clash if stopped else None,
        final_state=state,
        elem_ops=sum(elem_by_name.values()),
        env_copy_ops=env_copy,
        lookup_ops=lookup,
        subv_lookup_ops=subv,
        measures=tuple(measures) if measures is not None else None,
        elem_by_name=elem_by_name,
    )
