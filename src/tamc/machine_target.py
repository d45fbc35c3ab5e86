"""Stacked machine for the target calculus: the positional environment.

The environment is a pair of positional tuples, the wrapped values and
the parameter values of the closure being executed. An indexed
variable resolves by position, so a lookup costs one unit whatever the
environment size; ebeta installs the closure's value bag and the
argument tuple by reference and costs 1. Those two costs are this
representation's reason to exist; the bench harness measures them.
Lookup and install are all this module gives `machine_stacked`, which
is the machine itself; readback substitutes through the same lookup.

TupledEnv is a NamedTuple, like every record a transition builds (ebeta
builds one), so `any(env)` is false exactly when it binds nothing, as
for the named environment: the factory's empty-environment test.
"""

from __future__ import annotations

from typing import NamedTuple

from .calculi import DEFAULT_FUEL
from .machine_common import MachineInvariantError, RunRecord, run_loop
from .machine_stacked import State, Unev, stacked_machine
from .terms import (
    PVar,
    TClosure,
    TargetTerm,
    closed_target,
    prime_target,
    well_formed_target,
)


class TupledEnv(NamedTuple):
    lvals: tuple  # values of the wrapped variables, position 1 first
    svals: tuple  # values of the parameters, position 1 first


EMPTY_ENV = TupledEnv((), ())


def init_ttam(t: TargetTerm) -> State:
    if not well_formed_target(t):
        raise ValueError("initial term must be well formed")
    if not closed_target(t):
        raise ValueError("initial term must be closed")
    if not prime_target(t):
        raise ValueError("initial term must have variable bags only")
    return State(Unev(t), EMPTY_ENV, (), ())


def _resolve(env: TupledEnv, pv: PVar) -> tuple:
    """Return (value, 1): positional access has no scan."""
    vals = env.lvals if pv.base == "l" else env.svals
    if not 1 <= pv.index <= len(vals):
        raise MachineInvariantError(f"indexed variable pi{pv.index} {pv.base} out of range")
    return vals[pv.index - 1], 1


def _install(f: TClosure, args: tuple):
    # The arity check reads the annotation, not the parameter list:
    # there is no parameter list left to read.
    if len(args) != f.n_params:
        return None
    if len(f.bag.vals) != f.n_wrapped:
        raise MachineInvariantError("closure bag does not match its annotation")
    return TupledEnv(f.bag.vals, args), 1


step_ttam, measure_ttam, readback_ttam = stacked_machine(resolve=_resolve, install=_install)


def run_ttam(t: TargetTerm, fuel: int = DEFAULT_FUEL, record_measure: bool = False) -> RunRecord:
    return run_loop(step_ttam, measure_ttam, init_ttam(t), fuel, record_measure)
