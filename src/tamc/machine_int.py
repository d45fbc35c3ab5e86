"""Stacked machine for the intermediate calculus: the named environment.

The environment is `machine_common`'s flat named environment, which the
source machine uses too: a tuple of (Var, value) bindings, here the
wrapped variables before the parameters. A variable resolves through
`machine_common.lookup`, which scans for its name and costs the scan
position; ebeta builds one binding per wrapped variable and parameter
and costs 1 + |wrapped| + |params|. That lookup and this install are
all this module gives `machine_stacked`, which is the machine itself;
readback substitutes through the same lookup.
"""

from __future__ import annotations

from .calculi import DEFAULT_FUEL
from .machine_common import MachineInvariantError, RunRecord, lookup, run_loop
from .machine_stacked import State, Unev, stacked_machine
from .terms import Closure, IntTerm, closed_int, prime_int, well_formed_int


def init_itam(t: IntTerm) -> State:
    if not well_formed_int(t):
        raise ValueError("initial term must be well formed")
    if not closed_int(t):
        raise ValueError("initial term must be closed")
    if not prime_int(t):
        raise ValueError("initial term must have variable bags only")
    return State(Unev(t), (), (), ())


def _install(f: Closure, args: tuple):
    if len(args) != len(f.params):
        return None
    if len(f.bag.vals) != len(f.wrapped):
        raise MachineInvariantError("closure bag does not match its wrapped variables")
    env = tuple(zip(f.wrapped, f.bag.vals)) + tuple(zip(f.params, args))
    return env, 1 + len(f.wrapped) + len(f.params)


step_itam, measure_itam, readback_itam = stacked_machine(resolve=lookup, install=_install)


def run_itam(t: IntTerm, fuel: int = DEFAULT_FUEL, record_measure: bool = False) -> RunRecord:
    return run_loop(step_itam, measure_itam, init_itam(t), fuel, record_measure)
