"""Stacked machine for the intermediate calculus: the named environment.

The environment is `machine_common`'s flat named environment, which the
source machine uses too: a tuple of (Var, value) bindings, here the
wrapped variables before the parameters, and () when it binds nothing.
A variable resolves through `machine_common.lookup`, which scans for
its name and costs the scan position; ebeta builds one binding per
wrapped variable and parameter and costs 1 + |wrapped| + |params|.
That lookup, this install, the intermediate calculus's checks and ()
are all this module gives `machine_stacked`, which builds the machine.
"""

from __future__ import annotations

from .machine_common import MachineInvariantError, lookup
from .machine_stacked import stacked_machine
from .terms import Closure, closed_int, well_formed_int


def _install(f: Closure, args: tuple):
    if len(args) != len(f.params):
        return None
    if len(f.bag.vals) != len(f.wrapped):
        raise MachineInvariantError("closure bag does not match its wrapped variables")
    env = tuple(zip(f.wrapped, f.bag.vals)) + tuple(zip(f.params, args))
    return env, 1 + len(f.wrapped) + len(f.params)


init_itam, step_itam, measure_itam, readback_itam, run_itam = stacked_machine(
    resolve=lookup, install=_install, well_formed=well_formed_int, closed=closed_int, empty=()
)
