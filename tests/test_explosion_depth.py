"""The explosion families at a depth the recursive closure checks could not reach.

`init` on the int and target machines checks the initial term with
`well_formed_*`, `closed_*` and `prime_int`. When those recursed, a
family instance nested a few hundred deep overflowed the interpreter
stack there, from about n = 250, while the source machine ran on. They
now walk with an explicit stack, so every machine runs both families
at n = 275 and the int and target results unfold to the closed-form
normal-form size. The translations and `free_vars` no longer recurse
either (tests/test_fold_depth.py and tests/test_bag_depth.py go deeper).
"""

import pytest

from tamc.analysis import (
    MACHINES,
    family_fun_explosion,
    family_tuple_explosion,
    fun_explosion_nf_size,
    tuple_explosion_nf_size,
    unfolded_size_from_int,
)

N = 275
FAMILIES = {
    "tuple-explosion": (family_tuple_explosion, tuple_explosion_nf_size),
    "fun-explosion": (family_fun_explosion, fun_explosion_nf_size),
}


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_machine_runs_the_explosion_families_at_depth(family, machine):
    build, nf_size = FAMILIES[family]
    m = MACHINES[machine]
    rec = m.run(build(N))
    assert (rec.final, rec.beta) == ("successful", N)
    if machine != "source":
        assert unfolded_size_from_int(m.readback(rec.final_state)) == nf_size(N)
