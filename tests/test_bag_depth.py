"""Value bags nested 400 deep through the five passes that fold bag entries.

The int and target machines read `family_fun_explosion(n)` back as a
closure whose value bag holds a closure whose value bag holds another,
n levels deep. `free_vars`, `unwrap`, `eliminate_names`, `naming` and
`subst_bags` each fold a bag's entries. When they did that inside a
generator expression or a comprehension, that added a third Python
frame per level on 3.10 and 3.11, next to the leaf rule and the fold,
and each of them raised `RecursionError` from about n = 329. They now
call `fold` through `map`, so a level costs two frames, as in
`unfolded_size_from_int`, and all five read these results at n = 400.
"""

import pytest

from tamc.analysis import MACHINES, family_fun_explosion, fun_explosion_nf_size, unfolded_size_from_int
from tamc.calculi import subst_bags
from tamc.terms import free_vars, metrics, norms_target
from tamc.transforms import FreshSupply, eliminate_names, naming, unwrap

N = 400


@pytest.fixture(scope="module")
def readbacks():
    out = {}
    for machine in ("int", "target"):
        m = MACHINES[machine]
        out[machine] = m.readback(m.run(family_fun_explosion(N)).final_state)
    return out


def _never(v):
    raise AssertionError(f"a closed readback has no variable outside closure bodies: {v!r}")


def test_free_vars(readbacks):
    assert free_vars(readbacks["int"]) == ()


def test_unwrap(readbacks):
    # unfolded_size_from_int is the size of the source term a result unwraps to
    assert metrics(unwrap(readbacks["int"])).size == fun_explosion_nf_size(N)


def test_eliminate_names(readbacks):
    target = eliminate_names(readbacks["int"], (), ())
    assert norms_target(target) == (0, 0)
    assert unfolded_size_from_int(target) == fun_explosion_nf_size(N)


def test_naming(readbacks):
    named = naming(readbacks["target"], (), (), FreshSupply())
    assert free_vars(named) == ()
    assert unfolded_size_from_int(named) == fun_explosion_nf_size(N)


@pytest.mark.parametrize("machine", ["int", "target"])
def test_subst_bags(readbacks, machine):
    out = subst_bags(readbacks[machine], _never)
    assert unfolded_size_from_int(out) == fun_explosion_nf_size(N)
