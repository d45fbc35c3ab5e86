"""Value bags nested 1,000 deep through the five passes that fold bag entries.

The int and target machines read `family_fun_explosion(n)` back as a
closure whose value bag holds a closure whose value bag holds another,
n levels deep. `free_vars`, `unwrap`, `eliminate_names`, `naming`,
`subst_bags` and `unfolded_size_from_int` each read a bag's entries.
When their leaf rules folded the entries themselves, each level cost
two Python frames, and they raised `RecursionError` from about n = 496.
They now hand the entries back to `terms.fold` as `Parts`, which takes
them onto its own stack. `unwrap` runs at n = 500 only, since its
substitution is quadratic in n.
"""

import pytest

from tamc.analysis import MACHINES, family_fun_explosion, fun_explosion_nf_size, unfolded_size_from_int
from tamc.calculi import subst_bags
from tamc.terms import free_vars, metrics, norms_target
from tamc.transforms import FreshSupply, eliminate_names, naming, unwrap

N = 1_000
N_UNWRAP = 500


def _readbacks(n):
    out = {}
    for machine in ("int", "target"):
        m = MACHINES[machine]
        out[machine] = m.readback(m.run(family_fun_explosion(n)).final_state)
    return out


@pytest.fixture(scope="module")
def readbacks():
    return _readbacks(N)


def _never(v):
    raise AssertionError(f"a closed readback has no variable outside closure bodies: {v!r}")


def test_free_vars(readbacks):
    assert free_vars(readbacks["int"]) == ()


def test_unwrap():
    # unfolded_size_from_int is the size of the source term a result unwraps to
    assert metrics(unwrap(_readbacks(N_UNWRAP)["int"])).size == fun_explosion_nf_size(N_UNWRAP)


@pytest.mark.parametrize("machine", ["int", "target"])
def test_unfolded_size(readbacks, machine):
    assert unfolded_size_from_int(readbacks[machine]) == fun_explosion_nf_size(N)


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
