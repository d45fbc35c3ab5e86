"""Static passes on inputs that used to blow up, and their error types.

Unfolded sizes are memoized over the shared result, so the explosion
families are measured at n = 64, where the unfolded normal form has
more than 2^64 nodes. Wrapping and validating quadratic_driver(200)
share one free-variable memo per call instead of re-walking each body
at every binder above it.
"""

import pytest

from tamc.analysis import (
    MACHINES,
    bench,
    family_fun_explosion,
    family_tuple_explosion,
    fun_explosion_nf_size,
    quadratic_driver,
    tuple_explosion_nf_size,
    unfolded_size_from_int,
)
from tamc.calculi import DEFAULT_FUEL, normalize_source, psubst_target, subst_int
from tamc.machine_common import run_loop
from tamc.machine_int import init_itam, measure_itam, step_itam
from tamc.syntax import parse
from tamc.terms import PVar, Var, metrics
from tamc.transforms import wrap


@pytest.mark.parametrize("machine", ["int", "target"])
@pytest.mark.parametrize(
    "build, nf_size",
    [
        (family_tuple_explosion, tuple_explosion_nf_size),
        (family_fun_explosion, fun_explosion_nf_size),
    ],
    ids=["tuple-explosion", "fun-explosion"],
)
def test_unfolded_size_of_an_explosion_at_64_is_the_closed_form(machine, build, nf_size):
    m = MACHINES[machine]
    rec = m.run(build(64))
    assert rec.final == "successful" and rec.beta == 64
    assert unfolded_size_from_int(m.readback(rec.final_state)) == nf_size(64)


@pytest.mark.parametrize("machine", ["int", "target"])
def test_one_body_under_two_bags_is_sized_under_each(machine):
    # k returns two closures with one body object and different bag
    # values: a size memoized regardless of the size map would reuse
    # the first closure's body size for the second
    u = parse("(fun(k) -> <k <fun(a) -> a>, k <fun(b) -> <b, b>>>) <fun(x) -> fun(y) -> <y, x>>")
    m = MACHINES[machine]
    rec = m.run(u)
    assert rec.final == "successful"
    want = metrics(normalize_source(u).term).size
    assert unfolded_size_from_int(m.readback(rec.final_state)) == want == 21


def test_quadratic_driver_200_validates_and_counts_as_the_bench_row():
    n = 200
    state = init_itam(wrap(quadratic_driver(n)))
    rec = run_loop(step_itam, measure_itam, state, DEFAULT_FUEL)
    (row,) = [r for r in bench("quadratic-wrap", [n]) if r.machine == "int"]
    assert rec.beta == row.beta == n
    assert (rec.steps, rec.elem_ops, rec.env_copy_ops, rec.lookup_ops) == (
        row.total,
        row.elem_ops,
        row.env_copy_ops,
        row.lookup_ops,
    )


def test_substitutions_reject_a_leaf_of_the_other_calculus_with_type_error():
    with pytest.raises(TypeError, match="not an intermediate term"):
        subst_int(PVar("l", 1), (), (), (), ())
    with pytest.raises(TypeError, match="not a target term"):
        psubst_target(Var("x"), (), ())
