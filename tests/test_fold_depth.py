"""Deep inputs through the passes built on `terms.fold`.

`fold` walks applications, projections and tuples on its own stack, and
takes the binder bodies and value bags of the leaf rules' `Parts` onto
it too, so nesting costs no Python frames. When the translations,
`free_vars`, `metrics`, the substitutions, the source readback and the
unfolded size recursed through every node, each input below raised
`RecursionError`: the explosion families from
about n = 320 (the source readback of the function explosion from
n = 125), `closure_convert(quadratic_driver(n))` from n = 256, a
left-nested application spine from 1,600 variables and a tuple chain a
few hundred deep.
"""

import pytest

from tamc.analysis import (
    MACHINES,
    family_fun_explosion,
    family_tuple_explosion,
    fun_explosion_nf_size,
    identity,
    quadratic_driver,
    tuple_explosion_nf_size,
    unfolded_size_from_int,
)
from tamc.terms import Abs, App, Closure, TClosure, TermMetrics, Tuple, Var, free_vars, metrics
from tamc.transforms import closure_convert, reverse_convert, unwrap, wrap


def _run(machine, t):
    m = MACHINES[machine]
    rec = m.run(t)
    assert rec.final == "successful"
    return m.readback(rec.final_state)


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_every_machine_runs_and_reads_back_a_deep_tuple_explosion(machine):
    out = _run(machine, family_tuple_explosion(1000))
    # metrics visits a shared node once but counts it at every occurrence
    size = metrics(out).size if machine == "source" else unfolded_size_from_int(out)
    assert size == tuple_explosion_nf_size(1000)


@pytest.mark.parametrize("machine", ["int", "target"])
def test_int_and_target_run_and_size_a_deep_function_explosion(machine):
    # tests/test_bag_depth.py reads these results 1,000 deep
    out = _run(machine, family_fun_explosion(400))
    assert unfolded_size_from_int(out) == fun_explosion_nf_size(400)


def test_source_reads_back_a_deep_function_explosion():
    assert type(_run("source", family_fun_explosion(1000))) is Abs


def test_closure_convert_reaches_quadratic_driver_300():
    out = closure_convert(quadratic_driver(300))
    assert type(out) is App


def test_free_vars_of_a_long_left_spine():
    xs = [Var(f"v{i}") for i in range(5000)]
    spine = xs[0]
    for x in xs[1:]:
        spine = App(spine, x)
    assert free_vars(spine) == tuple(xs)


def _depth(t):
    """How many unary tuples t is nested in, walking down without recursion."""
    depth = 0
    while type(t) is Tuple:
        t, depth = t.items[0], depth + 1
    return depth, t


def test_a_deep_tuple_chain_goes_through_every_translation():
    # no == on the chain: dataclass equality still recurses
    t = identity()
    for _ in range(2000):
        t = Tuple((t,))
    assert metrics(t) == TermMetrics(2003, 1, 1)
    wrapped, converted = wrap(t), closure_convert(t)
    for out, leaf in (
        (wrapped, Closure),
        (converted, TClosure),
        (unwrap(wrapped), Abs),
        (reverse_convert(converted), Abs),
    ):
        depth, inner = _depth(out)
        assert (depth, type(inner)) == (2000, leaf)
    assert metrics(unwrap(wrapped)) == metrics(reverse_convert(converted)) == metrics(t)
