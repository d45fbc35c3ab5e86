"""`metrics` over term DAGs.

Substitution and read-back share value nodes, so the normal forms of
the explosion families are DAGs whose unfolded size doubles with every
beta step. `metrics` is memoized by node identity and measures them in
time linear in the DAG; `shared_size_source` is its size. The plain
recursive walk below, which unfolds the DAG, is the reference on small
instances.
"""

import time

import pytest

from tamc.analysis import (
    family_fun_explosion,
    family_tuple_explosion,
    fun_explosion_nf_size,
    tuple_explosion_nf_size,
)
from tamc.machine_source import readback_stam, run_stam
from tamc.terms import Abs, App, Proj, Tuple, Var, metrics, shared_size_source

FAMILIES = {
    "tuple-explosion": (family_tuple_explosion, tuple_explosion_nf_size),
    "fun-explosion": (family_fun_explosion, fun_explosion_nf_size),
}


def unfolded_metrics(t) -> tuple[int, int, int]:
    """(size, width, height) by the clauses in `metrics`, walking every path."""
    match t:
        case Var(_):
            return 1, 0, 0
        case Abs(params, body):
            s, w, h = unfolded_metrics(body)
            k = len(params)
            return s + k + 1, max(w, k), h + k
        case App(fn, arg):
            s1, w1, h1 = unfolded_metrics(fn)
            s2, w2, h2 = unfolded_metrics(arg)
            return s1 + s2 + 1, max(w1, w2), max(h1, h2)
        case Proj(_, arg):
            s, w, h = unfolded_metrics(arg)
            return s + 1, w, h
        case Tuple(items):
            parts = [unfolded_metrics(it) for it in items]
            return (
                len(items) + sum(p[0] for p in parts),
                max([len(items)] + [p[1] for p in parts], default=0),
                max([p[2] for p in parts], default=0),
            )


def _normal_form(family, n):
    rec = run_stam(family(n))
    assert rec.final == "successful"
    return readback_stam(rec.final_state)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_metrics_of_a_64_step_explosion_result_match_the_closed_form(name):
    family, nf_size = FAMILIES[name]
    nf = _normal_form(family, 64)
    t0 = time.perf_counter()
    m = metrics(nf)
    size = shared_size_source(nf)
    elapsed = time.perf_counter() - t0
    assert m.size == size == nf_size(64)
    # the unfolded tree has more than 2^66 nodes; the DAG has a few hundred
    assert elapsed < 0.25


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_metrics_on_small_explosion_results_match_the_unfolded_walk(name):
    family, nf_size = FAMILIES[name]
    for n in range(9):
        nf = _normal_form(family, n)
        m = metrics(nf)
        assert (m.size, m.width, m.height) == unfolded_metrics(nf)
        assert m.size == shared_size_source(nf) == nf_size(n)


def test_a_shared_node_under_different_binders_keeps_its_own_height():
    # metrics of a node depend on the node alone, so sharing is sound
    shared = Abs((Var("a"), Var("b")), Var("a"))
    t = Tuple((shared, Abs((Var("x"),), App(shared, Tuple((shared,))))))
    m = metrics(t)
    assert (m.size, m.width, m.height) == unfolded_metrics(t) == (18, 2, 3)
