"""bisim_check and every public pass leave no reference cycles behind.

The walks, interpreters and reverse translations bisim_check runs, and
the passes it does not run, build their leaf rules per call. A rule that
refers to itself, or two rules that refer to each other, through closure
cells makes a cycle that only the cyclic collector frees. With the
collector off around each check or pass, gc.collect() afterwards finds
nothing unreachable.
"""

import gc
from pathlib import Path

import pytest

from tamc.analysis import (
    MACHINES,
    bench,
    family_fun_explosion,
    family_tuple_explosion,
    unfolded_size_from_int,
    unfolded_size_from_target,
)
from tamc.bisim import bisim_check
from tamc.calculi import normalize_int, normalize_source, normalize_target
from tamc.generate import GenConfig, gen_corpus
from tamc.machine_source import measure_stam, readback_stam
from tamc.syntax import parse, print_int, print_source, print_target
from tamc.terms import alpha_eq_source, free_vars, metrics, size_int, well_formed_int, well_formed_target
from tamc.transforms import FreshSupply, closure_convert, naming, reverse_convert, unwrap, wrap

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _church(k: int) -> str:
    body = "x"
    for _ in range(k):
        body = f"f <{body}>"
    return f"fun(f) -> fun(x) -> {body}"


CASES = {
    "omega": lambda: [parse((CORPUS / "omega.lam").read_text())],
    "church-3-3-id": lambda: [parse(f"({_church(3)}) <{_church(3)}> <fun(u) -> u> <<>>")],
    "generated-50": lambda: gen_corpus(GenConfig(seed=1), 50),
}


@pytest.mark.parametrize("case", CASES)
def test_bisim_check_leaves_no_unreachable_objects(case):
    terms = CASES[case]()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        reports = [bisim_check(u, fuel=50) for u in terms]
        unreachable = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert all(rep.ok for rep in reports)
    assert unreachable == 0


FUEL = 60  # cuts some runs short, so states with pending stack entries are read back too


@pytest.fixture(scope="module")
def inputs():
    sources = [*gen_corpus(GenConfig(seed=1), 30), family_fun_explosion(5), family_tuple_explosion(5)]
    explosions = [family_fun_explosion(16), family_tuple_explosion(8)]
    return {
        "sources": sources,
        "ints": [wrap(u) for u in sources],
        "targets": [closure_convert(u) for u in sources],
        "unwrapped": [unwrap(wrap(u)) for u in sources],
        "texts": [print_source(u) for u in sources],
        "states": [MACHINES["source"].run(u, FUEL).final_state for u in sources],
        "int values": [MACHINES["int"].run(u).final_state.focus for u in explosions],
        "target values": [MACHINES["target"].run(u).final_state.focus for u in explosions],
    }


PASSES = {
    "free_vars": lambda d: [free_vars(u) for u in d["sources"] + d["ints"]],
    "metrics": lambda d: [metrics(u) for u in d["sources"]],
    "wrap": lambda d: [wrap(u) for u in d["sources"]],
    "unwrap": lambda d: [unwrap(u) for u in d["ints"]],
    "closure_convert": lambda d: [closure_convert(u) for u in d["sources"]],
    "reverse_convert": lambda d: [reverse_convert(u) for u in d["targets"]],
    "naming": lambda d: [naming(u, (), (), FreshSupply()) for u in d["targets"]],
    "normalize_source": lambda d: [normalize_source(u, FUEL) for u in d["sources"]],
    "normalize_int": lambda d: [normalize_int(u, FUEL) for u in d["ints"]],
    "normalize_target": lambda d: [normalize_target(u, FUEL) for u in d["targets"]],
    "print_source": lambda d: [print_source(u) for u in d["sources"]],
    "print_int": lambda d: [print_int(u) for u in d["ints"]],
    "print_target": lambda d: [print_target(u) for u in d["targets"]],
    "alpha_eq_source": lambda d: [alpha_eq_source(u, w) for u, w in zip(d["sources"], d["unwrapped"])],
    "size_int": lambda d: [size_int(u) for u in d["ints"] + d["targets"]],
    "well_formed_int": lambda d: [well_formed_int(u) for u in d["ints"]],
    "well_formed_target": lambda d: [well_formed_target(u) for u in d["targets"]],
    "unfolded_size_from_int": lambda d: [unfolded_size_from_int(u) for u in d["ints"] + d["int values"]],
    "unfolded_size_from_target": lambda d: [
        unfolded_size_from_target(u) for u in d["targets"] + d["target values"]
    ],
    "bench": lambda d: bench("fun-explosion", [4]),
    **{
        f"run-{m}": lambda d, m=m: [MACHINES[m].run(u, FUEL) for u in d["sources"]]
        for m in MACHINES
    },
    "readback_stam": lambda d: [readback_stam(s) for s in d["states"]],
    "measure_stam": lambda d: [measure_stam(s) for s in d["states"]],
    "gen_corpus": lambda d: gen_corpus(GenConfig(seed=1), 30),
    "parse": lambda d: [parse(text) for text in d["texts"]],
}


@pytest.mark.parametrize("name", PASSES)
def test_pass_leaves_no_unreachable_objects(name, inputs):
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        PASSES[name](inputs)
        unreachable = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert unreachable == 0
