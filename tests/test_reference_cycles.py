"""bisim_check leaves no reference cycles behind.

The walks, interpreters and reverse translations bisim_check runs build
their leaf rules per call. A rule that refers to itself, or two rules
that refer to each other, through closure cells makes a cycle that only
the cyclic collector frees. With the collector off around each check,
gc.collect() afterwards finds nothing unreachable.
"""

import gc
from pathlib import Path

import pytest

from tamc.bisim import bisim_check
from tamc.generate import GenConfig, gen_corpus
from tamc.syntax import parse

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
