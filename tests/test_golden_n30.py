"""Bench counters pinned byte for byte at n up to 30.

The files tests/data/bench-F-n30.csv were written by `tamc bench
--family F --n-max 30` before wrapping and machine validation shared
one free-variable memo per call. They pin `elem_ops`, `env_copy_ops`
and `lookup_ops` on larger wrapped terms than the n <= 8 goldens in
test_golden.py.
"""

from pathlib import Path

import pytest

from tamc.cli import main

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("family", ["tuple-explosion", "fun-explosion", "quadratic-wrap"])
def test_bench_csv_to_n30_is_unchanged(family, capsysbinary):
    assert main(["bench", "--family", family, "--n-max", "30"]) == 0
    assert capsysbinary.readouterr().out == (DATA / f"bench-{family}-n30.csv").read_bytes()
