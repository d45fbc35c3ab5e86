"""CLI outputs pinned byte for byte.

The files under tests/data were written by `tamc bench --family F
--n-max 8` and `tamc run corpus/mixed-pipeline.lam --machine M
--trace` before the intermediate and target machines were merged into
one stacked machine. They pin the cost model (the bench counters) and
the trace format: a change to either shows up here first. The two
bisim reports pin the gate's verdicts and step counts. The corpus-*
files pin run (plain, traced and dumped, on each machine), convert and
metrics on every corpus program; they were written before readback's
substitution moved into the stacked-machine factory.
"""

from pathlib import Path

import pytest

from tamc.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


@pytest.mark.parametrize("family", ["tuple-explosion", "fun-explosion", "quadratic-wrap"])
def test_bench_csv_is_unchanged(family, capsysbinary):
    assert main(["bench", "--family", family, "--n-max", "8"]) == 0
    assert capsysbinary.readouterr().out == (DATA / f"bench-{family}-n8.csv").read_bytes()


@pytest.mark.parametrize("machine", ["source", "int", "target"])
def test_run_trace_is_unchanged(machine, capsysbinary):
    program = str(ROOT / "corpus" / "mixed-pipeline.lam")
    assert main(["run", program, "--machine", machine, "--trace"]) == 0
    want = (DATA / f"run-mixed-pipeline-{machine}-trace.txt").read_bytes()
    assert capsysbinary.readouterr().out == want


@pytest.mark.parametrize("machine", ["source", "int", "target"])
def test_run_dump_states_is_unchanged(machine, capsysbinary):
    # written by `tamc run corpus/mixed-pipeline.lam --machine M --dump-states`
    # before the named/positional term functions were folded into one body each
    program = str(ROOT / "corpus" / "mixed-pipeline.lam")
    assert main(["run", program, "--machine", machine, "--dump-states"]) == 0
    want = (DATA / f"run-mixed-pipeline-{machine}-dump.txt").read_bytes()
    assert capsysbinary.readouterr().out == want


def test_bisim_generated_report_is_unchanged(monkeypatch, capsysbinary):
    # written by `tamc bisim --count 200`
    monkeypatch.delenv("TAMC_FUEL", raising=False)
    assert main(["bisim", "--count", "200"]) == 0
    assert capsysbinary.readouterr().out == (DATA / "bisim-count200.txt").read_bytes()


def test_bisim_corpus_report_is_unchanged(capsysbinary):
    # written by `tamc bisim --fuel 2000` on the sorted corpus/*.lam; at the
    # default fuel omega alone takes seconds
    programs = sorted(str(p) for p in (ROOT / "corpus").glob("*.lam"))
    assert main(["bisim", "--fuel", "2000", *programs]) == 0
    assert capsysbinary.readouterr().out == (DATA / "bisim-corpus-fuel2000.txt").read_bytes()


# Written by running `tamc SUBCOMMAND ... FILE` on each sorted corpus/*.lam in
# turn; each program's stdout follows a line naming the file and its exit
# code. Every program but omega stops well within run's fuel of 100.
CORPUS_GOLDENS = {
    **{
        f"corpus-run-{m}{suffix}.txt": ["run", "--machine", m, "--fuel", "100", *flags]
        for m in ("source", "int", "target")
        for suffix, flags in (("", []), ("-trace", ["--trace"]), ("-dump", ["--dump-states"]))
    },
    "corpus-convert-int.txt": ["convert", "--to", "int"],
    "corpus-convert-target.txt": ["convert", "--to", "target"],
    "corpus-metrics.txt": ["metrics"],
}


@pytest.mark.parametrize("golden", sorted(CORPUS_GOLDENS))
def test_corpus_output_is_unchanged(golden, capsysbinary):
    got = b""
    for path in sorted(str(p) for p in (ROOT / "corpus").glob("*.lam")):
        code = main([*CORPUS_GOLDENS[golden], path])
        got += f"== {Path(path).name} exit {code}\n".encode() + capsysbinary.readouterr().out
    assert got == (DATA / golden).read_bytes()
