"""End-to-end tests for the command-line interface.

Everything goes through main(argv) with captured stdout, the same
path the console script takes. Exit codes: 0 ok, 1 failed check or
failed run, 2 usage problems, 3 internal errors.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from tamc.analysis import FAMILIES, MACHINES
from tamc.bisim import BisimReport
from tamc.cli import main
from tamc.machine_common import MachineInvariantError
from tamc.syntax import parse, print_int, print_target
from tamc.terms import metrics
from tamc.transforms import closure_convert, wrap

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def lam(name: str) -> str:
    return str(CORPUS / name)


def test_corpus_is_present_and_parses():
    files = sorted(CORPUS.glob("*.lam"))
    assert len(files) >= 16
    for p in files:
        parse(p.read_text())


def test_run_prints_final_source_view(capsys):
    assert main(["run", lam("apply-identity.lam")]) == 0
    assert capsys.readouterr().out == "fun(y) -> y\n"

    assert main(["run", lam("apply-identity.lam"), "--machine", "int"]) == 0
    assert capsys.readouterr().out == "fun(y) -> y\n"

    # The reverse conversion mints fresh names, so the target view is
    # alpha-equivalent to the others rather than textually identical.
    assert main(["run", lam("apply-identity.lam"), "--machine", "target"]) == 0
    assert capsys.readouterr().out == "fun(x#0) -> x#0\n"


def test_run_reports_clash(capsys):
    assert main(["run", lam("clash-projection-range.lam")]) == 1
    assert capsys.readouterr().out == "clash: projection\n"
    assert main(["run", lam("clash-arity.lam"), "--machine", "target"]) == 1
    assert capsys.readouterr().out == "clash: abstraction-or-closure\n"


def test_run_fuel_exhaustion(capsys):
    assert main(["run", lam("omega.lam"), "--fuel", "10"]) == 1
    assert capsys.readouterr().out == "fuel exhausted after 10 transitions\n"


def test_run_trace_format(capsys):
    assert main(["run", lam("apply-identity.lam"), "--machine", "int", "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "fun(y) -> y"
    trace = [ln.split("\t") for ln in lines[:-1]]
    assert [row[0] for row in trace] == [str(i) for i in range(1, 10)]
    names = tuple(row[1] for row in trace)
    assert names == (
        "usea1", "usea3", "usubw", "esea3", "esea1", "usubw", "ebeta", "usubv", "esea7",
    )
    labels = [row[2] for row in trace]
    assert labels.count("beta") == 1 and labels[6] == "beta"
    assert all(lab == "-" for i, lab in enumerate(labels) if i != 6)
    for row in trace:
        assert len(row) == 6
        int(row[4]), int(row[5])
    # the argument stack is pushed by the call and popped at return
    assert trace[6][5] == "1" and trace[8][5] == "0"


def test_run_trace_is_deterministic(capsys):
    assert main(["run", lam("mixed-pipeline.lam"), "--trace"]) == 0
    first = capsys.readouterr().out
    assert main(["run", lam("mixed-pipeline.lam"), "--trace"]) == 0
    assert capsys.readouterr().out == first


def test_run_dump_states(capsys):
    assert main(["run", lam("apply-identity.lam"), "--dump-states"]) == 0
    out = capsys.readouterr().out
    assert "state 0:" in out and "focus:" in out


def test_run_input_errors(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.lam")]) == 2
    assert "cannot read" in capsys.readouterr().err

    bad = tmp_path / "bad.lam"
    bad.write_text("fun(")
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()

    open_t = tmp_path / "open.lam"
    open_t.write_text("x <y>")
    assert main(["run", str(open_t)]) == 2
    assert "open" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["run"], ["convert", "--to", "int"], ["metrics"], ["bisim"]], ids=lambda a: a[0]
)
def test_non_utf8_input_is_a_usage_error(argv, tmp_path, capsys):
    bad = tmp_path / "bad.lam"
    bad.write_bytes(b"\xff\xfe")
    assert main([argv[0], str(bad), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"tamc: cannot read {bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    )


def test_fuel_env_override(monkeypatch, capsys):
    monkeypatch.setenv("TAMC_FUEL", "10")
    assert main(["run", lam("omega.lam")]) == 1
    assert "after 10 transitions" in capsys.readouterr().out
    # an explicit flag wins over the environment
    assert main(["run", lam("omega.lam"), "--fuel", "5"]) == 1
    assert "after 5 transitions" in capsys.readouterr().out

    monkeypatch.setenv("TAMC_FUEL", "banana")
    assert main(["run", lam("omega.lam")]) == 2
    capsys.readouterr()
    monkeypatch.setenv("TAMC_FUEL", "-3")
    assert main(["run", lam("omega.lam")]) == 2


def test_convert_matches_library(capsys):
    t = parse(Path(lam("two-params.lam")).read_text())
    assert main(["convert", "--to", "int", lam("two-params.lam")]) == 0
    assert capsys.readouterr().out == print_int(wrap(t)) + "\n"
    assert main(["convert", "--to", "target", lam("two-params.lam")]) == 0
    assert capsys.readouterr().out == print_target(closure_convert(t)) + "\n"


def test_convert_rejects_open_target(tmp_path, capsys):
    f = tmp_path / "open.lam"
    f.write_text("fun(x) -> y")
    assert main(["convert", "--to", "target", str(f)]) == 2
    assert "free" in capsys.readouterr().err


def test_bisim_on_corpus_files(capsys):
    files = sorted(str(p) for p in CORPUS.glob("*.lam") if p.stem != "omega")
    assert main(["bisim", *files]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"{len(files)}/{len(files)} agreed"
    assert all(ln.startswith("ok") for ln in lines[:-1])


def test_bisim_generated_is_deterministic(capsys):
    assert main(["bisim", "--count", "5", "--seed", "3", "--fuel", "500"]) == 0
    first = capsys.readouterr().out
    assert main(["bisim", "--count", "5", "--seed", "3", "--fuel", "500"]) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[-1] == "5/5 agreed"


def test_bisim_exit_code_on_divergence(monkeypatch, capsys):
    def fake_check(t, fuel):
        return BisimReport(t, False, ("labels diverge",), "value", 0, 0)

    monkeypatch.setattr("tamc.cli.bisim_check", fake_check)
    assert main(["bisim", lam("identity.lam")]) == 1
    out = capsys.readouterr().out
    assert "labels diverge" in out and "0/1 agreed" in out


def test_bench_stdout(capsys):
    assert main(["bench", "--family", "tuple-explosion", "--n-max", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "family,n,machine,size,width,height,beta,pi,total,elem_ops,env_copy_ops,lookup_ops"
    assert len(lines) == 7
    assert lines[1].startswith("tuple-explosion,1,source,")


def test_bench_machine_filter(capsys):
    assert main(["bench", "--family", "fun-explosion", "--n-max", "3", "--machine", "int"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(",int," in ln for ln in lines[1:])


def test_bench_csv_file(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--family", "quadratic-wrap", "--n-max", "3", "--csv", str(out)]) == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("family,n,machine,")


def test_bench_rejects_runs_cut_short_by_fuel(tmp_path, monkeypatch, capsys):
    # a cut run's counters would pass for a finished run's
    monkeypatch.delenv("TAMC_FUEL", raising=False)
    assert main(["bench", "--family", "quadratic-wrap", "--n-max", "3", "--fuel", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tamc: quadratic-wrap n=1: source machine ran out of fuel after 5 transitions\n"

    out = tmp_path / "bench.csv"
    monkeypatch.setenv("TAMC_FUEL", "3")
    assert main(["bench", "--family", "tuple-explosion", "--n-max", "2", "--csv", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tamc: tuple-explosion n=1: source machine ran out of fuel after 3 transitions\n"
    assert not out.exists()


def test_bench_names_the_instance_nested_too_deeply(monkeypatch, capsys):
    real = FAMILIES["quadratic-wrap"]

    def builder(n):
        if n == 2:
            raise RecursionError("maximum recursion depth exceeded")
        return real(n)

    monkeypatch.setitem(FAMILIES, "quadratic-wrap", builder)
    assert main(["bench", "--family", "quadratic-wrap", "--n-max", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tamc: quadratic-wrap n=2: input nested too deeply\n"


def test_metrics_output(tmp_path, capsys):
    t = parse(Path(lam("mixed-pipeline.lam")).read_text())
    m = metrics(t)
    assert main(["metrics", lam("mixed-pipeline.lam")]) == 0
    assert capsys.readouterr().out == f"size={m.size} width={m.width} height={m.height} closed=yes\n"

    f = tmp_path / "open.lam"
    f.write_text("<x, y, x>")
    assert main(["metrics", str(f)]) == 0
    assert capsys.readouterr().out.strip().endswith("closed=no free=x,y")


def test_usage_errors():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["bench"]) == 2
    assert main(["convert", lam("identity.lam")]) == 2


def test_negative_sizes_are_usage_errors(capsys):
    assert main(["bisim", "--count", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tamc: count must be a non-negative integer\n"
    assert main(["bench", "--family", "quadratic-wrap", "--n-max", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tamc: n-max must be a non-negative integer\n"


def test_zero_sizes_stay_valid(capsys):
    assert main(["bisim", "--count", "0"]) == 0
    assert capsys.readouterr().out == "0/0 agreed\n"
    assert main(["bench", "--family", "quadratic-wrap", "--n-max", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["family,n,machine,size,width,height,beta,pi,total,elem_ops,env_copy_ops,lookup_ops"]


def test_bisim_names_the_file_whose_check_is_nested_too_deeply(monkeypatch, capsys):
    deep = parse(Path(lam("deep-tuples.lam")).read_text())

    def check(t, fuel):
        if t == deep:
            raise RecursionError("maximum recursion depth exceeded")
        return BisimReport(t, True, (), "value", 0, 0)

    monkeypatch.setattr("tamc.cli.bisim_check", check)
    assert main(["bisim", lam("identity.lam"), lam("deep-tuples.lam")]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("ok ")
    assert captured.err == f"tamc: {lam('deep-tuples.lam')}: input nested too deeply\n"


def test_broken_machine_invariant_is_an_internal_error(monkeypatch, capsys):
    def broken_step(state):
        raise MachineInvariantError("unrecognized stack entry: 'boom'")

    monkeypatch.setitem(MACHINES, "int", replace(MACHINES["int"], step=broken_step))
    monkeypatch.setattr("tamc.bisim.step_itam", broken_step)
    for argv in (
        ["run", lam("identity.lam"), "--machine", "int"],
        ["run", lam("identity.lam"), "--machine", "int", "--trace"],
        ["bisim", lam("identity.lam")],
        ["bench", "--family", "quadratic-wrap", "--n-max", "1"],
    ):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "tamc: internal error: unrecognized stack entry: 'boom'\n", argv
