"""How the CLI ends when its output or its input goes wrong.

A reader that closes stdout early (`tamc run ... | head -1`) ends the
run quietly: exit 1, no traceback, nothing on stderr. An input nested
deeper than the recursive passes can follow is a usage error: one line
on stderr and exit 2. So are a parse error, whose line names the place
and has no `tamc:` prefix, a CSV path in a missing directory, which
leaves nothing behind, and a fuel that is not a positive integer.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tamc
from tamc.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_closed_stdout_ends_the_run_quietly():
    env = dict(os.environ)
    src = str(Path(tamc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    omega = str(ROOT / "corpus" / "omega.lam")
    proc = subprocess.Popen(
        [sys.executable, "-m", "tamc.cli", "run", omega, "--trace", "--fuel", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first.startswith(b"1\tusea1\t")
    assert err == b""


def test_input_nested_too_deeply_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.lam"
    path.write_text("<" * 2000 + "fun(x) -> x" + ">" * 2000 + "\n")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tamc: {path}: input nested too deeply\n"


def test_bisim_names_the_file_nested_too_deeply(tmp_path):
    (tmp_path / "deep.lam").write_text("<" * 2000 + "fun(x) -> x" + ">" * 2000 + "\n")
    identity = str(ROOT / "corpus" / "apply-identity.lam")
    env = dict(os.environ)
    src = str(Path(tamc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "tamc.cli", "bisim", identity, "deep.lam"],
        capture_output=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"tamc: deep.lam: input nested too deeply\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "F"],
        ["convert", "F", "--to", "int"],
        ["convert", "F", "--to", "target"],
        ["metrics", "F"],
        ["bisim", str(ROOT / "corpus" / "identity.lam"), "F"],
    ],
    ids=["run", "convert-int", "convert-target", "metrics", "bisim-second-file"],
)
def test_parse_error_names_the_place_without_a_prefix(argv, tmp_path, capsys):
    bad = tmp_path / "F.lam"
    bad.write_text("fun(")
    assert main([str(bad) if a == "F" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{bad}:1:5: expected ')', found 'end of input'\n"


def test_bench_csv_in_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    argv = ["bench", "--family", "quadratic-wrap", "--n-max", "1", "--csv", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tamc: cannot write {out}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,env_fuel", [(["--fuel", "0"], None), ([], "banana")])
def test_fuel_that_is_not_a_positive_integer_is_a_usage_error(
    flag, env_fuel, monkeypatch, capsys
):
    if env_fuel is None:
        monkeypatch.delenv("TAMC_FUEL", raising=False)
    else:
        monkeypatch.setenv("TAMC_FUEL", env_fuel)
    assert main(["run", str(ROOT / "corpus" / "identity.lam"), *flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tamc: fuel must be a positive integer\n"
