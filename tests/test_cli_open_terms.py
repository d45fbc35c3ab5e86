"""Which subcommands accept an open term.

`run`, `bisim` and `convert --to target` need a closed term and exit
with code 2 on an open one. `convert --to int` and `metrics` are
static and accept it: wrapping leaves the free variable in the bag,
and `metrics` reports it.
"""

import pytest

from tamc.cli import main


@pytest.fixture
def open_term(tmp_path):
    f = tmp_path / "open.lam"
    f.write_text("fun(x) -> y\n")
    return str(f)


def test_static_subcommands_accept_an_open_term(open_term, capsys):
    assert main(["convert", open_term, "--to", "int"]) == 0
    assert capsys.readouterr().out == "[(y); (x). y]<y>\n"
    assert main(["metrics", open_term]) == 0
    assert capsys.readouterr().out == "size=3 width=1 height=1 closed=no free=y\n"


@pytest.mark.parametrize(
    "argv",
    [["run"], ["run", "--machine", "target"], ["bisim"], ["convert", "--to", "target"]],
    ids=" ".join,
)
def test_running_subcommands_reject_an_open_term(open_term, capsys, argv):
    assert main([argv[0], open_term, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "open.lam" in captured.err
