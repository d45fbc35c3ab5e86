"""Differential checker tests.

The checker itself is the oracle for most of the suite, so these
tests also verify it can fail: a broken reverse translation must be
caught, not absorbed.
"""

import importlib.util
from pathlib import Path

import pytest

from tamc import bisim
from tamc.analysis import family_fun_explosion, family_tuple_explosion
from tamc.bisim import bisim_check
from tamc.calculi import ClashKind, ClashOutcome, step_target
from tamc.generate import GenConfig, gen_corpus
from tamc.machine_common import MachineFinal, Transition
from tamc.syntax import parse
from tamc.terms import Var


def test_single_beta_example():
    rep = bisim_check(parse("(fun(x) -> x) <fun(y) -> y y>"))
    assert rep.ok, rep.failures
    assert rep.outcome == "value"
    assert rep.beta == 1 and rep.pi == 0


def test_value_term():
    rep = bisim_check(parse("fun(x) -> x"))
    assert rep.ok
    assert rep.outcome == "value"
    assert rep.beta == 0 and rep.pi == 0


def test_projection_clash_agreement():
    rep = bisim_check(parse("pi 2 <fun(y) -> y>"))
    assert rep.ok, rep.failures
    assert rep.outcome == "clash:projection"


def test_arity_clash_agreement():
    rep = bisim_check(parse("(fun(x, y) -> x) <fun(z) -> z>"))
    assert rep.ok, rep.failures
    assert rep.outcome == "clash:abstraction-or-closure"


def test_tuple_clash_agreement():
    rep = bisim_check(parse("<> <>"))
    assert rep.ok, rep.failures
    assert rep.outcome == "clash:tuple"


def test_fuel_policy_common_prefix():
    omega = parse("(fun(x) -> x <x>) <fun(x) -> x <x>>")
    rep = bisim_check(omega, fuel=50)
    assert rep.ok, rep.failures
    assert rep.outcome == "fuel"
    assert rep.beta == 50


def test_explosion_families_small():
    for fam in (family_tuple_explosion, family_fun_explosion):
        rep = bisim_check(fam(4))
        assert rep.ok, rep.failures
        assert rep.beta == 4
        assert rep.outcome == "value"


def test_mixed_program():
    src = "(fun(f) -> pi 1 <f <f>, pi 2 <<>, f>>) <fun(y) -> <y>>"
    rep = bisim_check(parse(src))
    assert rep.ok, rep.failures
    assert rep.outcome == "value"
    assert rep.beta >= 2 and rep.pi >= 2


def test_random_corpus():
    for t in gen_corpus(GenConfig(seed=11), 100):
        rep = bisim_check(t, fuel=1000)
        assert rep.ok, (rep.failures, t)


def test_checker_detects_broken_reverse_translation(monkeypatch):
    monkeypatch.setattr("tamc.bisim.unwrap", lambda t, memo=None: Var("broken"))
    rep = bisim_check(parse("(fun(x) -> x) <fun(y) -> y>"))
    assert not rep.ok
    assert any("unwrap" in f for f in rep.failures)


def test_checker_detects_broken_naming(monkeypatch):
    monkeypatch.setattr("tamc.bisim.naming", lambda t, w, p, supply, memo=None: Var("broken"))
    rep = bisim_check(parse("(fun(x) -> x) <fun(y) -> y>"))
    assert not rep.ok
    assert any("naming" in f for f in rep.failures)


def test_checker_detects_broken_alpha_comparison(monkeypatch):
    # plain equality instead of alpha: naming's fresh names never match
    monkeypatch.setattr("tamc.bisim.alpha_eq_int", lambda a, b, memo=None: a == b)
    rep = bisim_check(parse("(fun(x) -> x) <fun(y) -> y>"))
    assert not rep.ok
    assert any("naming" in f for f in rep.failures)


def test_nested_tuple_depth_200_passes():
    # 300 deep raises RecursionError; the memoized clause (c) must not
    # lower that ceiling below 200
    rep = bisim_check(parse("<" * 200 + "fun(x) -> x" + ">" * 200))
    assert rep.ok, rep.failures
    assert rep.outcome == "value"


def test_report_summary_format():
    rep = bisim_check(parse("pi 2 <fun(y) -> y>"))
    s = rep.summary()
    assert s.startswith("ok clash:projection")
    assert "beta=0" in s


# Each failure message bisim_check can give for clauses (a) and (d) and
# for the machine walks of clause (b), reached by a mutant of one of
# bisim's own names or by a small machine fuel. The interpreter
# trajectory also drives the target machine's walk, so a mutant that
# makes clause (a) or (d) fail makes that walk fail as well.

IDENTITY = "(fun(x) -> x) <fun(y) -> y>"
CLASH = "pi 2 <fun(y) -> y>"


def _target_trajectory(change):
    """A mutant _interp_trajectory that passes the target run through change."""

    def mutant(real):
        def trajectory(stepf, t, fuel):
            out = real(stepf, t, fuel)
            return change(*out) if stepf is step_target else out

        return trajectory

    return "_interp_trajectory", mutant


def _step(change):
    """A mutant step_stam that passes every result through change."""
    return "step_stam", lambda real: lambda state: change(real(state))


def _final(final):
    """Replace every MachineFinal by final."""
    return _step(lambda r: final if isinstance(r, MachineFinal) else r)


def _on(name, change):
    """Pass every transition called name through change."""
    return _step(lambda r: change(r) if isinstance(r, Transition) and r.name == name else r)


WALK_CASES = [
    (
        "label-sequences-differ",
        IDENTITY,
        _target_trajectory(lambda terms, labels, final: (terms[:-1], labels[:-1], final)),
        None,
        (
            "label sequences differ: source 1, int 1, target 0",
            "target machine: extra principal step beta at index 0",
        ),
    ),
    (
        "outcomes-differ",
        CLASH,
        _target_trajectory(
            lambda terms, labels, final: (terms, labels, ClashOutcome(ClashKind.TUPLE, ()))
        ),
        None,
        (
            "outcomes differ: source clash:projection, int clash:projection, target clash:tuple",
            "target machine: clash kind projection vs interpreter tuple",
        ),
    ),
    (
        "initial-readback",
        IDENTITY,
        ("init_stam", lambda real: lambda u: real(parse("<>"))),
        None,
        ("source machine: initial readback differs",),
    ),
    (
        "stopped-early",
        IDENTITY,
        _on("ebeta", lambda r: MachineFinal("successful")),
        None,
        ("source machine: stopped after 0 principal steps, interpreter took 1",),
    ),
    (
        "successful-but-clash",
        CLASH,
        _final(MachineFinal("successful")),
        None,
        ("source machine: successful but interpreter ended clash",),
    ),
    (
        "clash-but-value",
        IDENTITY,
        _final(MachineFinal("clash", ClashKind.TUPLE)),
        None,
        ("source machine: clash but interpreter ended value",),
    ),
    (
        "clash-kind",
        CLASH,
        _final(MachineFinal("clash", ClashKind.TUPLE)),
        None,
        ("source machine: clash kind tuple vs interpreter projection",),
    ),
    (
        "extra-principal-step",
        "fun(x) -> x",
        _on("usea5", lambda r: r._replace(name="ebeta")),
        None,
        ("source machine: extra principal step beta at index 0",),
    ),
    (
        "step-label",
        IDENTITY,
        _on("ebeta", lambda r: r._replace(name="epi")),
        None,
        ("source machine: step 0 label pi vs interpreter beta",),
    ),
    (
        "machine-fuel",
        IDENTITY,
        None,
        1,
        tuple(
            f"{m} machine: ran out of machine fuel on a terminating term"
            for m in ("source", "int", "target")
        ),
    ),
]


@pytest.mark.parametrize(
    "program, mutant, machine_fuel, failures",
    [case[1:] for case in WALK_CASES],
    ids=[case[0] for case in WALK_CASES],
)
def test_each_walk_failure_message_is_reachable(program, mutant, machine_fuel, failures, monkeypatch):
    if mutant is not None:
        name, make = mutant
        monkeypatch.setattr(bisim, name, make(getattr(bisim, name)))
    rep = bisim_check(parse(program), machine_fuel=machine_fuel)
    assert not rep.ok
    assert rep.failures == failures


def test_bisim_binds_every_name_the_tracer_rebinds():
    # perfbench/tracing.py patches these names in tamc.bisim's namespace
    # for a traced benchmark run, which fails on any name bisim lacks
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BISIM_NAMES
    assert [name for name in tracing.BISIM_NAMES if not hasattr(bisim, name)] == []
