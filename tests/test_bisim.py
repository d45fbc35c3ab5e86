"""Differential checker tests.

The checker itself is the oracle for most of the suite, so these
tests also verify it can fail: a broken reverse translation must be
caught, not absorbed.
"""

from tamc.analysis import family_fun_explosion, family_tuple_explosion
from tamc.bisim import bisim_check
from tamc.generate import GenConfig, gen_corpus
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
