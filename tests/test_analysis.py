"""Family generators and run checkers.

Expected values here come from the closed-form recurrences, evaluated
by hand for small n and cross-checked against the interpreter before
being frozen.
"""

import io

import pytest

from tamc.analysis import (
    MACHINES,
    OutOfFuelError,
    audit_measure,
    bench,
    bilinear_ratio,
    check_bilinear,
    check_transition_match,
    family_fun_explosion,
    family_quadratic_wrap,
    family_tuple_explosion,
    fun_explosion_nf_size,
    fun_explosion_size,
    identity,
    measure_violations,
    quadratic_driver,
    quadratic_wrap_size,
    quadratic_wrapped_size,
    tuple_explosion_nf_size,
    tuple_explosion_size,
    unfolded_size_from_int,
    unfolded_size_from_target,
    write_bench_csv,
)
from tamc.calculi import ClashKind, StepLabel, normalize_source
from tamc.machine_common import RunRecord
from tamc.machine_int import run_itam
from tamc.machine_source import readback_value, run_stam
from tamc.machine_target import run_ttam
from tamc.syntax import parse, print_source
from tamc.terms import (
    Abs, App, Closure, Proj, Tuple, ValBag, Var, metrics, shared_size_source, size_int,
)
from tamc.transforms import closure_convert, eliminate_names, reverse_convert, unwrap, wrap


def test_family_shapes():
    assert family_tuple_explosion(0) == identity()
    assert print_source(family_tuple_explosion(1)) == "(fun(x) -> <x, x>) <fun(z) -> z>"
    assert family_fun_explosion(0) == identity()
    assert print_source(family_quadratic_wrap(3)) == "fun(x1) -> fun(x2) -> fun(x3) -> x1 x2 x3"


def test_family_sizes_match_closed_forms():
    for n in (0, 1, 2, 5, 9):
        assert metrics(family_tuple_explosion(n)).size == tuple_explosion_size(n)
        assert metrics(family_fun_explosion(n)).size == fun_explosion_size(n)
    for n in (1, 2, 3, 7, 12):
        q = family_quadratic_wrap(n)
        assert metrics(q).size == quadratic_wrap_size(n)
        assert metrics(q).height == n


def test_wrapped_quadratic_size_closed_form():
    for n in (1, 2, 3, 5, 8, 16):
        assert size_int(wrap(family_quadratic_wrap(n))) == quadratic_wrapped_size(n)


def test_tuple_family_normalizes_exponentially():
    t = family_tuple_explosion(3)
    nr = normalize_source(t)
    assert nr.labels == (StepLabel.BETA,) * 3
    assert shared_size_source(nr.term) == tuple_explosion_nf_size(3) == 38


def test_fun_family_normalizes_exponentially():
    t = family_fun_explosion(3)
    nr = normalize_source(t)
    assert nr.labels == (StepLabel.BETA,) * 3
    assert shared_size_source(nr.term) == fun_explosion_nf_size(3) == 73


def test_machines_agree_on_beta_counts():
    for fam in (family_tuple_explosion, family_fun_explosion):
        t = fam(4)
        recs = [
            run_stam(t),
            run_itam(wrap(t)),
            run_ttam(closure_convert(t)),
        ]
        for rec in recs:
            assert rec.final == "successful"
            assert rec.beta == 4
            assert rec.pi == 0


def test_unfolded_size_matches_unwrap_on_small_instances():
    for fam, nf_size in (
        (family_tuple_explosion, tuple_explosion_nf_size),
        (family_fun_explosion, fun_explosion_nf_size),
    ):
        t = fam(3)
        irec = run_itam(wrap(t))
        ivalue = irec.final_state.focus
        assert unfolded_size_from_int(ivalue) == nf_size(3)
        assert shared_size_source(unwrap(ivalue)) == nf_size(3)
        assert unwrap(ivalue) == normalize_source(t).term
        trec = run_ttam(closure_convert(t))
        tvalue = trec.final_state.focus
        assert unfolded_size_from_target(tvalue) == nf_size(3)
        assert shared_size_source(reverse_convert(tvalue)) == nf_size(3)


def test_unfolded_size_stays_cheap_at_large_n():
    # The shared value is linear; its unfolded size is exponential.
    t = family_tuple_explosion(18)
    irec = run_itam(wrap(t))
    assert unfolded_size_from_int(irec.final_state.focus) == tuple_explosion_nf_size(18)
    srec = run_stam(t)
    assert shared_size_source(readback_value(srec.final_state.focus)) == tuple_explosion_nf_size(18)


def _distinct_nodes(t) -> int:
    """The number of distinct source-term nodes in t, by id, on one explicit stack."""
    seen, todo = set(), [t]
    while todo:
        u = todo.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        if type(u) is Abs:
            todo += (*u.params, u.body)
        elif type(u) is App:
            todo += (u.fn, u.arg)
        elif type(u) is Proj:
            todo.append(u.arg)
        elif type(u) is Tuple:
            todo += u.items
    return len(seen)


def test_int_read_out_keeps_a_shared_result_shared():
    # unwrap without a memo unfolds the result into 131,073 distinct nodes here.
    n = 16
    m = MACHINES["int"]
    rec = m.run(family_tuple_explosion(n))
    out = m.read_out(m.readback(rec.final_state))
    assert _distinct_nodes(out) <= 10 * n
    assert metrics(out).size == tuple_explosion_nf_size(n)


def test_unfolded_size_of_a_value_bag_under_a_non_empty_size_map():
    # The inner closure's bag value is sized under the empty map, while
    # the body around it is sized under the map {a: |I|}.
    a, b, z = Var("a"), Var("b"), Var("z")
    ident = Closure((), (z,), z, ValBag(()))
    t = Closure((a,), (), Tuple((a, ident, Closure((b,), (), b, ValBag((ident,))))), ValBag((ident,)))
    assert metrics(unwrap(t)).size == 14
    assert unfolded_size_from_int(t) == 14
    assert unfolded_size_from_target(eliminate_names(t, (), ())) == 14


def test_transition_match_on_runs():
    t = parse("(fun(x) -> pi 1 <x, x, <>>) <fun(y) -> y>")
    assert check_transition_match(run_stam(t), "source")
    assert check_transition_match(run_itam(wrap(t)), "int")
    assert check_transition_match(run_ttam(closure_convert(t)), "target")
    with pytest.raises(ValueError):
        check_transition_match(run_stam(t), "cek")


def test_measure_audits_on_runs():
    terms = [
        "(fun(x) -> pi 1 <x, x, <>>) <fun(y) -> y>",
        "(fun(x) -> x) <fun(y) -> y>",
        "pi 2 <fun(y) -> y>",
        "<> <>",
    ]
    for src in terms:
        t = parse(src)
        size = metrics(t).size
        assert audit_measure(run_stam(t, record_measure=True), "source", size)
        wt = wrap(t)
        assert audit_measure(run_itam(wt, record_measure=True), "int", size_int(wt))
        ct = closure_convert(t)
        assert audit_measure(run_ttam(ct, record_measure=True), "target", size_int(wt))


def test_measure_violation_detected():
    fake = RunRecord(
        labels=("usub",),
        counts={"usub": 1},
        final="successful",
        clash=None,
        final_state=None,
        elem_ops=2,
        env_copy_ops=0,
        lookup_ops=1,
        subv_lookup_ops=1,
        measures=(3, 3),
    )
    out = measure_violations(fake, "source", 3)
    assert len(out) == 1 and "usub" in out[0]
    with pytest.raises(ValueError):
        measure_violations(run_stam(identity()), "source", 3)


def test_measure_violations_names_an_unclassified_transition():
    # usubw, usubv and esea7 are stacked-machine transitions: the source
    # classes have none of them
    rec = run_itam(wrap(parse("(fun(x) -> x) <fun(y) -> y>")), record_measure=True)
    out = measure_violations(rec, "source", 5)
    assert out[0] == "step 2 usubw: no measure class for the source machine"
    assert not any("None" in line for line in out)


@pytest.mark.parametrize("audit", [measure_violations, audit_measure])
def test_measure_audits_reject_an_unknown_machine(audit):
    rec = run_stam(identity(), record_measure=True)
    with pytest.raises(ValueError, match="^unknown machine kind: cek$"):
        audit(rec, "cek", 3)
    with pytest.raises(ValueError, match="^unknown machine kind: cek$"):
        check_transition_match(rec, "cek")


def test_bilinear_ratio_small_on_short_runs():
    t = parse("(fun(x) -> x) <fun(y) -> y>")
    rec = run_stam(t)
    holds, ratio = check_bilinear(rec, metrics(t).size, constant=3.0)
    assert holds
    assert 0 < ratio < 1
    assert ratio == bilinear_ratio(rec, metrics(t).size)


def test_bilinear_single_constant_across_family_instances():
    ratios = []
    for n in range(1, 11):
        t = family_tuple_explosion(n)
        ratios.append(bilinear_ratio(run_stam(t), metrics(t).size))
    # The bound gets looser as instances grow, so calibrating a constant
    # on the smallest instance covers the whole family.
    assert max(ratios) == ratios[0]


def test_esea3_cost_amortized_by_transition_count():
    # The summed width cost of tuple completions never exceeds the
    # number of transitions: every completed item was focused once.
    for rec in (
        run_stam(family_tuple_explosion(6)),
        run_itam(wrap(family_tuple_explosion(6))),
        run_ttam(closure_convert(family_fun_explosion(6))),
    ):
        assert rec.elem_by_name.get("esea3", 0) <= rec.steps


def test_quadratic_driver_contrast():
    n = 6
    t = quadratic_driver(n)
    srec = run_stam(t)
    irec = run_itam(wrap(t))
    trec = run_ttam(closure_convert(t))
    # All three agree the run ends in an arity clash.
    for rec in (srec, irec, trec):
        assert rec.final == "clash"
        assert rec.clash is ClashKind.ABS_OR_CLOSURE
        assert rec.beta == n
    assert srec.env_copy_ops > 0
    assert irec.env_copy_ops == 0
    assert trec.env_copy_ops == 0
    # Target variable lookups are positional.
    assert trec.subv_lookup_ops == trec.counts["usubv"]
    assert irec.subv_lookup_ops > irec.counts["usubv"]


def test_bench_rows_and_csv():
    rows = bench("tuple-explosion", [1, 2], fuel=10_000)
    assert len(rows) == 6
    assert [r.machine for r in rows[:3]] == ["source", "int", "target"]
    assert all(r.size == tuple_explosion_size(r.n) for r in rows)
    assert all(r.total >= r.beta + r.pi for r in rows)
    assert all(r.env_copy_ops == 0 for r in rows if r.machine != "source")
    out = io.StringIO()
    write_bench_csv(rows, out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "family,n,machine,size,width,height,beta,pi,total,elem_ops,env_copy_ops,lookup_ops"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "tuple-explosion" and first[2] == "source"


def test_bench_raises_at_the_first_run_cut_short_by_fuel():
    # fuel 20 finishes every run at n = 1 and 2, and cuts the source machine at n = 3
    assert [r.total for r in bench("quadratic-wrap", [1, 2], fuel=20)] == [8, 9, 9, 18, 19, 19]
    msg = "quadratic-wrap n=3: source machine ran out of fuel after 20 transitions"
    with pytest.raises(OutOfFuelError, match=msg):
        bench("quadratic-wrap", [1, 2, 3], fuel=20)


def test_bench_rejects_unknown_family():
    with pytest.raises(ValueError):
        bench("church-mul", [1])
