"""Acceptance suite: nine end-to-end gates, one test per gate.

Each test is self-contained and asserts the property plus, where one
is pinned, a wall-clock budget. The corpus shared by the gates is the
.lam files in corpus/, both explosion families up to n = 12, and 500
seeded random closed terms (the first half of the criterion-9 batch,
so the generator is exercised on one deterministic stream).

The divergent corpus term runs with interpreter fuel 10,000 as pinned
and a 12,000-transition machine budget: the stacked machines push one
activation frame per beta and never pop on that term, so a fully
synchronized machine walk would be quadratic in the fuel. Every
terminating corpus run finishes well inside that budget.
"""

import time
from pathlib import Path

import pytest

from tamc.analysis import (
    check_bilinear,
    check_transition_match,
    family_fun_explosion,
    family_quadratic_wrap,
    family_tuple_explosion,
    fun_explosion_nf_size,
    measure_violations,
    quadratic_driver,
    quadratic_wrapped_size,
    tuple_explosion_nf_size,
    unfolded_size_from_int,
    unfolded_size_from_target,
)
from tamc.bisim import _interp_trajectory, _machine_walk, _outcome_str, bisim_check
from tamc.calculi import (
    ClashOutcome,
    FuelExhausted,
    OpenStuckOutcome,
    ValueOutcome,
    normalize_int,
    normalize_source,
    normalize_target,
    step_int,
    step_source,
    step_target,
)
from tamc.generate import GenConfig, gen_corpus
from tamc.machine_int import init_itam, readback_itam, run_itam, step_itam
from tamc.machine_source import init_stam, readback_stam, run_stam, step_stam
from tamc.machine_target import init_ttam, readback_ttam, run_ttam, step_ttam
from tamc.syntax import parse
from tamc.terms import (
    alpha_eq_int,
    alpha_eq_source,
    is_value_int,
    is_value_source,
    is_value_target,
    metrics,
    shared_size_source,
    size_int,
    size_target,
)
from tamc.transforms import (
    FreshSupply,
    closure_convert,
    eliminate_names,
    naming,
    reverse_convert,
    unwrap,
    wrap,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
INTERP_FUEL = 10_000
MACHINE_FUEL = 12_000
WRAP_GROWTH_C = 2


@pytest.fixture(scope="module")
def example_corpus():
    files = sorted(CORPUS_DIR.glob("*.lam"))
    assert files, "example corpus missing"
    return [(p.name, parse(p.read_text())) for p in files]


@pytest.fixture(scope="module")
def family_terms():
    terms = []
    for n in range(13):
        terms.append((f"tuple-{n}", family_tuple_explosion(n)))
        terms.append((f"fun-{n}", family_fun_explosion(n)))
    return terms


@pytest.fixture(scope="module")
def random_1000():
    return gen_corpus(GenConfig(seed=0), 1000)


@pytest.fixture(scope="module")
def random_500(random_1000):
    return random_1000[:500]


@pytest.fixture(scope="module")
def full_corpus(example_corpus, family_terms, random_500):
    named = list(example_corpus) + list(family_terms)
    named += [(f"random-{i}", t) for i, t in enumerate(random_500)]
    return named


@pytest.fixture(scope="module")
def bisim_reports(full_corpus):
    t0 = time.perf_counter()
    reports = [
        (name, bisim_check(t, fuel=INTERP_FUEL, machine_fuel=MACHINE_FUEL))
        for name, t in full_corpus
    ]
    return reports, time.perf_counter() - t0


def test_criterion_1_translation_round_trips(example_corpus, random_500):
    t0 = time.perf_counter()
    terms = [t for _, t in example_corpus] + list(random_500)
    for u in terms:
        wu = wrap(u)
        assert unwrap(wu) == u
        assert alpha_eq_int(naming(eliminate_names(wu, (), ()), (), (), FreshSupply()), wu)
        assert alpha_eq_source(reverse_convert(closure_convert(u)), u)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_2_strong_bisimulation(bisim_reports):
    reports, elapsed = bisim_reports
    bad = [(name, rep.failures) for name, rep in reports if not rep.ok]
    assert bad == []
    assert elapsed < 30.0


def test_criterion_3_machine_implementation(example_corpus, full_corpus):
    # Stepwise clauses, machine by machine, against that machine's own
    # calculus trajectory. The corpus-wide walks already ran inside the
    # bisim fixture; this re-derives them explicitly on the example
    # corpus so a failure names the machine and the clause.
    for name, u in example_corpus:
        wu = wrap(u)
        cu = closure_convert(u)
        for stepc, t, init, stepm, readback, mname in (
            (step_source, u, init_stam, step_stam, readback_stam, "source"),
            (step_int, wu, init_itam, step_itam, readback_itam, "int"),
            (step_target, cu, init_ttam, step_ttam, readback_ttam, "target"),
        ):
            terms, labels, out = _interp_trajectory(stepc, t, INTERP_FUEL)
            fails = _machine_walk(
                init(t), stepm, readback, terms, labels, _outcome_str(out), MACHINE_FUEL, mname
            )
            assert fails == [], (name, fails)

    # Terminal clauses on every corpus term: successful states read
    # back to values (the clash-free normal forms), clash states to
    # terms whose next calculus step is that clash.
    for name, u in full_corpus:
        wu = wrap(u)
        cu = closure_convert(u)
        for t, run, readback, stepc, is_val in (
            (u, run_stam, readback_stam, step_source, is_value_source),
            (wu, run_itam, readback_itam, step_int, is_value_int),
            (cu, run_ttam, readback_ttam, step_target, is_value_target),
        ):
            rec = run(t, fuel=MACHINE_FUEL)
            if rec.final == "successful":
                rb = readback(rec.final_state)
                assert is_val(rb), name
            elif rec.final == "clash":
                rb = readback(rec.final_state)
                r = stepc(rb)
                assert isinstance(r, ClashOutcome), name
                assert r.kind is rec.clash, name


def test_criterion_4_principal_matching(full_corpus):
    for name, u in full_corpus:
        out = normalize_source(u, fuel=INTERP_FUEL)
        if isinstance(out.final, FuelExhausted):
            continue
        labels = out.labels
        beta = sum(1 for l in labels if l.value == "beta")
        pi = len(labels) - beta
        wu = wrap(u)
        cu = closure_convert(u)
        iout = normalize_int(wu, fuel=INTERP_FUEL)
        tout = normalize_target(cu, fuel=INTERP_FUEL)
        counts = [
            (beta, pi),
            _count(iout.labels),
            _count(tout.labels),
            _rec_counts(run_stam(u, fuel=MACHINE_FUEL)),
            _rec_counts(run_itam(wu, fuel=MACHINE_FUEL)),
            _rec_counts(run_ttam(cu, fuel=MACHINE_FUEL)),
        ]
        assert len(set(counts)) == 1, (name, counts)


def _count(labels):
    beta = sum(1 for l in labels if l.value == "beta")
    return beta, len(labels) - beta


def _rec_counts(rec):
    assert rec.final != "fuel"
    return rec.beta, rec.pi


def test_criterion_5_size_explosion_vs_sharing():
    t0 = time.perf_counter()
    rows = []
    for fam, build, nf_size, n_max in (
        ("tuple", family_tuple_explosion, tuple_explosion_nf_size, 18),
        ("fun", family_fun_explosion, fun_explosion_nf_size, 15),
    ):
        for n in range(1, n_max + 1):
            t = build(n)
            wt = wrap(t)
            ct = closure_convert(t)
            srec = run_stam(t)
            irec = run_itam(wt)
            trec = run_ttam(ct)
            expected = nf_size(n)
            assert expected >= 2**n
            for rec in (srec, irec, trec):
                assert rec.final == "successful", (fam, n)
                assert rec.beta == n and rec.pi == 0, (fam, n)
            # unfolded normal-form sizes, computed over the shared
            # values without materializing the trees
            assert shared_size_source(readback_stam(srec.final_state)) == expected
            assert unfolded_size_from_int(readback_itam(irec.final_state)) == expected
            assert unfolded_size_from_target(readback_ttam(trec.final_state)) == expected
            rows.append((fam, n, srec, metrics(t).size))
            rows.append((fam, n, irec, size_int(wt)))
            rows.append((fam, n, trec, size_target(ct)))

    # one bilinear constant across both families and all machines,
    # calibrated on the smallest instances with a 2x safety factor
    base = [r for r in rows if r[1] == 1]
    constant = 2 * max(check_bilinear(rec, size, 1)[1] for _, _, rec, size in base)
    for fam, n, rec, size in rows:
        holds, ratio = check_bilinear(rec, size, constant)
        assert holds, (fam, n, ratio, constant)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_6_measure_audits(example_corpus, random_500):
    named = list(example_corpus)
    named += [(f"tuple-{n}", family_tuple_explosion(n)) for n in range(11)]
    named += [(f"fun-{n}", family_fun_explosion(n)) for n in range(11)]
    named += [(f"random-{i}", t) for i, t in enumerate(random_500)]
    for name, u in named:
        wu = wrap(u)
        cu = closure_convert(u)
        # the divergent term gets a shorter prefix, everything else
        # completes far below this budget
        fuel = 1_000 if name == "omega.lam" else MACHINE_FUEL
        for t, run, machine, size in (
            (u, run_stam, "source", metrics(u).size),
            (wu, run_itam, "int", size_int(wu)),
            (cu, run_ttam, "target", size_target(cu)),
        ):
            rec = run(t, fuel=fuel, record_measure=True)
            assert measure_violations(rec, machine, size) == [], (name, machine)
            if rec.final != "fuel":
                assert check_transition_match(rec, machine), (name, machine)


def test_criterion_7_cost_model_contrast():
    points = (8, 16, 32, 64)
    runs = {}
    for n in points:
        d = quadratic_driver(n)
        srec = run_stam(d)
        irec = run_itam(wrap(d))
        trec = run_ttam(closure_convert(d))
        for rec in (srec, irec, trec):
            assert rec.final == "clash"
            assert rec.beta == n
        runs[n] = (srec, irec, trec)

    # (a) flat environments: per-run copy work grows superlinearly
    copy_per_n = [runs[n][0].env_copy_ops / n for n in points]
    assert all(a < b for a, b in zip(copy_per_n, copy_per_n[1:])), copy_per_n

    # (b) stackable environments are never copied
    for n in points:
        assert runs[n][1].env_copy_ops == 0
        assert runs[n][2].env_copy_ops == 0

    # (c) tupled lookup is unit cost; named lookup deepens with n
    int_cost_per_lookup = []
    for n in points:
        irec, trec = runs[n][1], runs[n][2]
        assert trec.subv_lookup_ops == trec.counts["usubv"]
        int_cost_per_lookup.append(irec.subv_lookup_ops / irec.counts["usubv"])
    assert all(a < b for a, b in zip(int_cost_per_lookup, int_cost_per_lookup[1:]))


def test_criterion_8_wrapping_growth(full_corpus):
    ratios = {
        n: quadratic_wrapped_size(n) / n**2 for n in (16, 32, 64)
    }
    for n in (16, 32, 64):
        assert size_int(wrap(family_quadratic_wrap(n))) == quadratic_wrapped_size(n)
        assert 0.75 <= ratios[n] / ratios[64] <= 1.25

    checked = [t for _, t in full_corpus]
    checked += [family_quadratic_wrap(n) for n in range(1, 65)]
    checked += [family_tuple_explosion(n) for n in range(16)]
    checked += [family_fun_explosion(n) for n in range(16)]
    for t in checked:
        m = metrics(t)
        bound = WRAP_GROWTH_C * max(m.height, 1) * max(m.size, 1)
        assert size_int(wrap(t)) <= bound


def test_criterion_9_harmony_fuzz(random_1000):
    for t in random_1000:
        sout = normalize_source(t, fuel=300)
        assert not isinstance(sout.final, OpenStuckOutcome)
        assert isinstance(sout.final, (ValueOutcome, ClashOutcome, FuelExhausted))
        wt = wrap(t)
        ct = closure_convert(t)
        assert not isinstance(normalize_int(wt, fuel=300).final, OpenStuckOutcome)
        assert not isinstance(normalize_target(ct, fuel=300).final, OpenStuckOutcome)
        # machine invariant failures would raise out of these calls
        for run, arg in ((run_stam, t), (run_itam, wt), (run_ttam, ct)):
            rec = run(arg, fuel=3_000)
            assert rec.final in ("successful", "clash", "fuel")
