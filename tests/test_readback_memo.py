"""The readback memo that one bisim walk shares across its states.

`bisim._machine_walk` passes one dict to every readback of a walk, so
that a readback reuses substitutions and activation-stack summaries an
earlier one built. Reading back without a memo is the oracle: these
tests check that the memo never changes a readback, that it cannot hide
a broken machine from the walk, and that it really shares the work.
"""

import gc
import tracemalloc
from pathlib import Path

import pytest

from tamc import bisim, machine_source, machine_stacked
from tamc.bisim import bisim_check
from tamc.calculi import step_int, step_target
from tamc.generate import GenConfig, gen_corpus
from tamc.machine_common import MachineFinal, Transition
from tamc.machine_int import init_itam, readback_itam, run_itam, step_itam
from tamc.machine_source import SClos, STup, init_stam, readback_stam, run_stam, step_stam
from tamc.machine_stacked import PendingFn, ProjFrame, Unev
from tamc.machine_target import TupledEnv, init_ttam, readback_ttam, run_ttam, step_ttam
from tamc.syntax import parse
from tamc.terms import Proj, Var
from tamc.transforms import closure_convert, eliminate_names, wrap

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
OMEGA = parse((CORPUS / "omega.lam").read_text())

MACHINES = (
    ("source", lambda u: init_stam(u), step_stam, readback_stam),
    ("int", lambda u: init_itam(wrap(u)), step_itam, readback_itam),
    ("target", lambda u: init_ttam(closure_convert(u)), step_ttam, readback_ttam),
)


def _programs():
    out = []
    for p in sorted(CORPUS.glob("*.lam")):
        fuel = 2_000 if p.name == "omega.lam" else 100_000
        out.append((p.name, parse(p.read_text()), fuel))
    for k, t in enumerate(gen_corpus(GenConfig(seed=0), 500)):
        out.append((f"generated term {k}", t, 100_000))
    return out


def _states(init, step, fuel):
    """The states of one run, the initial one first, at most fuel transitions."""
    state = init
    yield state
    for _ in range(fuel):
        r = step(state)
        if isinstance(r, MachineFinal):
            return
        state = r.state
        yield state


def test_memo_readback_equals_fresh_readback_at_every_state():
    programs = _programs()
    assert len(programs) == 518
    for label, u, fuel in programs:
        for name, init, step, readback in MACHINES:
            memo: dict = {}
            for k, s in enumerate(_states(init(u), step, fuel)):
                assert readback(s, memo) == readback(s), (label, name, k)


def _memoless(monkeypatch):
    """Make bisim's walks read every state back afresh, as the oracle does."""
    for name in ("readback_stam", "readback_itam", "readback_ttam"):
        fn = getattr(bisim, name)
        monkeypatch.setattr(bisim, name, lambda s, memo=None, fn=fn: fn(s))


def test_bisim_reports_agree_with_and_without_memo(monkeypatch):
    programs = []
    for p in sorted(CORPUS.glob("*.lam")):
        fuel = 300 if p.name == "omega.lam" else 1_000
        programs.append((parse(p.read_text()), fuel))
    programs += [(t, 1_000) for t in gen_corpus(GenConfig(seed=3), 100)]
    with_memo = [bisim_check(u, fuel=fuel) for u, fuel in programs]
    _memoless(monkeypatch)
    without = [bisim_check(u, fuel=fuel) for u, fuel in programs]
    assert with_memo == without
    assert all(rep.ok for rep in with_memo)


# Mutants: a step function that, at the first overhead transition whose
# successor `mutate` accepts, hands the walk mutate's state instead, and
# steps on from the state it replaced. The machine is wrong in that one
# state only, so the walk has to catch it at that very transition.


def _mutant(step, mutate):
    swapped = None  # (bad state, the state it replaced)

    def mutant_step(s):
        nonlocal swapped
        if swapped is not None:
            if s is swapped[0]:
                s = swapped[1]
            return step(s)
        r = step(s)
        if not isinstance(r, Transition) or r.name in ("ebeta", "epi"):
            return r
        bad = mutate(r.state)
        if bad is None:
            return r
        swapped = (bad, r.state)
        return Transition(r.name, bad, r.cost)

    return mutant_step


def _corrupt_bottom_frame(s):
    """astack rebuilt with its bottom frame's control stack under a projection."""
    if len(s.astack) < 3:
        return None
    (cstack, env), *above = s.astack
    return s._replace(astack=((cstack + (ProjFrame(1),), env), *above))


def _identity_value(run, translate):
    return run(translate(parse("fun(z) -> z"))).final_state.focus


def _swap_named_env(s):
    """The named environment, each variable bound to the identity instead."""
    if not s.env:
        return None
    other = _identity_value(run_itam, wrap)
    return s._replace(env=tuple((var, other) for var, _ in s.env))


def _swap_positional_env(s):
    """The positional environment, each position holding the identity instead."""
    if not (s.env.lvals or s.env.svals):
        return None
    other = _identity_value(run_ttam, closure_convert)
    env = TupledEnv(tuple(other for _ in s.env.lvals), tuple(other for _ in s.env.svals))
    return s._replace(env=env)


def _only_through_memo(swap):
    """swap, at a state whose readback sees the environment only through
    a pending function the walk has substituted before: a memo keyed by
    the term alone would return the old substitution there."""

    def mutate(s):
        if isinstance(s.focus, Unev) or not any(isinstance(e, PendingFn) for e in s.cstack):
            return None
        return swap(s)

    return mutate


def _corrupt_entry_below_top(s):
    """The source stack with the pending function just below its top under a projection."""
    if len(s.stack) < 2 or type(s.stack[-2]) is not machine_source.PendingFn:
        return None
    below = s.stack[-2]
    return s._replace(stack=(*s.stack[:-2], below._replace(term=Proj(1, below.term)), s.stack[-1]))


def _swap_focus_env(s):
    """The focus's environment, each variable bound to the identity instead, at
    a compound focus: an earlier readback substituted that term under the old
    environment, and the stack keeps the old one, so the readback sees the swap
    only through the focus. A memo keyed by the term alone, or one fold memo for
    every environment, would return the old substitution there. (On omega every
    pending function is a variable, which a readback resolves with no memo.)"""
    f = s.focus
    if type(f) is not machine_source.Unev or type(f.term) is Var or not f.env:
        return None
    other = _identity_value(run_stam, lambda u: u)
    return s._replace(focus=f._replace(env=tuple((var, other) for var, _ in f.env)))


MUTANTS = [
    ("step_itam", "int machine", _corrupt_bottom_frame),
    ("step_ttam", "target machine", _corrupt_bottom_frame),
    ("step_itam", "int machine", _only_through_memo(_swap_named_env)),
    ("step_ttam", "target machine", _only_through_memo(_swap_positional_env)),
    ("step_stam", "source machine", _corrupt_entry_below_top),
    ("step_stam", "source machine", _swap_focus_env),
]


@pytest.mark.parametrize(
    "step_name,machine,mutate",
    MUTANTS,
    ids=[
        "int-bottom-frame",
        "target-bottom-frame",
        "int-env-values",
        "target-env-values",
        "source-below-top",
        "source-focus-env",
    ],
)
@pytest.mark.parametrize("memo", [True, False], ids=["memo", "no-memo"])
def test_walk_catches_mutant_overhead_transition(monkeypatch, step_name, machine, mutate, memo):
    if not memo:
        _memoless(monkeypatch)
    monkeypatch.setattr(bisim, step_name, _mutant(getattr(bisim, step_name), mutate))
    rep = bisim_check(OMEGA, fuel=20)
    assert not rep.ok
    assert len(rep.failures) == 1
    assert rep.failures[0].startswith(f"{machine}: overhead transition ")
    assert rep.failures[0].endswith(" changed readback")


# Sharing, counted: reading back every state of a run with one memo
# substitutes at most once per transition.


def _church(k: int) -> str:
    body = "x"
    for _ in range(k):
        body = f"f <{body}>"
    return f"fun(f) -> fun(x) -> {body}"


def _church_program(a: int, b: int) -> str:
    """church(a) applied to church(b), to the identity and to <>."""
    return f"({_church(a)}) <{_church(b)}> <fun(u) -> u> <<>>"


@pytest.mark.parametrize(
    "text,fuel",
    [(_church_program(3, 3), 100_000), (_church_program(2, 6), 100_000), (None, 1_000)],
    ids=["church-3-3-id", "church-2-6-id", "omega@1000"],
)
def test_memo_substitutes_at_most_once_per_transition(monkeypatch, text, fuel):
    calls = 0
    subst_bags = machine_stacked.subst_bags

    def counting(t, resolve, memo=None):
        nonlocal calls
        calls += 1
        return subst_bags(t, resolve, memo)

    monkeypatch.setattr(machine_stacked, "subst_bags", counting)
    u = OMEGA if text is None else parse(text)
    memo: dict = {}
    transitions = -1
    for s in _states(init_itam(wrap(u)), step_itam, fuel):
        readback_itam(s, memo)
        transitions += 1
    assert transitions > 0
    assert 0 < calls <= transitions, (calls, transitions)


# Sharing, counted on all three machines: one memo substitutes each
# activation's body once, so a run of beta activations folds at most
# beta + 1 terms under an environment. The stacked machines substitute
# through subst_bags; the source machine folds source terms, and folds
# machine values only to read them back.


def _count_substitutions(monkeypatch, machine: str) -> list:
    calls = []
    if machine == "source":
        fold = machine_source.fold

        def counting(t, *rest):
            if type(t) is not SClos and type(t) is not STup:
                calls.append(t)
            return fold(t, *rest)

        monkeypatch.setattr(machine_source, "fold", counting)
    else:
        subst_bags = machine_stacked.subst_bags

        def counting(t, resolve, memo=None):
            calls.append(t)
            return subst_bags(t, resolve, memo)

        monkeypatch.setattr(machine_stacked, "subst_bags", counting)
    return calls


@pytest.mark.parametrize("machine,init,step,readback", MACHINES, ids=[m[0] for m in MACHINES])
@pytest.mark.parametrize(
    "text,fuel",
    [(_church_program(3, 3), 100_000), (_church_program(2, 6), 100_000), (None, 1_000)],
    ids=["church-3-3-id", "church-2-6-id", "omega@1000"],
)
def test_memo_substitutes_each_activation_once(monkeypatch, text, fuel, machine, init, step, readback):
    calls = _count_substitutions(monkeypatch, machine)
    u = OMEGA if text is None else parse(text)
    memo: dict = {}
    state, beta = init(u), 0
    readback(state, memo)
    for _ in range(fuel):
        r = step(state)
        if isinstance(r, MachineFinal):
            break
        state = r.state
        beta += r.name == "ebeta"
        readback(state, memo)
    assert beta > 0
    assert 0 < len(calls) <= beta + 1, (len(calls), beta)


# Memory, measured: a walk's readback memo keeps the live frames of the
# current activation stack only, so doubling an omega walk, whose stack
# grows by one frame per beta, about doubles its peak. Kept per stack,
# the frame lists would grow quadratically.


def _walk_peak(machine: str, fuel: int, machine_fuel: int) -> int:
    wu = wrap(OMEGA)
    if machine == "int":
        u, interp, init, step, readback = wu, step_int, init_itam, step_itam, readback_itam
    else:
        u, interp, init = eliminate_names(wu, (), ()), step_target, init_ttam
        step, readback = step_ttam, readback_ttam
    terms, labels, final = bisim._interp_trajectory(interp, u, fuel)
    state = init(u)
    gc.collect()
    tracemalloc.start()
    try:
        failures = bisim._machine_walk(
            state, step, readback, terms, labels, bisim._outcome_str(final), machine_fuel, machine
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert failures == []
    return peak


@pytest.mark.parametrize("machine", ["int", "target"])
def test_walk_memory_grows_linearly_in_omega_betas(machine):
    small = _walk_peak(machine, 1_000, 7_000)
    large = _walk_peak(machine, 2_000, 14_000)
    assert large <= 3.0 * small, (small, large)
