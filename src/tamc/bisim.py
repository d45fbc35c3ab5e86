"""Six-way differential checker.

For one closed source term u, six executions exist: the three
interpreters and the three machines, on u, wrap(u) and
eliminate_names(wrap(u), (), ()), the closure conversion of u.
bisim_check wraps u once, runs all six, and checks

  (a) the three interpreter label sequences are identical;
  (b) each machine implements its own calculus: overhead transitions
      keep the readback fixed, principal transitions advance it by
      exactly one interpreter step with the same label;
  (c) the reverse translations commute stepwise: unwrap of the k-th
      intermediate reduct is the k-th source reduct, naming of the
      k-th target reduct is alpha-equal to the k-th intermediate one;
  (d) all terminal classifications agree (value versus clash, and the
      clash kind).

unwrap commutation is checked with plain equality: the intermediate
reduction uses the same names as the source one, so nothing weaker is
needed. naming mints fresh names, hence the alpha comparison there.

Clause (c) translates and compares every reduct in full, but one
identity-keyed memo per translation, one for the alpha comparison, and
one FreshSupply serve the whole trajectory, so a reduct costs only the
nodes that earlier reducts did not already have. This rests on the
closure invariant: a closure's body mentions only the closure's own
binders, so translating or alpha-comparing a body does not depend on
where the body sits.
Reduction never enters a closure body and the steppers share every
subterm they do not rebuild, so a body, and every value carried from
one reduct to the next, is the same object at each step. Hence unwrap
is memoized at every node, as it is pure; naming names each closure
body once, under the names minted for it the first time (its bag is
still resolved against the enclosing lists), and memoizes every node
under its enclosing lists; and alpha_eq_int remembers the pairs that
it proved equal without consulting a free name or a binder above them.
Each memo entry holds its key objects, so no id is reused while the
memos live; terms are immutable; and only proven equalities are
remembered, so a hit gives exactly what recomputing would, and an
ill-formed body, whose comparison consults its context, is never
remembered. The memos are dropped when the clause ends. Called without
a memo, each of these functions recomputes everything: that path is
the oracle the tests compare with.

Fuel counts calculus steps for interpreters and transitions for
machines, so machines get a generous multiple; if an interpreter run
exhausts its fuel the machine walks check the common prefix and stop.

One readback memo serves each walk; what it reuses and why a hit is
exact are in the docstrings of `readback_stam` and the stacked `readback`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculi import (
    ClashOutcome,
    OpenStuckOutcome,
    ValueOutcome,
    _normalize,
    step_int,
    step_source,
    step_target,
)
from .machine_common import PRINCIPAL, MachineFinal
from .machine_int import init_itam, readback_itam, step_itam
from .machine_source import init_stam, readback_stam, step_stam
from .machine_target import init_ttam, readback_ttam, step_ttam
from .syntax import print_source
from .terms import SourceTerm, alpha_eq_int
# closure_convert is unused here; perfbench/tracing.py rebinds it with the names below
from .transforms import FreshSupply, closure_convert, eliminate_names, naming, unwrap, wrap

DEFAULT_BISIM_FUEL = 10_000


@dataclass(frozen=True, slots=True)
class BisimReport:
    term: SourceTerm
    ok: bool
    failures: tuple[str, ...]
    outcome: str  # "value", "clash:<kind>", or "fuel"
    beta: int
    pi: int

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        head = print_source(self.term)
        if len(head) > 60:
            head = head[:57] + "..."
        return f"{status} {self.outcome} beta={self.beta} pi={self.pi} {head}"


def _interp_trajectory(stepf, t, fuel: int):
    """Terms and labels of a fueled interpreter run, plus its final outcome."""
    terms = [t]
    r = _normalize(stepf, t, fuel, terms)
    return terms, r.labels, r.final


def _outcome_str(final) -> str:
    """Classify an interpreter's final outcome: value, clash:<kind>, open or fuel."""
    match final:
        case ValueOutcome():
            return "value"
        case ClashOutcome(kind):
            return f"clash:{kind.value}"
        case OpenStuckOutcome():
            return "open"
    return "fuel"


def _commutation_failures(s_terms, i_terms, t_terms, memoize: bool = True) -> list[str]:
    """Clause (c): the first reduct at which each reverse translation fails.

    unwrap, naming and alpha_eq_int are called once per reduct, by the
    names this module imported, with one FreshSupply for all of them;
    an unwrapped reduct is compared with ==. With memoize, one memo per
    translation and one for the alpha comparison serve every reduct
    (see the module docstring); without, each reduct is translated and
    compared from scratch, as the oracle.
    """
    unwrap_memo, naming_memo, alpha_memo = ({}, {}, {}) if memoize else (None, None, None)
    failures = []
    for k, (st, it) in enumerate(zip(s_terms, i_terms)):
        if unwrap(it, unwrap_memo) != st:
            failures.append(f"unwrap of intermediate reduct {k} is not source reduct {k}")
            break
    supply = FreshSupply()
    for k, (it, tt) in enumerate(zip(i_terms, t_terms)):
        if not alpha_eq_int(naming(tt, (), (), supply, naming_memo), it, alpha_memo):
            failures.append(f"naming of target reduct {k} is not intermediate reduct {k}")
            break
    return failures


def _machine_walk(init, stepf, readback, terms, labels, ended, fuel, name) -> list[str]:
    """Drive one machine against its interpreter trajectory; return the failures.

    ended is the interpreter's outcome as _outcome_str classifies it.
    """
    memo: dict = {}  # shared by this walk's readbacks only
    state = init
    rb = readback(state, memo)
    if rb != terms[0]:
        return [f"{name}: initial readback differs"]
    j = 0
    for _ in range(fuel):
        r = stepf(state)
        if isinstance(r, MachineFinal):
            failures = []
            if j != len(labels):
                failures.append(
                    f"{name}: stopped after {j} principal steps, interpreter took {len(labels)}"
                )
            if r.status == "successful" and ended != "value":
                failures.append(f"{name}: successful but interpreter ended {ended.partition(':')[0]}")
            if r.status == "clash":
                if not ended.startswith("clash:"):
                    failures.append(f"{name}: clash but interpreter ended {ended}")
                elif ended != f"clash:{r.clash.value}":
                    failures.append(
                        f"{name}: clash kind {r.clash.value} vs interpreter {ended.removeprefix('clash:')}"
                    )
            return failures
        nxt_rb = readback(r.state, memo)
        label = PRINCIPAL.get(r.name)
        if label is not None:
            if j >= len(labels):
                # interpreter ran out of fuel here; prefix agreed, stop
                if ended == "fuel":
                    return []
                return [f"{name}: extra principal step {label.value} at index {j}"]
            if labels[j] is not label:
                return [f"{name}: step {j} label {label.value} vs interpreter {labels[j].value}"]
            j += 1
            if nxt_rb != terms[j]:
                return [f"{name}: readback after principal step {j} differs"]
        elif nxt_rb != rb:
            return [f"{name}: overhead transition {r.name} changed readback"]
        state = r.state
        rb = nxt_rb
    return [] if ended == "fuel" else [f"{name}: ran out of machine fuel on a terminating term"]


def bisim_check(
    u: SourceTerm, fuel: int = DEFAULT_BISIM_FUEL, machine_fuel: int | None = None
) -> BisimReport:
    if machine_fuel is None:
        machine_fuel = 20 * fuel + 10_000
    failures = []

    wu = wrap(u)
    cu = eliminate_names(wu, (), ())
    s_terms, s_labels, s_out = _interp_trajectory(step_source, u, fuel)
    i_terms, i_labels, i_out = _interp_trajectory(step_int, wu, fuel)
    t_terms, t_labels, t_out = _interp_trajectory(step_target, cu, fuel)

    # (a) identical label sequences
    if not (s_labels == i_labels == t_labels):
        failures.append(
            f"label sequences differ: source {len(s_labels)}, int {len(i_labels)}, target {len(t_labels)}"
        )

    # (d) terminal classifications agree
    s_end, i_end, t_end = (_outcome_str(o) for o in (s_out, i_out, t_out))
    if not (s_end == i_end == t_end):
        failures.append(f"outcomes differ: source {s_end}, int {i_end}, target {t_end}")

    # (c) stepwise commutation through the reverse translations
    if not failures:
        failures.extend(_commutation_failures(s_terms, i_terms, t_terms))

    # (b) machine implementation, one machine at a time
    mtraj = (
        (init_stam(u), step_stam, readback_stam, s_terms, s_labels, s_end, "source machine"),
        (init_itam(wu), step_itam, readback_itam, i_terms, i_labels, i_end, "int machine"),
        (init_ttam(cu), step_ttam, readback_ttam, t_terms, t_labels, t_end, "target machine"),
    )
    for init, stepf, readback, terms, labels, ended, name in mtraj:
        failures += _machine_walk(init, stepf, readback, terms, labels, ended, machine_fuel, name)

    beta = sum(1 for l in s_labels if l.value == "beta")
    return BisimReport(
        term=u,
        ok=not failures,
        failures=tuple(failures),
        outcome=s_end,
        beta=beta,
        pi=len(s_labels) - beta,
    )
