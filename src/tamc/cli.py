"""Command-line surface.

Subcommands: run (execute one machine on a .lam file), convert
(print the wrapped or fully converted form), bisim (differential
check over files or generated terms), bench (counter table as CSV),
metrics (static numbers for one term).

Exit codes: 0 success, 1 a check or run failed (clash, fuel, bisim
divergence) or stdout was closed early, 2 usage problems (bad flags,
unreadable file, parse error, input nested too deeply, an open term
given to run, bisim or convert --to target), 3 an internal error (a
machine invariant broke).
The TAMC_FUEL environment variable overrides the default fuel
everywhere; explicit --fuel flags win over it.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import machine_source, machine_stacked
from .analysis import FAMILIES, MACHINES, OutOfFuelError, bench, write_bench_csv
from .bisim import DEFAULT_BISIM_FUEL, bisim_check
from .calculi import DEFAULT_FUEL
from .generate import GenConfig, gen_corpus
from .machine_common import PRINCIPAL, ArgVal, MachineInvariantError, ProjFrame, Transition, run_loop
from .machine_source import SClos, STup
from .syntax import ParseError, parse, print_int, print_source, print_target
from .terms import (
    Abs,
    App,
    Closure,
    Proj,
    PVar,
    PVarBag,
    TClosure,
    Tuple,
    Var,
    VarBag,
    free_vars,
    metrics,
)
from .transforms import closure_convert, wrap


class _Usage(Exception):
    """A usage problem; main prints it after "tamc: " and exits 2."""


def _read_term(path: str):
    """Parse one .lam file; _Usage if it cannot be read, and a ParseError propagates."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise _Usage(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise _Usage(f"cannot read {path}: {e}")
    return parse(text)


def _read_closed(path: str):
    """_read_term, then _Usage naming the free variables if the term is open."""
    t = _read_term(path)
    free = free_vars(t)
    if free:
        raise _Usage(f"{path}: term is open (free: {', '.join(v.name for v in free)})")
    return t


def _fuel(flag: int | None, default: int) -> int:
    """--fuel, else TAMC_FUEL, else default; _Usage unless a positive integer."""
    try:
        fuel = int(flag if flag is not None else os.environ.get("TAMC_FUEL", default))
    except ValueError:
        fuel = 0
    if fuel <= 0:
        raise _Usage("fuel must be a positive integer")
    return fuel


def _brief(t, budget: int = 14) -> str:
    """t in short: its nodes in pre-order, one unit of budget each; once it is spent, "..." for a node and its parts."""
    out: list[str] = []
    todo = [t]  # nodes and, between them, the strings to print
    while todo:
        u = todo.pop()
        if type(u) is str:
            out.append(u)
            continue
        if budget <= 0:
            out.append("...")
            continue
        budget -= 1
        match u:
            case Var(name=name):
                parts = (name,)
            case PVar(base=base, index=i):
                parts = (f"pi{i} {base}",)
            case Abs(params=params):
                parts = (f"fun/{len(params)}",)
            case App(fn=fn, arg=arg):
                parts = ("(", fn, " ", arg, ")")
            case Proj(index=i, arg=arg):
                parts = (f"pi{i} ", arg)
            case Tuple(items=items):
                parts = ("<", *[p for it in items for p in (", ", it)][1:], ">")  # no comma before the first
            case Closure(body=b, bag=bag) | TClosure(body=b, bag=bag):
                bagmark = "v" if isinstance(bag, (VarBag, PVarBag)) else "!"
                parts = ("[", b, f"]{bagmark}")
            case SClos(abs=ab):
                parts = ("clos ", ab)
            case STup(items=items):
                parts = (f"tup/{len(items)}",)
            case _:
                parts = ("?",)
        todo += reversed(parts)
    return "".join(out)


def _focus_summary(state) -> str:
    match state.focus:
        case machine_stacked.Unev(term=t) | machine_source.Unev(term=t):
            return "u " + _brief(t)
        case value:
            return "v " + _brief(value)


def _stacks(state) -> tuple[tuple, tuple | None]:
    """The control stack and, on a stacked machine, the activation stack."""
    match state:
        case machine_stacked.State(cstack=cstack, astack=astack):
            return cstack, astack
        case machine_source.SState(stack=stack):
            return stack, None
    raise TypeError(f"not a machine state: {state!r}")


def _entry_summary(e) -> str:
    name = type(e).__name__
    match e:
        case machine_stacked.PendingFn(term=t) | machine_source.PendingFn(term=t):
            return f"{name} {_brief(t, 8)}"
        case ArgVal(value=v):
            return f"{name} {_brief(v, 8)}"
        case ProjFrame(index=i):
            return f"{name} {i}"
        case machine_stacked.PartialTuple() | machine_source.PartialTuple():
            return f"{name} pending={len(e.pending)} done={len(e.done)}"
    raise TypeError(f"not a control stack entry: {e!r}")


def _dump_state(step_no: int, state) -> None:
    print(f"state {step_no}:")
    print(f"  focus: {_focus_summary(state)}")
    cstack, astack = _stacks(state)
    for e in reversed(cstack):
        print(f"  cstack: {_entry_summary(e)}")
    if astack is not None:
        print(f"  astack: {len(astack)} frame(s)")


def _cmd_run(args) -> int:
    t = _read_closed(args.file)
    fuel = _fuel(args.fuel, DEFAULT_FUEL)
    m = MACHINES[args.machine]
    state = m.init(m.translate(t))
    if args.dump_states:
        _dump_state(0, state)
    shown = 0

    def show(state):
        # run_loop steps once more past the fuel to tell a stop from a cut
        nonlocal shown
        r = m.step(state)
        if isinstance(r, Transition) and shown < fuel:
            shown += 1
            if args.dump_states:
                _dump_state(shown, r.state)
            else:
                label = PRINCIPAL[r.name].value if r.name in PRINCIPAL else "-"
                cstack, astack = _stacks(r.state)
                summary = _focus_summary(r.state)
                print(f"{shown}\t{r.name}\t{label}\t{summary}\t{len(cstack)}\t{len(astack or ())}")
        return r

    rec = run_loop(show if args.dump_states or args.trace else m.step, m.measure, state, fuel)
    if rec.final == "fuel":
        print(f"fuel exhausted after {rec.steps} transitions")
        return 1
    if rec.final == "clash":
        print(f"clash: {rec.clash.value}")
        return 1
    print(print_source(m.read_out(m.readback(rec.final_state))))
    return 0


def _cmd_convert(args) -> int:
    if args.to == "int":
        print(print_int(wrap(_read_term(args.file))))
    else:
        print(print_target(closure_convert(_read_closed(args.file))))
    return 0


def _cmd_bisim(args) -> int:
    fuel = _fuel(args.fuel, DEFAULT_BISIM_FUEL)
    if args.count < 0:
        raise _Usage("count must be a non-negative integer")
    terms = []
    if args.files:
        for path in args.files:
            # main names args.file when the input is nested too deeply
            args.file = path
            terms.append(_read_closed(path))
    else:
        terms = gen_corpus(GenConfig(seed=args.seed), args.count)
    bad = 0
    for k, t in enumerate(terms):
        if args.files:
            args.file = args.files[k]
        rep = bisim_check(t, fuel=fuel)
        print(rep.summary())
        if not rep.ok:
            bad += 1
            for f in rep.failures:
                print(f"  {f}")
    print(f"{len(terms) - bad}/{len(terms)} agreed")
    return 0 if bad == 0 else 1


def _cmd_bench(args) -> int:
    fuel = _fuel(args.fuel, DEFAULT_FUEL)
    if args.n_max < 0:
        raise _Usage("n-max must be a non-negative integer")
    rows = []
    for n in range(1, args.n_max + 1):
        # main names args.file when the instance is nested too deeply
        args.file = f"{args.family} n={n}"
        rows += bench(args.family, (n,), fuel=fuel)
    if args.machine != "all":
        rows = [r for r in rows if r.machine == args.machine]
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as f:
                write_bench_csv(rows, f)
        except OSError as e:
            raise _Usage(f"cannot write {args.csv}: {e.strerror or e}")
    else:
        write_bench_csv(rows, sys.stdout)
    return 0


def _cmd_metrics(args) -> int:
    t = _read_term(args.file)
    m = metrics(t)
    free = free_vars(t)
    closed = "yes" if not free else "no"
    line = f"size={m.size} width={m.width} height={m.height} closed={closed}"
    if free:
        line += " free=" + ",".join(v.name for v in free)
    print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tamc",
        description="Closure-conversion workbench: run, convert, and cross-check "
        "three lambda calculi and their tupled abstract machines.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run one machine on a .lam file")
    p.add_argument("file")
    p.add_argument("--machine", choices=tuple(MACHINES), default="source")
    p.add_argument("--trace", action="store_true", help="print one line per transition")
    p.add_argument("--dump-states", action="store_true", help="print full states instead")
    p.add_argument("--fuel", type=int, default=None)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("convert", help="print the intermediate or target form")
    p.add_argument("file")
    p.add_argument("--to", choices=("int", "target"), required=True)
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("bisim", help="differential check: six executions per term")
    p.add_argument("files", nargs="*", help=".lam files; omit to generate terms")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--fuel", type=int, default=None)
    p.set_defaults(fn=_cmd_bisim)

    p = sub.add_parser("bench", help="instrumented counters as CSV")
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--machine", choices=(*MACHINES, "all"), default="all")
    p.add_argument("--csv", default=None, help="write to this file instead of stdout")
    p.add_argument("--fuel", type=int, default=None)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("metrics", help="size, width, height of one term")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_metrics)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 2
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except _Usage as e:
        print(f"tamc: {e}", file=sys.stderr)
        return 2
    except ParseError as e:
        print(f"{args.file}:{e}", file=sys.stderr)
        return 2
    except OutOfFuelError as e:
        print(f"tamc: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout has gone (e.g. `| head`). Point stdout at
        # devnull so that flushing it at exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except RecursionError:
        # The parser and the terms' == and hash recurse: deep input exhausts the stack.
        where = f"{args.file}: " if getattr(args, "file", None) else ""
        print(f"tamc: {where}input nested too deeply", file=sys.stderr)
        return 2
    except MachineInvariantError as e:
        print(f"tamc: internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
