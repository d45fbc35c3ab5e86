"""Concrete syntax: a parser for source terms and printers for all three.

Grammar:

    term  ::= "fun" "(" idents ")" "->" term | app
    app   ::= punit punit*
    punit ::= "pi" INT punit | atom
    atom  ::= ident | "<" terms ">" | "(" term ")"

Application is left associative; "pi" grabs the next unit only, so it
binds tighter than application. An abstraction body extends as far
right as possible, which means an abstraction in function or argument
position must be parenthesized. "#" starts a comment running to the
end of the line. Identifiers are letters, digits, and underscores, not
starting with a digit; "fun" and "pi" are reserved.

Intermediate and target terms have printers only, no parser: they are
produced by the translations, never written by hand.
"""

from __future__ import annotations

import re

from .terms import (
    Abs,
    App,
    Closure,
    Parts,
    PVar,
    PVarBag,
    Proj,
    SourceTerm,
    TClosure,
    Tuple,
    ValBag,
    Var,
    VarBag,
    fold,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_TOKEN = re.compile(
    r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<arrow>->)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<int>[0-9]+)
    | (?P<punct>[(),<>])
    """,
    re.VERBOSE,
)

_KEYWORDS = ("fun", "pi")


def _error(src: str, message: str, offset: int) -> ParseError:
    """The ParseError for message at offset in src, positioned by line and column."""
    return ParseError(message, src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset))


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise _error(src, f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            text = m.group()
            if kind == "punct" or kind == "ident" and text in _KEYWORDS:
                kind = text
            tokens.append((kind, text, pos))
        pos = m.end()
    tokens.append(("eof", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            self.fail(f"expected {kind!r}, found {tok[1] or 'end of input'!r}")
        return self.next()

    def fail(self, message: str):
        raise _error(self.src, message, self.peek()[2])

    def term(self) -> SourceTerm:
        if self.peek()[0] == "fun":
            tok = self.next()
            self.expect("(")
            params = []
            if self.peek()[0] == "ident":
                params.append(Var(self.next()[1]))
                while self.peek()[0] == ",":
                    self.next()
                    params.append(Var(self.expect("ident")[1]))
            self.expect(")")
            self.expect("arrow")
            body = self.term()
            try:
                return Abs(tuple(params), body)
            except ValueError as e:
                raise _error(self.src, str(e), tok[2]) from None
        return self.app()

    def app(self) -> SourceTerm:
        t = self.punit()
        while self.peek()[0] in ("ident", "pi", "<", "("):
            t = App(t, self.punit())
        return t

    def punit(self) -> SourceTerm:
        kind, text, _ = self.peek()
        if kind == "pi":
            self.next()
            idx = self.expect("int")
            return Proj(int(idx[1]), self.punit())
        if kind == "ident":
            self.next()
            return Var(text)
        if kind == "<":
            self.next()
            items = []
            if self.peek()[0] != ">":
                items.append(self.term())
                while self.peek()[0] == ",":
                    self.next()
                    items.append(self.term())
            self.expect(">")
            return Tuple(tuple(items))
        if kind == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        self.fail(f"expected a term, found {text or 'end of input'!r}")


def parse(src: str) -> SourceTerm:
    """Parse one source term; raises ParseError with line:col on failure."""
    p = _Parser(src)
    t = p.term()
    tok = p.peek()
    if tok[0] != "eof":
        p.fail(f"trailing input starting at {tok[1]!r}")
    return t


def _node(u, parts) -> str:
    """An application, projection or tuple, printed from its parts' text."""
    if type(u) is Tuple:
        return "<" + ", ".join(parts) + ">"
    # below the top an abstraction or indexed variable is parenthesized,
    # and so is an application as an argument or projection operand
    arg = f"({parts[-1]})" if type(u.arg) in (Abs, PVar, App) else parts[-1]
    if type(u) is Proj:
        return f"pi {u.index} {arg}"
    fn = f"({parts[0]})" if type(u.fn) in (Abs, PVar) else parts[0]
    return f"{fn} {arg}"


def _print(t, calculus: str, kinds: tuple) -> str:
    """Print t, a term of calculus whose leaves are all of kinds."""

    def leaf(u):
        tu = type(u)
        if tu not in kinds:
            raise TypeError(f"not {calculus} term: {u!r}")
        if tu is Var:
            return u.name
        if tu is PVar:
            return f"pi{u.index} {u.base}"
        if tu is Abs:
            ps = ", ".join(p.name for p in u.params)
            return Parts((u.body,), None, None, lambda body: f"fun({ps}) -> {body}")
        if tu is Closure:
            ws, ps = (", ".join(v.name for v in vs) for vs in (u.wrapped, u.params))
            head = f"({ws}); ({ps}). "
        else:
            head = f"^{{{u.n_wrapped},{u.n_params}}} "
        match u.bag:
            case VarBag(vs) | PVarBag(vs) | ValBag(vs):
                return Parts((*vs, u.body), None, None, lambda *rs: f"[{head}{rs[-1]}]<{', '.join(rs[:-1])}>")
        raise TypeError(f"not a bag: {u.bag!r}")

    return fold(t, leaf, _node)


def print_source(t) -> str:
    return _print(t, "a source", (Var, Abs))


def print_int(t) -> str:
    return _print(t, "an intermediate", (Var, Abs, Closure))


def print_target(t) -> str:
    return _print(t, "a target", (Var, Abs, PVar, TClosure))
