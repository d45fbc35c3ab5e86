"""Parser and printer tests.

The concrete grammar:

    t ::= ident | "fun" "(" idents ")" "->" t | t t | "pi" INT t
        | "<" ts ">" | "(" t ")"

Application is left associative and binds tighter than an abstraction
body (which extends as far right as possible); "pi" binds tighter than
application, so "pi 1 x y" projects x and then applies.
"""

import pytest

from tamc.syntax import ParseError, parse, print_int, print_source, print_target
from tamc.terms import (
    Abs,
    App,
    Closure,
    PVar,
    PVarBag,
    Proj,
    TClosure,
    Tuple,
    ValBag,
    Var,
    VarBag,
)

x = Var("x")
y = Var("y")
z = Var("z")


def test_parse_variable():
    assert parse("x") == x


def test_parse_identity():
    assert parse("fun(x) -> x") == Abs((x,), x)


def test_parse_zero_params_and_empty_tuple():
    assert parse("fun() -> <>") == Abs((), Tuple(()))


def test_application_left_associative():
    assert parse("x y z") == App(App(x, y), z)


def test_projection_binds_tighter_than_application():
    assert parse("pi 1 x y") == App(Proj(1, x), y)
    assert parse("x pi 1 y") == App(x, Proj(1, y))
    assert parse("pi 1 pi 2 x") == Proj(1, Proj(2, x))
    assert parse("pi 1 (x y)") == Proj(1, App(x, y))


def test_abstraction_body_extends_right():
    assert parse("fun(x) -> x y") == Abs((x,), App(x, y))
    assert parse("fun(x) -> fun(y) -> x") == Abs((x,), Abs((y,), x))


def test_parse_spec_shaped_application():
    t = parse("(fun(x) -> x) <fun(y) -> y y>")
    assert t == App(Abs((x,), x), Tuple((Abs((y,), App(y, y)),)))


def test_parse_tuples_and_params():
    t = parse("fun(x, y) -> pi 2 <x, y>")
    assert t == Abs((x, y), Proj(2, Tuple((x, y))))


def test_comments_and_whitespace():
    src = """
    # the identity, applied to itself wrapped in a tuple
    (fun(x) -> x)   # function part
      <fun(y) -> y> # argument part
    """
    t = parse(src)
    assert t == App(Abs((x,), x), Tuple((Abs((y,), y),)))


def test_identifiers_may_contain_keyword_prefixes():
    assert parse("pifoo funx") == App(Var("pifoo"), Var("funx"))
    assert parse("x_1") == Var("x_1")


@pytest.mark.parametrize(
    "src",
    [
        "",
        ")",
        "fun(x x) -> x",
        "pi x",
        "fun(x) ->",
        "<x,>",
        "<x",
        "fun(1) -> x",
        "fun",
        "x fun(y) -> y",
    ],
)
def test_parse_errors(src):
    with pytest.raises(ParseError):
        parse(src)


def test_duplicate_params_reported_with_position():
    with pytest.raises(ParseError) as exc:
        parse("fun(x, x) -> x")
    assert "1:" in str(exc.value)


# A column counts characters from the line's start, so a tab or a CR
# before the error is one column and "\r\n" ends its line at the "\n".
@pytest.mark.parametrize(
    "src,line,col,message",
    [
        ("fun(x) ->\n  @", 2, 3, "unexpected character '@'"),
        ("fun(x) ->\r\n  x\r\n\t$", 3, 2, "unexpected character '$'"),
        ("fun(x)\n  # no arrow yet\n  x", 3, 3, "expected 'arrow', found 'x'"),
        ("# a comment line\n\tpi x", 2, 5, "expected 'int', found 'x'"),
        ("fun(x\n", 2, 1, "expected ')', found 'end of input'"),
        ("<x,\n\t>", 2, 2, "expected a term, found '>'"),
        ("fun(x) -> x <\n", 2, 1, "expected a term, found 'end of input'"),
        ("fun(x) -> x\r\n)", 2, 1, "trailing input starting at ')'"),
        ("(fun(a) -> a)\n  <fun(x,\n x) -> x>", 2, 4, "duplicate parameters: ['x', 'x']"),
    ],
    ids=[
        "unexpected-character",
        "unexpected-character-crlf-tab",
        "expected-kind-after-comment",
        "expected-kind-comment-line-tab",
        "expected-kind-at-end-after-newline",
        "expected-a-term-tab",
        "expected-a-term-at-end-after-newline",
        "trailing-input-crlf",
        "duplicate-parameters",
    ],
)
def test_error_position_on_later_line(src, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert f"{line}:{col}" in str(exc.value)
    assert str(exc.value) == f"{line}:{col}: {message}"
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize(
    "t",
    [
        x,
        Tuple(()),
        Abs((x,), x),
        Abs((), Tuple(())),
        App(App(x, y), z),
        App(x, App(y, z)),
        App(Proj(1, x), y),
        App(x, Proj(1, y)),
        Proj(1, Proj(2, x)),
        Proj(1, App(x, y)),
        Proj(1, Abs((x,), x)),
        App(Abs((x,), x), Tuple((Abs((y,), App(y, y)),))),
        Abs((x, y), Proj(2, Tuple((x, y)))),
        Tuple((Abs((x,), x), App(x, y), Proj(3, x))),
        Abs((x,), App(x, y)),
        App(App(x, Abs((y,), y)), Tuple((x,))),
        Proj(2, Tuple((x, y))),
        App(Proj(1, App(x, y)), Abs((z,), z)),
    ],
)
def test_print_parse_round_trip(t):
    assert parse(print_source(t)) == t


def test_print_source_shapes():
    assert print_source(Abs((x,), x)) == "fun(x) -> x"
    assert print_source(App(Abs((x,), x), Tuple((y,)))) == "(fun(x) -> x) <y>"
    assert print_source(Proj(1, App(x, y))) == "pi 1 (x y)"
    assert print_source(Tuple(())) == "<>"


def test_print_int_closure():
    c = Closure((x,), (y,), App(y, x), VarBag((x,)))
    assert print_int(c) == "[(x); (y). y x]<x>"
    c2 = Closure((), (x,), x, ValBag(()))
    assert print_int(c2) == "[(); (x). x]<>"


def test_print_target_closure():
    c = TClosure(0, 1, PVar("s", 1), ValBag(()))
    assert print_target(c) == "[^{0,1} pi1 s]<>"
    c2 = TClosure(1, 1, App(PVar("s", 1), PVar("l", 1)), PVarBag((PVar("s", 1),)))
    assert print_target(c2) == "[^{1,1} (pi1 s) (pi1 l)]<pi1 s>"
