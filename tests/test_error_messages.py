"""The errors that the library's guards raise on bad arguments.

Each call below breaks one precondition; the test pins the exception
type and its exact message.
"""

import pytest

from tamc.analysis import (
    family_fun_explosion,
    family_quadratic_wrap,
    family_tuple_explosion,
    quadratic_driver,
)
from tamc.calculi import subst_int, subst_source
from tamc.terms import Closure, PVar, ValBag, Var
from tamc.transforms import unwrap

x, a = Var("x"), Var("a")

DISTINCT = "substitution variables must be pairwise distinct"
NONNEGATIVE = "family index must be nonnegative"
AT_LEAST_1 = "family index must be at least 1"

CASES = [
    ("subst_source-repeated-variable", lambda: subst_source(x, (x, x), (a, a)), DISTINCT),
    (
        "subst_int-unpaired-groups",
        lambda: subst_int(x, (x,), (), (), ()),
        "substitution groups must pair up exactly",
    ),
    ("subst_int-variable-in-both-groups", lambda: subst_int(x, (x,), (a,), (x,), (a,)), DISTINCT),
    (
        "unwrap-short-bag",
        lambda: unwrap(Closure((x,), (), x, ValBag(()))),
        "closure bag has 0 entries for 1 wrapped variables",
    ),
    ("family_tuple_explosion-negative", lambda: family_tuple_explosion(-1), NONNEGATIVE),
    ("family_fun_explosion-negative", lambda: family_fun_explosion(-1), NONNEGATIVE),
    ("family_quadratic_wrap-zero", lambda: family_quadratic_wrap(0), AT_LEAST_1),
    ("quadratic_driver-zero", lambda: quadratic_driver(0), AT_LEAST_1),
    ("PVar-bad-base", lambda: PVar("x", 1), "projection variable base must be 'l' or 's', got 'x'"),
]


@pytest.mark.parametrize("call,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_arguments_raise_value_error_with_exact_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
