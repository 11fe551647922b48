import math
import re

import pytest
from hypothesis import given, strategies as st

from swhile.parser import parse_bool_expr, parse_program
from swhile.store import Undefined, eval_bool, eval_expr, make_store, update
from swhile.syntax import Call, Leq, Lit, Var, VarTable


def test_eval_simple_addition():
    e = Call("+", (Var(0, "x"), Lit(1.0)))
    assert eval_expr(e, (2.0,)) == 3.0


def test_division_by_zero_is_undefined():
    e = Call("/", (Lit(1.0), Lit(0.0)))
    with pytest.raises(Undefined) as exc:
        eval_expr(e, ())
    assert "zero" in exc.value.reason


def test_box_muller_shape_at_known_point():
    # ln 1 = 0 forces the whole product to 0 (hand check)
    table = VarTable(("x1", "x2"))
    x1, x2 = Var(0, "x1"), Var(1, "x2")
    e = Call(
        "*",
        (
            Call("sqrt", (Call("*", (Lit(-2.0), Call("ln", (x1,)))),)),
            Call("cos", (Call("*", (Call("*", (Lit(2.0), Lit(math.pi))), x2)),)),
        ),
    )
    assert eval_expr(e, (1.0, 0.25)) == 0.0


def test_domain_errors():
    with pytest.raises(Undefined):
        eval_expr(Call("ln", (Lit(0.0),)), ())
    with pytest.raises(Undefined):
        eval_expr(Call("ln", (Lit(-1.0),)), ())
    with pytest.raises(Undefined):
        eval_expr(Call("sqrt", (Lit(-2.0),)), ())


def test_overflow_is_undefined():
    with pytest.raises(Undefined):
        eval_expr(Call("exp", (Lit(1e9),)), ())
    with pytest.raises(Undefined):
        eval_expr(Call("*", (Lit(1e308), Lit(1e308))), ())


def test_leq_includes_boundary():
    assert eval_bool(Leq(Var(0, "x"), Lit(3.0)), (3.0,)) is True
    assert eval_bool(Leq(Var(0, "x"), Lit(3.0)), (3.0000001,)) is False


def test_boolean_operators_are_strict():
    _, table = parse_program("x := 1")
    poisoned_left = parse_bool_expr("(1/0 <= 1) && ff", table)
    with pytest.raises(Undefined):
        eval_bool(poisoned_left, (1.0,))
    # short-circuiting would let these slip through
    poisoned_right = parse_bool_expr("ff && (1/0 <= 1)", table)
    with pytest.raises(Undefined):
        eval_bool(poisoned_right, (1.0,))
    poisoned_or = parse_bool_expr("tt || (1/0 <= 1)", table)
    with pytest.raises(Undefined):
        eval_bool(poisoned_or, (1.0,))


def test_boolean_literals():
    _, table = parse_program("x := 1")
    assert eval_bool(parse_bool_expr("tt || ff", table), (0.0,)) is True
    assert eval_bool(parse_bool_expr("tt && ff", table), (0.0,)) is False


def test_update_changes_exactly_one_slot():
    store = (0.0, 5.0)
    new = update(store, 0, 0.7)
    assert new == (0.7, 5.0)
    assert store == (0.0, 5.0)  # original untouched


@given(
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6),
    st.integers(0, 2),
)
def test_update_last_write_wins(a, b, index):
    store = (1.0, 2.0, 3.0)
    assert update(update(store, index, a), index, b) == update(store, index, b)


@given(st.floats(-100, 100), st.floats(-100, 100))
def test_eval_is_deterministic(x, y):
    e = Call("+", (Call("*", (Var(0, "x"), Var(1, "y"))), Lit(1.0)))
    store = (x, y)
    try:
        first = eval_expr(e, store)
    except Undefined:
        with pytest.raises(Undefined):
            eval_expr(e, store)
        return
    assert eval_expr(e, store) == first


def test_poisoned_subterm_poisons_everything():
    # strictness: undefined leaves infect any enclosing expression
    bad = Call("/", (Lit(1.0), Lit(0.0)))
    for wrapper in (
        Call("+", (bad, Lit(1.0))),
        Call("+", (Lit(1.0), bad)),
        Call("*", (Lit(0.0), bad)),
        Call("neg", (bad,)),
        Call("sin", (bad,)),
    ):
        with pytest.raises(Undefined):
            eval_expr(wrapper, ())


def test_make_store_overrides_and_validation():
    table = VarTable(("p", "v"))
    assert make_store(table) == (0.0, 0.0)
    assert make_store(table, p=1.5) == (1.5, 0.0)
    with pytest.raises(ValueError):
        make_store(table, p=float("inf"))


def test_make_store_takes_a_variable_named_table():
    # the table parameter used to collide with the override for "table"
    assert make_store(VarTable(["table"]), table=2.0) == (2.0,)


def test_make_store_names_an_unknown_variable():
    table = VarTable(("x",))
    with pytest.raises(ValueError, match=re.escape("unknown variable 'q'; have ['x']")):
        make_store(table, q=1)
