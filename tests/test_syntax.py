import random

import pytest

from swhile.parser import parse_program
from swhile.syntax import (
    TT,
    Assign,
    Call,
    DiffBlock,
    Lit,
    Sample,
    Seq,
    Var,
    VarTable,
    While,
    pretty_print,
    seq_normal,
    wait_block,
)

from genprog import gen_declared_program


def test_call_arity_checked():
    with pytest.raises(ValueError):
        Call("ln", (Lit(1.0), Lit(2.0)))
    with pytest.raises(ValueError):
        Call("frobnicate", (Lit(1.0),))


def test_vartable_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        VarTable(("x", "x"))
    with pytest.raises(ValueError):
        VarTable(())
    table = VarTable(("p", "v"))
    assert table.index("v") == 1
    assert "p" in table and "q" not in table


def test_wait_block_is_all_zero_derivatives():
    block = wait_block(Lit(1.0), 3)
    assert block == DiffBlock((Lit(0.0), Lit(0.0), Lit(0.0)), Lit(1.0))
    assert wait_block(Lit(0.0), 1).duration == Lit(0.0)
    dur = Call("+", (Var(0, "x"), Lit(1.0)))
    assert wait_block(dur, 1).duration == dur


def test_seq_normal_right_associates():
    a = Assign(Var(0, "x"), Lit(1.0))
    b = Sample(Var(0, "x"))
    c = wait_block(Lit(1.0), 1)
    left = Seq(Seq(a, b), c)
    assert seq_normal(left) == Seq(a, Seq(b, c))
    # nested bodies are normalized too
    loop = While(TT, Seq(Seq(a, b), c))
    assert seq_normal(loop).body == Seq(a, Seq(b, c))


def test_pretty_roundtrip_fixed_examples():
    source = "p := 10 ; v := 0 ;\nwhile tt do {\n  d := unif(0, 1) ;\n  p' = v, v' = -9.8 for d ;\n  v := -v\n}"
    program, table = parse_program(source)
    reparsed, table2 = parse_program(pretty_print(program, table))
    assert reparsed == program
    assert table2 == table


def test_pretty_roundtrip_single_assignment():
    program, table = parse_program("x := 1 + 2 * 3")
    text = pretty_print(program, table)
    assert parse_program(text) == (program, table)


def test_pretty_roundtrip_generated_programs():
    rng = random.Random(20240817)
    for _ in range(100):
        program, table = gen_declared_program(rng)
        text = pretty_print(program, table)
        reparsed, table2 = parse_program(text)
        assert table2 == table, text
        assert reparsed == seq_normal(program), text


def test_pretty_parenthesizes_by_precedence():
    program, table = parse_program("x := (1 + 2) * 3 ; x := 1 + 2 * 3")
    text = pretty_print(program, table, inline=True)
    assert "(1.0 + 2.0) * 3.0" in text
    assert "1.0 + 2.0 * 3.0" in text


def test_pretty_handles_nested_negation():
    program, table = parse_program("x := 1 ; x := -(-x)")
    assert parse_program(pretty_print(program, table)) == (program, table)


def _right_spine(p):
    """The statements of a right-nested Seq chain, walked without recursion
    (the dataclass == recurses once per level)."""
    out = []
    while isinstance(p, Seq):
        assert not isinstance(p.first, Seq)
        out.append(p.first)
        p = p.rest
    return out + [p]


def test_printers_flatten_a_sequence_deeper_than_the_recursion_limit():
    # ((x := 0 ; x := x + 1) ; x := x + 1) ; ... built programmatically: the
    # parser nests statement lists to the right
    x = Var(0, "x")
    bump = Assign(x, Call("+", (x, Lit(1.0))))
    program = Assign(x, Lit(0.0))
    for _ in range(1200):
        program = Seq(program, bump)
    table = VarTable(("x",))
    normal = _right_spine(seq_normal(program))
    assert normal == [Assign(x, Lit(0.0))] + [bump] * 1200
    for inline in (False, True):
        reparsed, table2 = parse_program(pretty_print(program, table, inline=inline))
        assert table2 == table
        assert _right_spine(reparsed) == normal
