import random
from dataclasses import dataclass

import pytest

from swhile.parser import parse_file, parse_program
from swhile.syntax import (
    Assign,
    BoolLit,
    Call,
    DiffBlock,
    If,
    Lit,
    Sample,
    Seq,
    Var,
    VarTable,
    While,
    pretty_print,
    seq_normal,
)

from genprog import gen_declared_program, gen_program, gen_table
from progpath import program_files


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
    program, _ = parse_program("x := 1 ; y := 2 ; z := 3 ; wait 1")
    assert program.rest.rest.rest == DiffBlock((Lit(0.0), Lit(0.0), Lit(0.0)), Lit(1.0))
    assert parse_program("x := 1 ; wait 0")[0].rest == DiffBlock((Lit(0.0),), Lit(0.0))
    program, _ = parse_program("x := 1 ; wait x + 1")
    assert program.rest.duration == Call("+", (Var(0, "x"), Lit(1.0)))


def test_seq_normal_right_associates():
    a = Assign(Var(0, "x"), Lit(1.0))
    b = Sample(Var(0, "x"))
    c = DiffBlock((Lit(0.0),), Lit(1.0))
    left = Seq(Seq(a, b), c)
    assert seq_normal(left) == Seq(a, Seq(b, c))
    # nested bodies are normalized too
    loop = While(BoolLit(True), Seq(Seq(a, b), c))
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


@dataclass(frozen=True)
class _PlainSeq:
    """Seq as a plain frozen dataclass: its generated `==`, `hash` and
    `repr`, which recurse once per level."""

    first: object
    rest: object


def _plain(p):
    """`p` with every Seq node, under If and While too, a _PlainSeq."""
    if type(p) is Seq:
        return _PlainSeq(_plain(p.first), _plain(p.rest))
    if type(p) is If:
        return If(p.cond, _plain(p.then_branch), _plain(p.else_branch))
    if type(p) is While:
        return While(p.cond, _plain(p.body))
    return p


def test_seq_methods_return_what_the_dataclass_methods_return():
    rng = random.Random(2024)
    programs = [parse_file(path)[0] for path in program_files()]
    programs += [gen_program(rng, gen_table(rng), depth=4) for _ in range(200)]
    for p in programs:
        plain = _plain(p)
        assert repr(p) == repr(plain).replace("_PlainSeq(", "Seq(")
    for p, q in zip(programs, programs[1:] + programs[:1]):
        assert (p == q) == (_plain(p) == _plain(q))
        copy = _plain(p)  # rebuilt with fresh Seq nodes, equal to p
        assert _seq(copy) == p and p == _seq(copy) and hash(_seq(copy)) == hash(p)


def _seq(p):
    """The inverse of `_plain`."""
    if type(p) is _PlainSeq:
        return Seq(_seq(p.first), _seq(p.rest))
    if type(p) is If:
        return If(p.cond, _seq(p.then_branch), _seq(p.else_branch))
    if type(p) is While:
        return While(p.cond, _seq(p.body))
    return p


def _chain(statements, left: bool):
    """The statements as one Seq chain nested to the left or to the right."""
    if left:
        program = statements[0]
        for s in statements[1:]:
            program = Seq(program, s)
        return program
    program = statements[-1]
    for s in reversed(statements[:-1]):
        program = Seq(s, program)
    return program


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_seq_compares_hashes_and_prints_far_past_the_recursion_limit(left):
    # ==, hash and repr each raised RecursionError at 1 200 levels
    x = Var(0, "x")
    statements = [Assign(x, Lit(float(i))) for i in range(10_001)]
    program, same = _chain(statements, left), _chain(list(statements), left)
    assert program is not same and program == same and not program != same
    assert hash(program) == hash(same)
    last = len(statements) - 1 if left else 0  # the deepest statement
    other = statements[:last] + [Assign(x, Lit(-1.0))] + statements[last + 1:]
    assert program != _chain(other, left) and hash(program) != hash(_chain(other, left))
    assert program != _chain(statements, not left)
    text = repr(program)
    assert text.count("Seq(first=") == 10_000
    assert text.count("Assign(var=Var(index=0, name='x'), expr=Lit(value=") == 10_001
    if left:
        assert text.startswith("Seq(first=" * 10_000 + "Assign(")
    else:
        assert text.startswith("Seq(first=Assign(") and text.endswith(")" * 10_000)
