import math

import pytest

from swhile.parser import ParseError, parse_bool_expr, parse_program, tokenize
from swhile.syntax import (
    Assign,
    BoolLit,
    Call,
    DiffBlock,
    If,
    Leq,
    Lit,
    Sample,
    Seq,
    Var,
    While,
)


def test_parse_loop_with_wait_sugar():
    program, table = parse_program("x := 0 ; while tt { x++ ; wait 1 }")
    assert table.names == ("x",)
    x = Var(0, "x")
    expected = Seq(
        Assign(x, Lit(0.0)),
        While(BoolLit(True), Seq(Assign(x, Call("+", (x, Lit(1.0)))), DiffBlock((Lit(0.0),), Lit(1.0)))),
    )
    assert program == expected


def test_parse_diff_block_fills_unlisted_derivatives():
    program, table = parse_program("p' = v, v' = -9.8 for d")
    assert table.names == ("p", "v", "d")
    assert program == DiffBlock((Var(1, "v"), Lit(-9.8), Lit(0.0)), Var(2, "d"))


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("x := (")
    assert exc.value.line == 1
    assert exc.value.col in (6, 7)  # at, or just past, the dangling "("


def test_arity_and_unknown_function_errors():
    with pytest.raises(ParseError):
        parse_program("x := ln(1, 2)")
    with pytest.raises(ParseError):
        parse_program("x := frob(1)")


def test_read_only_variables_join_the_table():
    # n is only ever read; it is still declared (and defaults to 0 at run
    # time), mirroring the fixed-variable-set reading of programs
    program, table = parse_program("x := n + 1")
    assert table.names == ("x", "n")


def test_comments_and_trailing_separator():
    program, table = parse_program("// leading note\nx := 1 ; // done\n")
    assert program == Assign(Var(0, "x"), Lit(1.0))
    assert table.names == ("x",)


@pytest.mark.parametrize("source, at", [
    ("x := 1 // y := 2 @\n@", (2, 1)),  # no token is read from a comment
    ("//\n  @", (2, 3)),
    ("x := 1" + " \t" * 50000 + "\n  @", (2, 3)),  # one long blank run, skipped once
])
def test_unexpected_character_after_blanks_and_comments(source, at):
    with pytest.raises(ParseError) as info:
        parse_program(source)
    assert (info.value.line, info.value.col) == at


def test_tokens_end_at_the_end_of_the_source():
    for source in ("x := 1 // c\n// d\n  ", "x := 1\t\r\n", "x := 1 //"):
        tokens = tokenize(source)
        assert [t.kind for t in tokens] == ["ident", ":=", "number", "eof"]
        assert [t.pos for t in tokens] == [0, 2, 5, len(source)]


def test_seq_is_right_associated():
    program, _ = parse_program("x := 1 ; x := 2 ; x := 3")
    assert isinstance(program, Seq)
    assert isinstance(program.first, Assign)
    assert isinstance(program.rest, Seq)
    assert isinstance(program.rest.rest, Assign)


def test_unif_ab_desugars_to_affine_rescale():
    program, table = parse_program("x := unif(2, 4)")
    assert table.names == ("x",)
    x = Var(0, "x")
    rescale = Call("+", (Call("*", (Call("-", (Lit(4.0), Lit(2.0))), x)), Lit(2.0)))
    assert program == Seq(Sample(x), Assign(x, rescale))


def test_unif_01_is_core_sampling():
    program, _ = parse_program("x := unif(0, 1)")
    assert program == Sample(Var(0, "x"))


def test_unif_literal_bounds_checked():
    with pytest.raises(ParseError):
        parse_program("x := unif(4, 2)")


def test_exp_desugars_to_log_transform():
    program, table = parse_program("x := exp(2)")
    x = Var(0, "x")
    transform = Call("/", (Call("neg", (Call("ln", (x,)),)), Lit(2.0)))
    assert program == Seq(Sample(x), Assign(x, transform))


def test_exp_in_larger_rhs_reuses_target_as_scratch():
    program, table = parse_program("x := exp(2) + sqrt(3)")
    assert table.names == ("x",)
    x = Var(0, "x")
    stmts = []
    node = program
    while isinstance(node, Seq):
        stmts.append(node.first)
        node = node.rest
    stmts.append(node)
    assert stmts[0] == Sample(x)
    assert stmts[2] == Assign(x, Call("+", (x, Call("sqrt", (Lit(3.0),)))))


def test_exp_is_primitive_outside_assignment_rhs():
    program, _ = parse_program("x := 1 ; wait exp(x)")
    block = program.rest
    assert block.duration == Call("exp", (Var(0, "x"),))


def test_normal_desugars_via_box_muller_helpers():
    program, table = parse_program("x := normal(0, 1)")
    # helper draws precede the target assignment, so they occur first
    assert table.names == ("x1", "x2", "x")
    x1, x2, x = (Var(i, n) for i, n in enumerate(table.names))
    stmts = []
    node = program
    while isinstance(node, Seq):
        stmts.append(node.first)
        node = node.rest
    stmts.append(node)
    assert stmts[0] == Sample(x1)
    assert stmts[1] == Sample(x2)
    box_muller = Call(
        "*",
        (
            Call("sqrt", (Call("*", (Lit(-2.0), Call("ln", (x1,)))),)),
            Call("cos", (Call("*", (Call("*", (Lit(2.0), Lit(math.pi))), x2)),)),
        ),
    )
    assert stmts[2] == Assign(x, box_muller)
    assert len(stmts) == 3  # no mean/scale wrapper for normal(0, 1)


def test_normal_mean_scale_wrapper():
    program, table = parse_program("m := 3 ; x := normal(m, 2)")
    stmts = []
    node = program
    while isinstance(node, Seq):
        stmts.append(node.first)
        node = node.rest
    stmts.append(node)
    x = Var(table.index("x"), "x")
    m = Var(table.index("m"), "m")
    assert stmts[-1] == Assign(x, Call("+", (m, Call("*", (Lit(2.0), x)))))


def test_normal_helper_names_avoid_collisions():
    _, table = parse_program("x1 := 0 ; x := normal(0, 1)")
    assert table.names == ("x1", "x1_2", "x2", "x")


@pytest.mark.parametrize(
    "source, names",
    [
        # the draw comes first, then the rescale reads b before a
        ("x := unif(a, b)", ("x", "b", "a")),
        # the outer guard is allocated before the branches are desugared
        (
            "x := 0 ; bernoulli(1/2, bernoulli(r, x++, y := 1), x--)",
            ("x", "x_f", "x_f_2", "r", "y"),
        ),
        (
            "if z <= 0 then bernoulli(p, x++, x--) else bernoulli(q, y++, y--)",
            ("z", "x_f", "p", "x", "x_f_2", "q", "y"),
        ),
        # helper names avoid names the program reads, even later in the source
        ("y := x_f ; bernoulli(1/2, x := 1, x := 2)", ("y", "x_f", "x_f_2", "x")),
        ("bernoulli(1/2, x := 1, x := 2) ; y := x_f", ("x_f_2", "x", "y", "x_f")),
        ("y := x1 ; x := normal(0, 1)", ("y", "x1", "x1_2", "x2", "x")),
        ("x := unif(0,1) + normal(x, 1)", ("x_s", "x1", "x2", "x_s_2", "x")),
    ],
)
def test_variable_table_is_first_occurrence_in_desugared_program(source, names):
    _, table = parse_program(source)
    assert table.names == names


def test_unif_bound_error_is_reported_before_a_later_syntax_error():
    # desugaring happens as each statement is parsed, so the earlier error wins
    with pytest.raises(ParseError) as exc:
        parse_program("x := unif(4, 2) ; x := (")
    assert (exc.value.line, exc.value.col) == (1, 6)
    assert exc.value.message == "unif(a,b) needs a <= b"


@pytest.mark.parametrize("source, col", [("x := 1 y := 2", 8), ("x := 1 }", 8), ("x := 1 ; }", 10)])
def test_trailing_input_is_rejected(source, col):
    # a missing ';' used to end the program silently at the first statement
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert exc.value.message.startswith("unexpected trailing input")


def test_bernoulli_desugars_to_guarded_branch():
    program, table = parse_program("x := 0 ; bernoulli(1/2, x++, x--)")
    assert table.names == ("x", "x_f")
    x, xf = Var(0, "x"), Var(1, "x_f")
    branch = program.rest
    assert branch == Seq(
        Sample(xf),
        If(
            Leq(xf, Call("/", (Lit(1.0), Lit(2.0)))),
            Assign(x, Call("+", (x, Lit(1.0)))),
            Assign(x, Call("-", (x, Lit(1.0)))),
        ),
    )


def test_bernoulli_requires_braced_diff_blocks():
    with pytest.raises(ParseError):
        parse_program("bernoulli(1/2, x' = 1 for 1, x := 0)")
    program, _ = parse_program("bernoulli(1/2, { x' = 1 for 1 }, x := 0)")
    assert isinstance(program.rest.then_branch, DiffBlock)


def test_two_samplers_in_one_rhs_hoist_left_to_right():
    program, table = parse_program("x := unif(0,1) + unif(0,1)")
    assert table.names == ("x_s", "x_s_2", "x")
    stmts = []
    node = program
    while isinstance(node, Seq):
        stmts.append(node.first)
        node = node.rest
    stmts.append(node)
    assert stmts[0] == Sample(Var(0, "x_s"))
    assert stmts[1] == Sample(Var(1, "x_s_2"))
    assert stmts[2] == Assign(
        Var(2, "x"), Call("+", (Var(0, "x_s"), Var(1, "x_s_2")))
    )


def test_samplers_rejected_outside_assignment():
    with pytest.raises(ParseError):
        parse_program("wait unif(0, 1)")
    with pytest.raises(ParseError):
        parse_program("x := 0 ; if unif(0,1) <= 1 then x := 1 else x := 2")


def test_nested_samplers_rejected():
    with pytest.raises(ParseError):
        parse_program("x := unif(0, unif(0, 1))")


def test_and_binds_tighter_than_or():
    _, table = parse_program("x := 1")
    cond = parse_bool_expr("tt || ff && ff", table)
    # parsed as tt || (ff && ff)
    from swhile.syntax import And, BoolLit, Or

    assert cond == Or(BoolLit(True), And(BoolLit(False), BoolLit(False)))


def test_parenthesized_comparisons_and_booleans():
    _, table = parse_program("x := 1 ; y := 2")
    cond = parse_bool_expr("(x + 1) * 2 <= 3 && (x <= y || tt)", table)
    from swhile.syntax import And, Or

    assert isinstance(cond, And)
    assert isinstance(cond.rhs, Or)


def test_duplicate_derivative_rejected():
    with pytest.raises(ParseError):
        parse_program("x' = 1, x' = 2 for 1")


def test_vartable_order_is_first_occurrence():
    _, table = parse_program("b := 1 ; a := b ; c' = a for d")
    assert table.names == ("b", "a", "c", "d")


def test_no_sugar_survives_desugaring():
    from swhile.syntax import And, BoolLit, Call, Lit, Or, Sample, Var, While

    source = """
    x := unif(2, 4) ;
    y := normal(0, 1) ;
    z := exp(3) + sqrt(2) ;
    bernoulli(1/2, x++, { wait 1 ; z-- }) ;
    while tt { wait z }
    """
    program, table = parse_program(source)
    core_nodes = (Assign, Sample, DiffBlock, Seq, If, While)
    core_exprs = (Lit, Var, Call)

    def check_expr(e):
        assert isinstance(e, core_exprs)
        if isinstance(e, Call):
            for a in e.args:
                check_expr(a)

    def check_bool(b):
        assert isinstance(b, (BoolLit, Leq, And, Or))
        if isinstance(b, Leq):
            check_expr(b.lhs)
            check_expr(b.rhs)
        elif isinstance(b, (And, Or)):
            check_bool(b.lhs)
            check_bool(b.rhs)

    def walk(p):
        assert isinstance(p, core_nodes)
        if isinstance(p, Assign):
            check_expr(p.expr)
        elif isinstance(p, DiffBlock):
            for d in p.derivs:
                check_expr(d)
            check_expr(p.duration)
        elif isinstance(p, Seq):
            walk(p.first)
            walk(p.rest)
        elif isinstance(p, If):
            check_bool(p.cond)
            walk(p.then_branch)
            walk(p.else_branch)
        elif isinstance(p, While):
            check_bool(p.cond)
            walk(p.body)

    walk(program)
