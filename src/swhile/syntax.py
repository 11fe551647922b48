"""AST for the stochastic hybrid while-language.

Expressions, boolean conditions, atomic statements, programs, and the
variable table.  All nodes are immutable; structural equality is plain
dataclass equality.  Variables carry both their name (for printing) and
their index into the program's variable table (for evaluation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

# Fixed stock of partial primitive functions, name -> arity.  "neg" is the
# unary minus used by the printer/parser; "pi" is folded to a literal at
# parse time and never appears as a call.
PRIMITIVES = {
    "+": 2,
    "-": 2,
    "*": 2,
    "/": 2,
    "neg": 1,
    "ln": 1,
    "sqrt": 1,
    "sin": 1,
    "cos": 1,
    "exp": 1,
}


# --- expressions -----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Lit:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True, slots=True)
class Call:
    op: str
    args: tuple

    def __post_init__(self):
        if self.op not in PRIMITIVES:
            raise ValueError(f"unknown primitive {self.op!r}")
        if len(self.args) != PRIMITIVES[self.op]:
            raise ValueError(
                f"{self.op!r} expects {PRIMITIVES[self.op]} arguments, got {len(self.args)}"
            )


Expr = Union[Lit, Var, Call]


# --- boolean conditions ----------------------------------------------------

@dataclass(frozen=True, slots=True)
class BoolLit:
    value: bool


@dataclass(frozen=True, slots=True)
class Leq:
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, slots=True)
class And:
    lhs: "BoolExpr"
    rhs: "BoolExpr"


@dataclass(frozen=True, slots=True)
class Or:
    lhs: "BoolExpr"
    rhs: "BoolExpr"


BoolExpr = Union[BoolLit, Leq, And, Or]


# --- atomic statements and programs ---------------------------------------

@dataclass(frozen=True, slots=True)
class Assign:
    var: Var
    expr: Expr


@dataclass(frozen=True, slots=True)
class Sample:
    """x := unif(0,1) -- the only sampling primitive after desugaring."""

    var: Var


@dataclass(frozen=True, slots=True)
class DiffBlock:
    """x1' = e1, ..., xn' = en for e.

    `derivs` holds one derivative expression per variable-table entry, in
    table order; variables the source omitted get derivative 0.
    """

    derivs: tuple
    duration: Expr
    # the block's flows, compiled by `ode` on its first flow by any method
    # (the exact flow, classified then, and the generated RK4 kernel, built
    # on the first RK4 flow); not part of the value
    compiled: object = field(default=None, init=False, compare=False, hash=False, repr=False)

    def __reduce__(self):
        # pickles (sent to --parallel workers) carry the value only
        return DiffBlock, (self.derivs, self.duration)


@dataclass(frozen=True, slots=True)
class Seq:
    """p ; q.

    `==` and `repr` return what the dataclass methods would -- the
    comparison and text of the tuple (first, rest) -- and `hash` is the
    hash of the statement list.  All three walk a chain of `Seq`s, nested
    to either side, over an explicit stack, so a statement list longer
    than the recursion limit compares, hashes and prints.
    """

    first: "Program"
    rest: "Program"

    def __eq__(self, other):
        if other.__class__ is not Seq:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is Seq and b.__class__ is Seq:
                stack.append((a.rest, b.rest))
                stack.append((a.first, b.first))
            elif not a == b:
                return False
        return True

    def __hash__(self):
        return hash(tuple(_stmt_list(self)))

    def __repr__(self):
        parts = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.__class__ is Seq:
                parts.append("Seq(first=")
                stack += (_CLOSE, node.rest, _REST, node.first)
            elif node is _REST:
                parts.append(", rest=")
            elif node is _CLOSE:
                parts.append(")")
            else:
                parts.append(repr(node))
        return "".join(parts)


# markers on the stack of `Seq.__repr__`: its first part is printed, or its rest
_REST, _CLOSE = object(), object()


@dataclass(frozen=True, slots=True)
class If:
    cond: BoolExpr
    then_branch: "Program"
    else_branch: "Program"


@dataclass(frozen=True, slots=True)
class While:
    cond: BoolExpr
    body: "Program"


Program = Union[Assign, Sample, DiffBlock, Seq, If, While]


class VarTable:
    """Ordered table of the program's variable names.

    The order is fixed for the program's lifetime; stores are dense vectors
    indexed by it.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if not names:
            raise ValueError("a program must declare at least one variable")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def index(self, name: str) -> int:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        return isinstance(other, VarTable) and self.names == other.names

    def __repr__(self):
        return f"VarTable({', '.join(self.names)})"


def seq_normal(p: Program) -> Program:
    """Right-associate every Seq spine (the parser's normal form)."""
    if isinstance(p, Seq):
        items = [seq_normal(q) for q in _stmt_list(p)]
        out = items[-1]
        for stmt in reversed(items[:-1]):
            out = Seq(stmt, out)
        return out
    if isinstance(p, If):
        return If(p.cond, seq_normal(p.then_branch), seq_normal(p.else_branch))
    if isinstance(p, While):
        return While(p.cond, seq_normal(p.body))
    return p


# --- pretty printing -------------------------------------------------------

_PREC_OR, _PREC_AND = 1, 2
_PREC_ADD, _PREC_MUL, _PREC_NEG = 1, 2, 3


def pretty_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, Lit):
        if e.value == math.pi:
            return "pi"
        if e.value < 0:
            s = repr(-e.value)
            return f"(-{s})" if prec > _PREC_NEG else f"-{s}"
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    op = e.op
    if op in ("+", "-"):
        s = f"{pretty_expr(e.args[0], _PREC_ADD)} {op} {pretty_expr(e.args[1], _PREC_ADD + 1)}"
        return f"({s})" if prec > _PREC_ADD else s
    if op in ("*", "/"):
        s = f"{pretty_expr(e.args[0], _PREC_MUL)} {op} {pretty_expr(e.args[1], _PREC_MUL + 1)}"
        return f"({s})" if prec > _PREC_MUL else s
    if op == "neg":
        s = f"-{pretty_expr(e.args[0], _PREC_NEG + 1)}"
        return f"({s})" if prec > _PREC_NEG else s
    return f"{op}({', '.join(pretty_expr(a) for a in e.args)})"


def pretty_bool(b: BoolExpr, prec: int = 0) -> str:
    if isinstance(b, BoolLit):
        return "tt" if b.value else "ff"
    if isinstance(b, Leq):
        return f"{pretty_expr(b.lhs)} <= {pretty_expr(b.rhs)}"
    if isinstance(b, And):
        s = f"{pretty_bool(b.lhs, _PREC_AND)} && {pretty_bool(b.rhs, _PREC_AND + 1)}"
        return f"({s})" if prec > _PREC_AND else s
    s = f"{pretty_bool(b.lhs, _PREC_OR)} || {pretty_bool(b.rhs, _PREC_OR + 1)}"
    return f"({s})" if prec > _PREC_OR else s


def _stmt_list(p: Program):
    """The statements of a Seq tree, left to right, however it is nested."""
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, Seq):
            stack.append(q.rest)
            stack.append(q.first)
        else:
            yield q


def pretty_print(p: Program, table: VarTable, indent: int = 0, inline: bool = False) -> str:
    """Source text that re-parses to an equal AST (modulo Seq normal form).

    Differential blocks print one derivative per table variable so the
    inferred table round-trips even for variables that only occur with a
    zero derivative.
    """
    pad = "" if inline else "  " * indent
    sep = " ; " if inline else " ;\n"
    parts = []
    for stmt in _stmt_list(p):
        parts.append(pad + _pretty_stmt(stmt, table, indent, inline))
    return sep.join(parts)


def _pretty_block(p: Program, table: VarTable, indent: int, inline: bool) -> str:
    if inline:
        return "{ " + pretty_print(p, table, 0, True) + " }"
    body = pretty_print(p, table, indent + 1, False)
    return "{\n" + body + "\n" + "  " * indent + "}"


def _pretty_stmt(p: Program, table: VarTable, indent: int, inline: bool) -> str:
    if isinstance(p, Assign):
        return f"{p.var.name} := {pretty_expr(p.expr)}"
    if isinstance(p, Sample):
        return f"{p.var.name} := unif(0, 1)"
    if isinstance(p, DiffBlock):
        derivs = ", ".join(
            f"{name}' = {pretty_expr(d)}" for name, d in zip(table.names, p.derivs)
        )
        return f"{derivs} for {pretty_expr(p.duration)}"
    if isinstance(p, If):
        t = _branch_text(p.then_branch, table, indent, inline)
        e = _branch_text(p.else_branch, table, indent, inline)
        return f"if {pretty_bool(p.cond)} then {t} else {e}"
    if isinstance(p, While):
        return f"while {pretty_bool(p.cond)} do {_pretty_block(p.body, table, indent, inline)}"
    raise TypeError(f"not a program node: {p!r}")


def _branch_text(p: Program, table: VarTable, indent: int, inline: bool) -> str:
    # Branches of `if` are single statements; anything compound gets braces.
    if isinstance(p, (Seq, If, While)):
        return _pretty_block(p, table, indent, inline)
    return _pretty_stmt(p, table, indent, inline)
