"""Stores and the partial evaluation of expressions and conditions.

A store is a dense tuple of floats indexed consistently with the program's
variable table; entries are always finite.  Evaluation is partial:
division by zero, logarithms and square roots outside their domain, and
any non-finite result raise :class:`Undefined` with a diagnostic reason.
Boolean operators are strict -- both operands are evaluated, so an
undefined subterm poisons the whole condition regardless of its position.
"""

from __future__ import annotations

import math

from .syntax import And, BoolLit, Leq, Lit, Or, Var, VarTable

Store = tuple  # tuple[float, ...]


class Undefined(Exception):
    """An expression or condition has no value at this store."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def make_store(table: VarTable, /, **overrides) -> Store:
    """All-zero store over `table`, with optional per-name overrides."""
    vec = [0.0] * len(table)
    for name, v in overrides.items():
        if name not in table:
            raise ValueError(f"unknown variable {name!r}; have {list(table.names)}")
        v = float(v)
        if not math.isfinite(v):
            raise ValueError("store entries must be finite")
        vec[table.index(name)] = v
    return tuple(vec)


def update(store: Store, index: int, value: float) -> Store:
    """σ[x ↦ v]: a new store differing from `store` only at `index`."""
    return store[:index] + (value,) + store[index + 1:]


def eval_expr(e, store: Store) -> float:
    t = type(e)
    if t is Var:
        return store[e.index]
    if t is Lit:
        return e.value
    op = e.op
    args = e.args
    if op == "+":
        v = eval_expr(args[0], store) + eval_expr(args[1], store)
    elif op == "-":
        v = eval_expr(args[0], store) - eval_expr(args[1], store)
    elif op == "*":
        v = eval_expr(args[0], store) * eval_expr(args[1], store)
    elif op == "/":
        d = eval_expr(args[1], store)
        if d == 0.0:
            raise Undefined("division by zero")
        v = eval_expr(args[0], store) / d
    elif op == "neg":
        v = -eval_expr(args[0], store)
    elif op == "ln":
        a = eval_expr(args[0], store)
        if a <= 0.0:
            raise Undefined(f"ln of non-positive value {a!r}")
        v = math.log(a)
    elif op == "sqrt":
        a = eval_expr(args[0], store)
        if a < 0.0:
            raise Undefined(f"sqrt of negative value {a!r}")
        v = math.sqrt(a)
    elif op == "sin":
        v = math.sin(eval_expr(args[0], store))
    elif op == "cos":
        v = math.cos(eval_expr(args[0], store))
    elif op == "exp":
        try:
            v = math.exp(eval_expr(args[0], store))
        except OverflowError:
            raise Undefined("exp overflow") from None
    else:  # pragma: no cover - Call.__post_init__ rejects unknown ops
        raise Undefined(f"unknown primitive {op!r}")
    if not math.isfinite(v):
        raise Undefined(f"non-finite result in {op!r}")
    return v


def eval_bool(b, store: Store) -> bool:
    t = type(b)
    if t is BoolLit:
        return b.value
    if t is Leq:
        return eval_expr(b.lhs, store) <= eval_expr(b.rhs, store)
    if t is And:
        lhs = eval_bool(b.lhs, store)
        rhs = eval_bool(b.rhs, store)
        return lhs and rhs
    if t is Or:
        lhs = eval_bool(b.lhs, store)
        rhs = eval_bool(b.rhs, store)
        return lhs or rhs
    raise TypeError(f"not a boolean node: {b!r}")  # pragma: no cover
