"""Lexer, parser, and desugaring for the concrete program syntax.

The surface syntax follows the language's listings: `:=` assignments,
`;` sequencing, `x1' = e1, ..., xn' = en for e` differential blocks,
`if b then p else q`, `while b do { p }` (`do` optional), `//` line
comments.  Sugar forms are expanded here so the rest of the package only
ever sees core constructs:

  wait e                      all-zero-derivative block
  x++ / x--                   x := x + 1 / x := x - 1
  x := unif(a,b)              x := unif(0,1) ; x := (b - a) * x + a
  x := exp(l)                 x := unif(0,1) ; x := -ln(x) / l
  x := normal(m,s)            Box-Muller with helper draws x1, x2
  bernoulli(r, p, q)          x_f := unif(0,1) ; if x_f <= r then p else q

In an assignment right-hand side, `unif(a,b)`, `exp(l)` and `normal(m,s)`
are sampler references (so `x := exp(2) + sqrt(3)` draws from the shifted
exponential); everywhere else `exp` is the scalar exponential primitive.
Helper variables (`x_f`, `x1`, `x2`, `x_s`) get a `_2`, `_3`, ... suffix
when the source already uses the name.

A parse is two walks.  One recursive descent parses and desugars at once:
each statement becomes the list of core statements it expands to, still
over names, while the variable table is collected.  Resolution then maps
names to table indices.

Variables are declared implicitly: the variable table lists every name
in the order of its first occurrence in the desugared program, so a
sampler's helper draws come before its target (`x := normal(0, 1)` gives
`x1, x2, x`).  Names that are only ever read keep whatever value the
initial store gives them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .syntax import (
    And,
    Assign,
    BoolLit,
    Call,
    DiffBlock,
    If,
    Leq,
    Lit,
    Or,
    Program,
    Sample,
    Seq,
    Var,
    VarTable,
    While,
)

KEYWORDS = {"if", "then", "else", "while", "do", "for", "wait", "tt", "ff", "bernoulli"}
SAMPLERS = {"unif": 2, "exp": 1, "normal": 2}
FUNCTIONS = {"ln": 1, "sqrt": 1, "sin": 1, "cos": 1, "exp": 1}
RESERVED = KEYWORDS | set(SAMPLERS) | set(FUNCTIONS) | {"pi"}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


# --- lexer ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>//[^\n]*)
      | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>:=|<=|&&|\|\||\+\+|--|[;,(){}'=+\-*/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "number", "ident", "eof", or the operator text itself
    text: str
    line: int
    col: int
    value: float = 0.0


def tokenize(source: str):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group()
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            pass
        elif kind == "number":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number literal {text!r} overflows", line, col)
            tokens.append(Token("number", text, line, col, value))
        elif kind == "ident":
            tokens.append(Token("ident", text, line, col))
        else:
            tokens.append(Token(text, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# --- name-level trees ----------------------------------------------------------

@dataclass(frozen=True)
class RLit:
    value: float


@dataclass(frozen=True)
class RVar:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class RCall:
    op: str
    args: tuple


@dataclass
class RSampler:
    """A draw in an assignment right-hand side; once expanded, it reads `name`."""

    kind: str
    args: tuple
    line: int
    col: int
    name: str | None = None


@dataclass(frozen=True)
class RAssign:
    name: str
    rhs: object


@dataclass(frozen=True)
class RSample:
    name: str


@dataclass(frozen=True)
class RDiff:
    derivs: dict  # name -> derivative expression, listed names only
    duration: object


@dataclass(frozen=True)
class RIf:
    cond: object
    then_branch: list
    else_branch: list


@dataclass(frozen=True)
class RWhile:
    cond: object
    body: list


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        # helper variables avoid every name the source mentions
        self.used = RESERVED | {t.text for t in tokens if t.kind == "ident"}
        self.vars = {}  # the variable table, in first-occurrence order

    def peek(self, k=0) -> Token:
        return self.tokens[min(self.i + k, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, kind: str, k=0) -> bool:
        return self.peek(k).kind == kind

    def at_ident(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == text

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "eof":
            self.error(f"unexpected trailing input {tok.text!r}")

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def fresh(self, base: str) -> str:
        name = base
        k = 2
        while name in self.used:
            name = f"{base}_{k}"
            k += 1
        self.used.add(name)
        return name

    def note(self, *items):
        """Add the names in `items` (names, expressions, guards, atomic
        statements) to the variable table, left to right."""
        for item in items:
            if isinstance(item, str):
                self.vars[item] = None
            elif isinstance(item, (RVar, RSampler, RSample)):
                self.vars[item.name] = None
            elif isinstance(item, RAssign):
                self.note(item.name, item.rhs)
            elif isinstance(item, RCall):
                self.note(*item.args)
            elif isinstance(item, tuple):  # a guard: (tag, operand, ...)
                self.note(*item[1:])

    # -- programs -------------------------------------------------------------

    def parse_program(self) -> list:
        stmts = self.parse_statement()
        while self.at(";"):
            self.advance()
            if self.at("}") or self.at("eof"):
                break  # trailing separator
            stmts += self.parse_statement()
        return stmts

    def parse_block(self) -> list:
        self.expect("{")
        body = self.parse_program()
        self.expect("}")
        return body

    def parse_statement(self) -> list:
        """One statement, desugared into the list of core statements it stands for."""
        tok = self.peek()
        if tok.kind == "{":
            return self.parse_block()
        if tok.kind != "ident":
            self.error(f"expected a statement, found {tok.text or 'end of input'!r}")
        word = tok.text
        if word == "if":
            self.advance()
            cond = self.parse_bool()
            self.note(cond)
            if not self.at_ident("then"):
                self.error("expected 'then'")
            self.advance()
            then_branch = self.parse_statement()
            if not self.at_ident("else"):
                self.error("expected 'else'")
            self.advance()
            return [RIf(cond, then_branch, self.parse_statement())]
        if word == "while":
            self.advance()
            cond = self.parse_bool()
            self.note(cond)
            if self.at_ident("do"):
                self.advance()
            return [RWhile(cond, self.parse_block())]
        if word == "wait":
            self.advance()
            duration = self.parse_expr()
            self.note(duration)
            return [RDiff({}, duration)]
        if word == "bernoulli":
            self.advance()
            guard = self.fresh("x_f")
            self.expect("(")
            ratio = self.parse_expr()
            self.note(guard, ratio)
            self.expect(",")
            left = self._bernoulli_branch()
            self.expect(",")
            right = self._bernoulli_branch()
            self.expect(")")
            return [RSample(guard), RIf(("leq", RVar(guard, tok.line, tok.col), ratio), left, right)]
        if word in RESERVED:
            self.error(f"{word!r} is reserved and cannot start a statement")
        # ident-led: diff list, assignment, or increment sugar
        if self.at("'", 1):
            return self.parse_diff()
        self.advance()
        nxt = self.peek()
        if nxt.kind == "++" or nxt.kind == "--":
            self.advance()
            op = "+" if nxt.kind == "++" else "-"
            self.note(word)
            return [RAssign(word, RCall(op, (RVar(word, tok.line, tok.col), RLit(1.0))))]
        if nxt.kind == ":=":
            self.advance()
            start = self.i
            samplers = []
            rhs = self.parse_expr(samplers)
            # the target is not reserved, so any token spelling it is a read
            reads_target = any(t.text == word for t in self.tokens[start:self.i])
            return self.assign(word, rhs, samplers, reads_target)
        self.error(f"expected ':=', '++', '--', or \"'\" after {word!r}", nxt)

    def _bernoulli_branch(self) -> list:
        tok = self.peek()
        if tok.kind == "ident" and tok.text not in RESERVED and self.at("'", 1):
            self.error("wrap differential blocks in braces inside bernoulli(...)")
        return self.parse_statement()

    def parse_diff(self) -> list:
        derivs = {}
        while True:
            name_tok = self.expect("ident")
            name = name_tok.text
            if name in RESERVED:
                self.error(f"{name!r} is reserved", name_tok)
            if name in derivs:
                self.error(f"duplicate derivative for {name!r}", name_tok)
            self.expect("'")
            self.expect("=")
            derivs[name] = self.parse_expr()
            self.note(name, derivs[name])
            if not self.at(","):
                break
            self.advance()
        if not self.at_ident("for"):
            self.error("expected 'for' after derivative list")
        self.advance()
        duration = self.parse_expr()
        self.note(duration)
        return [RDiff(derivs, duration)]

    # -- sampler expansion ------------------------------------------------------

    def assign(self, name: str, rhs, samplers: list, reads_target: bool) -> list:
        """`name := rhs`, with each draw in `rhs` hoisted into statements of its own."""
        out = []
        if len(samplers) == 1 and not reads_target:
            # one draw, target unused elsewhere: reuse the target as scratch
            self.expand_sampler(samplers[0], name, out)
        else:
            for s in samplers:
                self.expand_sampler(s, self.fresh(f"{name}_s"), out)
        if not (isinstance(rhs, RSampler) and rhs.name == name):  # else the draw is all of it
            out.append(RAssign(name, rhs))
        self.note(*out)
        return out

    def expand_sampler(self, s: RSampler, target: str, out: list):
        """Append the core statements that store a draw from `s` in `target`."""
        s.name = target
        var = RVar(target, s.line, s.col)
        if s.kind == "unif":
            a, b = s.args
            out.append(RSample(target))
            if isinstance(a, RLit) and isinstance(b, RLit):
                if a.value > b.value:
                    raise ParseError("unif(a,b) needs a <= b", s.line, s.col)
                if a.value == 0.0 and b.value == 1.0:
                    return
            out.append(RAssign(target, RCall("+", (RCall("*", (RCall("-", (b, a)), var)), a))))
        elif s.kind == "exp":
            (lam,) = s.args
            out.append(RSample(target))
            out.append(RAssign(target, RCall("/", (RCall("neg", (RCall("ln", (var,)),)), lam))))
        else:  # normal, by Box-Muller
            m, sd = s.args
            h1 = RVar(self.fresh("x1"), s.line, s.col)
            h2 = RVar(self.fresh("x2"), s.line, s.col)
            out.append(RSample(h1.name))
            out.append(RSample(h2.name))
            box_muller = RCall(
                "*",
                (
                    RCall("sqrt", (RCall("*", (RLit(-2.0), RCall("ln", (h1,)))),)),
                    RCall("cos", (RCall("*", (RCall("*", (RLit(2.0), RLit(math.pi))), h2)),)),
                ),
            )
            out.append(RAssign(target, box_muller))
            if not (isinstance(m, RLit) and m.value == 0.0 and isinstance(sd, RLit) and sd.value == 1.0):
                out.append(RAssign(target, RCall("+", (m, RCall("*", (sd, var))))))

    # -- boolean conditions -----------------------------------------------------

    def parse_bool(self):
        b = self.parse_band()
        while self.at("||"):
            self.advance()
            b = ("or", b, self.parse_band())
        return b

    def parse_band(self):
        b = self.parse_bprim()
        while self.at("&&"):
            self.advance()
            b = ("and", b, self.parse_bprim())
        return b

    def parse_bprim(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text in ("tt", "ff"):
            self.advance()
            return ("lit", tok.text == "tt")
        save = self.i
        try:
            lhs = self.parse_expr()
            if self.at("<="):
                self.advance()
                return ("leq", lhs, self.parse_expr())
        except ParseError:
            pass
        self.i = save
        if self.at("("):
            self.advance()
            b = self.parse_bool()
            self.expect(")")
            return b
        self.error("expected a boolean condition")

    # -- expressions --------------------------------------------------------------

    def parse_expr(self, samplers: list | None = None):
        """An expression; `samplers` collects its draws, and None forbids them."""
        e = self.parse_term(samplers)
        while self.at("+") or self.at("-"):
            op = self.advance().kind
            e = RCall(op, (e, self.parse_term(samplers)))
        return e

    def parse_term(self, samplers):
        e = self.parse_factor(samplers)
        while self.at("*") or self.at("/"):
            op = self.advance().kind
            e = RCall(op, (e, self.parse_factor(samplers)))
        return e

    def parse_factor(self, samplers):
        if self.at("-"):
            self.advance()
            inner = self.parse_factor(samplers)
            if isinstance(inner, RLit):
                return RLit(-inner.value)
            return RCall("neg", (inner,))
        return self.parse_primary(samplers)

    def parse_primary(self, samplers):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return RLit(tok.value)
        if tok.kind == "(":
            self.advance()
            e = self.parse_expr(samplers)
            self.expect(")")
            return e
        if tok.kind != "ident":
            self.error(f"expected an expression, found {tok.text or 'end of input'!r}")
        name = tok.text
        if name == "pi":
            self.advance()
            return RLit(math.pi)
        if name in SAMPLERS and self.at("(", 1):
            if samplers is None:
                if name in FUNCTIONS:  # plain exp(e) outside an assignment RHS
                    return self.parse_call(name)
                self.error(
                    f"sampler {name!r} is only allowed in an assignment right-hand side"
                )
            self.advance()
            self.expect("(")
            args = [self.parse_expr()]
            while self.at(","):
                self.advance()
                args.append(self.parse_expr())
            self.expect(")")
            if len(args) != SAMPLERS[name]:
                self.error(f"{name!r} expects {SAMPLERS[name]} arguments", tok)
            samplers.append(RSampler(name, tuple(args), tok.line, tok.col))
            return samplers[-1]
        if name in FUNCTIONS:
            return self.parse_call(name)
        if name in RESERVED:
            self.error(f"{name!r} is reserved and not a variable")
        if self.at("(", 1):
            self.error(f"unknown function {name!r}")
        self.advance()
        return RVar(name, tok.line, tok.col)

    def parse_call(self, name: str):
        tok = self.advance()
        self.expect("(")
        args = [self.parse_expr()]
        while self.at(","):
            self.advance()
            args.append(self.parse_expr())
        self.expect(")")
        if len(args) != FUNCTIONS[name]:
            self.error(f"{name!r} expects {FUNCTIONS[name]} argument(s)", tok)
        return RCall(name, tuple(args))


# --- resolution ----------------------------------------------------------------


class _Resolver:
    def __init__(self, table: VarTable):
        self.table = table

    def expr(self, e):
        if isinstance(e, RLit):
            return Lit(e.value)
        if isinstance(e, (RVar, RSampler)):  # an expanded draw reads its variable
            if e.name not in self.table:
                raise ParseError(f"unknown variable {e.name!r}", e.line, e.col)
            return Var(self.table.index(e.name), e.name)
        return Call(e.op, tuple(self.expr(a) for a in e.args))

    def boolean(self, b):
        tag = b[0]
        if tag == "lit":
            return BoolLit(b[1])
        if tag == "leq":
            return Leq(self.expr(b[1]), self.expr(b[2]))
        cls = And if tag == "and" else Or
        return cls(self.boolean(b[1]), self.boolean(b[2]))

    def var(self, name: str) -> Var:
        return Var(self.table.index(name), name)

    def block(self, stmts) -> Program:
        resolved = [self.statement(s) for s in stmts]
        program = resolved[-1]
        for stmt in reversed(resolved[:-1]):
            program = Seq(stmt, program)
        return program

    def statement(self, stmt) -> Program:
        if isinstance(stmt, RAssign):
            return Assign(self.var(stmt.name), self.expr(stmt.rhs))
        if isinstance(stmt, RSample):
            return Sample(self.var(stmt.name))
        if isinstance(stmt, RDiff):
            derivs = [Lit(0.0)] * len(self.table)
            for name, e in stmt.derivs.items():
                derivs[self.table.index(name)] = self.expr(e)
            return DiffBlock(tuple(derivs), self.expr(stmt.duration))
        if isinstance(stmt, RIf):
            return If(self.boolean(stmt.cond), self.block(stmt.then_branch), self.block(stmt.else_branch))
        if isinstance(stmt, RWhile):
            return While(self.boolean(stmt.cond), self.block(stmt.body))
        raise AssertionError(stmt)


def parse_program(source: str) -> tuple[Program, VarTable]:
    """Parse source text into a desugared, right-associated program.

    Returns the AST and the inferred variable table.  Raises ParseError
    with a line:col position on any lexical, syntactic, arity, or unknown
    variable problem.
    """
    tokens = tokenize(source)
    parser = _Parser(tokens)
    core = parser.parse_program()
    parser.expect_end()
    if not parser.vars:
        raise ParseError("program mentions no variables", tokens[0].line, tokens[0].col)
    table = VarTable(parser.vars)
    return _Resolver(table).block(core), table


def parse_bool_expr(source: str, table: VarTable):
    """Parse a standalone boolean condition against an existing table."""
    parser = _Parser(tokenize(source))
    raw = parser.parse_bool()
    parser.expect_end()
    return _Resolver(table).boolean(raw)


def parse_file(path) -> tuple[Program, VarTable]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())
