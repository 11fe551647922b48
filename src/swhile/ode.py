"""Flows of differential blocks: the solution map (store, tau) -> store.

Each `DiffBlock` gets one table of flows, `_Flows`, on its first flow by
any method, and the table is cached on the node itself (its non-compared
`compiled` field), so every evaluator that flows the same node shares one
piece of arithmetic.  The table is built by classifying the block's exact
flow, which is one of:

* nilpotent -- the system is affine, x' = Ax + c, and the augmented
  (n+1)x(n+1) matrix M = [[A, c], [0, 0]] is nilpotent (every
  double-integrator-style block), so the exponential series terminates
  and each variable is an exact polynomial in tau.  Per variable, the
  sparse coefficients of M^k/k! are kept as plain floats and one Horner
  routine evaluates the polynomial; variables whose derivative is zero
  keep their value bit for bit.  A block whose derivatives are all zero
  has no moving variable and an empty Horner table: it halts, and its
  flow returns the store itself;
* matrix exponential -- affine but not nilpotent: scipy's
  scaling-and-squaring `expm` of M * tau, over M kept as plain rows.
  numpy and `scipy.linalg` are imported on the first such flow, not when
  the block is classified: importing `scipy.linalg` takes longer and uses
  more memory than the rest of the package, and no other flow needs it;
* non-affine -- no exact flow; the default method flows it by RK4 (step
  1e-3).  A block is non-affine, too, where folding its constants would
  meet a value that is not finite (an infinite or NaN literal, or a
  coefficient or constant that overflows): `eval_expr` refuses such a
  value, so the default method leaves the block to RK4, which errs
  exactly where evaluating the derivatives does.

Classification -- the linear parts of the derivatives, M, its powers
(each entry a left-to-right sum) and the Horner coefficients -- runs in
plain Python floats, the same bits on every machine, and imports nothing,
so a block that only RK4 flows loads neither numpy nor scipy.  numpy is
imported only in the row flows below and, with scipy, on the `expm`
path; `parse`, `run` and `adequacy` never load it.  The linear parts are
folded over `_linearize`'s code list of a block's call nodes, the list
the RK4 kernel below is generated from, so one routine walks the
derivative trees for both.

`flow_rows` flows many (store, tau) pairs along one block at once, with
the arithmetic of one `flow` call per pair: a nilpotent block runs the
one Horner routine over numpy columns (a halted block's empty table
copies its stores); every other block calls `flow` once per pair.

Every RK4 flow -- a non-affine block under the default method, or any
block under an explicit `RungeKutta4` -- runs the block's RK4 kernel: one
Python function generated from the derivative expressions on the first
RK4 flow, with each stage's derivatives as straight-line code over one
local per variable.  Its arithmetic and its errors are those of
evaluating the derivative trees with `eval_expr` at every stage, bit for
bit.  It tests a result for finiteness only where the test can fire:
after every `+ - * /`, whose finite operands may overflow; after `neg`,
`sqrt`, `ln` and `exp` of a value that may be non-finite, namely a stage
store x + c * h * k (which may overflow) or an infinite or NaN literal;
after `sin` and `cos` of a value that may be NaN (on +-inf they raise
ValueError, mapped to "RK4 stage became non-finite").  Every other
operand -- a store entry, a state that passed its step's test, a finite
literal, an earlier call's result -- is finite, and so is its result.  A
variable whose derivative is the literal +0.0 gains exactly +0.0 on every
step, so the kernel computes its new value x + 0.0 once per flow and
never steps it.  A flow that would take more than `MAX_RK4_STEPS` steps
(ceil(tau / step)) is refused as undefined before the kernel starts, so a
tiny step cannot make one flow run without end.  A stage store that
overflows makes the flow undefined too, as its state would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from operator import add, mul, neg, sub

from .store import Store, Undefined, eval_expr
from .syntax import Call, DiffBlock, Lit, Var


@dataclass(frozen=True, slots=True)
class ExactAffine:
    pass


@dataclass(frozen=True, slots=True)
class RungeKutta4:
    step: float = 1e-3

    def __post_init__(self):
        step = self.step
        if not 0 < step < math.inf:  # also rejects NaN
            raise ValueError("RK4 step must be finite" if step == math.inf
                             else "RK4 step must be positive")


FlowMethod = ExactAffine | RungeKutta4

EXACT = ExactAffine()
DEFAULT_RK4 = RungeKutta4(1e-3)

# The most RK4 steps one flow may take: a longer flow is undefined (an `err`
# outcome), so a step such as 1e-300 ends in a diagnostic instead of a loop.
MAX_RK4_STEPS = 10 ** 7


def _combine(op: str, parts: list, zero: tuple):
    """The linear part of a call `op` whose arguments have linear parts
    `parts`, or None if the call is not affine."""
    if op == "+":
        (c1, k1), (c2, k2) = parts
        return tuple(map(add, c1, c2)), k1 + k2
    if op == "-":
        (c1, k1), (c2, k2) = parts
        return tuple(map(sub, c1, c2)), k1 - k2
    if op == "neg":
        (c1, k1), = parts
        return tuple(map(neg, c1)), -k1
    if op == "*":
        (c1, k1), (c2, k2) = parts
        if not any(c1):
            return tuple([k1 * v for v in c2]), k1 * k2
        if not any(c2):
            return tuple([k2 * v for v in c1]), k2 * k1
        return None
    if op == "/":
        (c1, k1), (c2, k2) = parts
        if any(c2) or k2 == 0.0:
            return None
        return tuple([v / k2 for v in c1]), k1 / k2
    # transcendental: affine only when constant
    if not any(any(c) for c, _ in parts):
        dummy = ()
        try:
            v = eval_expr(Call(op, tuple(Lit(k) for _, k in parts)), dummy)
        except Undefined:
            return None
        return zero, v
    return None


def classify_affine(block: DiffBlock):
    """(A, c) with x' = Ax + c, by structural inspection; None if non-affine.

    A is a tuple of rows, one per variable, and c a tuple, all of finite
    floats.  `_combine` folds the linear parts over `_linearize`'s code
    list, one call node at a time; divisor tests carry no value and are
    skipped.  Subtrees without variables are folded to constants by
    `eval_expr`'s arithmetic, so a constant derivative's c is its value,
    bit for bit.  What `eval_expr` would refuse makes the system
    non-affine: a division by zero among constants, a literal that is not
    finite, or a folded coefficient or constant that is not finite.  The
    RK4 fallback then surfaces the evaluation error at run time.
    """
    zero = (0.0,) * len(block.derivs)
    consts, code = [], []
    outs = [_linearize(d, consts, code) for d in block.derivs]
    if not all(map(math.isfinite, consts)):
        return None
    parts = []  # the linear part of each code entry, None for a divisor test

    def part(ref):
        kind, i = ref
        if kind == "var":
            return zero[:i] + (1.0,) + zero[i + 1:], 0.0
        return (zero, consts[i]) if kind == "const" else parts[i]

    for op, refs in code:
        if op == "divisor":
            parts.append(None)
            continue
        linear = _combine(op, [part(r) for r in refs], zero)
        if linear is None or not all(map(math.isfinite, (*linear[0], linear[1]))):
            return None  # a non-affine subterm makes every ancestor non-affine
        parts.append(linear)
    linear = [part(ref) for ref in outs]
    return tuple([coeff for coeff, _ in linear]), tuple([float(k) for _, k in linear])


class _Flows:
    """A block's compiled flows: its exact flow and that flow's row form,
    classified when the table is built, and its RK4 kernel, built on the
    first RK4 flow.

    `exact` is a function (store, tau) -> store, or None for a non-affine
    block.  `rows` runs the same arithmetic over many rows at once,
    (stores, taus) -> (out, defined): Horner rows for a nilpotent block, or
    None where `flow_rows` flows one row at a time.
    """

    __slots__ = ("exact", "rows", "rk4")

    def __init__(self, block: DiffBlock):
        self.exact = self.rows = None
        self.rk4 = None  # (store, tau, step) -> store, from _rk4_kernel
        affine = classify_affine(block)
        if affine is None:
            return
        a, c = affine
        n = len(c)
        m = [[*row, k] for row, k in zip(a, c)]
        m.append([0.0] * (n + 1))
        powers = _nilpotent_powers(m, n + 1)
        if powers is None:
            self.exact = partial(_flow_expm, m)
        else:
            horner = _polynomial_rows(powers, n)  # empty exactly when M is all zeros
            self.exact = partial(_flow_polynomial, horner) if horner else _halted
            self.rows = partial(_horner_rows, horner)


def _halted(store: Store, tau: float) -> Store:
    return store


def _horner(rows, columns, tau) -> list:
    """`columns` as a list, each moving variable's entry replaced by its
    polynomial in tau by Horner's rule.  `rows` holds (i, coefficients)
    per variable with a nonzero derivative, from the highest power of tau
    down to tau^1, each as (constant, ((j, weight), ...)) read off row i of
    M^k/k!; the tau^0 coefficient is columns[i].  `columns[j]` is variable
    j's value: one store's float, with a float `tau`, or a numpy column over
    many stores, with a column of taus -- the same operations in the same
    order.  A variable whose derivative is zero keeps its value bit for bit.
    """
    out = list(columns)
    for i, coeffs in rows:
        acc = 0.0
        for const, terms in coeffs:
            for j, w in terms:
                const = const + w * columns[j]
            acc = (acc + const) * tau
        out[i] = columns[i] + acc
    return out


def _flow_polynomial(rows, store: Store, tau: float) -> Store:
    """The nilpotent flow of one store: `_horner` over its floats."""
    out = _horner(rows, store, tau)
    for v in out:
        if not math.isfinite(v):
            raise Undefined("flow produced a non-finite value")
    return tuple(out)


def _flow_expm(m: list, store: Store, tau: float) -> Store:
    """The matrix-exponential flow of one store along the augmented matrix
    `m`, a list of float rows."""
    import numpy as np  # on demand, see the module docstring
    from scipy.linalg import expm

    n = len(store)
    with np.errstate(all="ignore"):  # a non-finite result is undefined below
        phi = expm(np.array(m) * tau)
        vec = phi[:n, :] @ np.append(np.asarray(store, dtype=float), 1.0)
    out = tuple(map(float, vec))
    for v in out:
        if not math.isfinite(v):
            raise Undefined("flow produced a non-finite value")
    return out


def _nilpotent_powers(m: list, count: int):
    """[M, M^2, ..., M^(d-1)] for a square list of float rows M whose power
    M^d is all zeros for some d <= count (the first such d), or None.

    Entry (i, j) of P·M is reduce(add, map(mul, row i of P, column j of
    M)): the products summed left to right, as the product is defined, so
    its bits and the signs of its zeros are IEEE's own.  A row of P that is
    all zeros is carried over: row i of P·M depends only on row i of P, so
    it stays zero in every later power, and no reader sees its zeros' signs
    (`_polynomial_rows` stops reading variable i at its first zero row, and
    any(map(any, power)) ignores signs).  A row holding an inf or a NaN is
    never all zeros again -- 0 * inf is NaN, and a NaN stays in every later
    sum -- so such an M runs to `count` and gets None.
    """
    columns = list(zip(*m))
    powers, power = [], m
    while any(map(any, power)):
        if len(powers) + 1 == count:
            return None
        powers.append(power)
        power = [[reduce(add, map(mul, row, column)) for column in columns] if any(row) else row
                 for row in power]
    return powers


def _polynomial_rows(powers, n: int):
    """Sparse Horner coefficients from the nonzero powers M^1 .. M^(d-1),
    each a sequence of rows.  A row of zeros in one power is a row of
    zeros in every later one, since M is finite."""
    factorials = [math.factorial(k) for k in range(1, len(powers) + 1)]
    rows = []
    for i in range(n):
        coeffs = []
        for p, f in zip(powers, factorials):
            row = p[i]
            if not any(row):
                break
            scaled = [(j, w / f) for j, w in enumerate(row[:n]) if w]
            coeffs.append((row[n] / f, tuple([(j, w) for j, w in scaled if w != 0.0])))
        while coeffs and coeffs[-1] == (0.0, ()):
            coeffs.pop()
        if coeffs:
            rows.append((i, tuple(reversed(coeffs))))
    return tuple(rows)


def _flows(block: DiffBlock) -> _Flows:
    """The block's `_Flows`, built and cached on its first flow."""
    flows = block.compiled
    if flows is None:
        flows = _Flows(block)
        object.__setattr__(block, "compiled", flows)
    return flows


def flow(block: DiffBlock, store: Store, tau: float, method: FlowMethod | None = None) -> Store:
    """phi(store, tau): evolve the store tau time units along the block.

    With `method=None` the exact affine flow is used when the system is
    affine and RK4(1e-3) otherwise.  Raises Undefined if a derivative (or
    the flow itself) is undefined along the way, or if an RK4 flow would
    take more than `MAX_RK4_STEPS` steps.
    """
    if tau < 0:
        raise ValueError("flow time must be nonnegative")
    flows = block.compiled or _flows(block)
    if isinstance(method, RungeKutta4):
        return _rk4(block, flows, store, tau, method.step)
    exact = flows.exact
    if exact is not None:
        return exact(store, tau)
    if method is None:
        return _rk4(block, flows, store, tau, DEFAULT_RK4.step)
    raise Undefined("exact flow requested for a non-affine system")


def _rk4(block: DiffBlock, flows: _Flows, store: Store, tau: float, step: float) -> Store:
    if tau / step > MAX_RK4_STEPS:  # ceil(tau / step) > MAX_RK4_STEPS
        raise Undefined(f"RK4 flow would take more than {MAX_RK4_STEPS} steps")
    kernel = flows.rk4
    if kernel is None:
        kernel = flows.rk4 = _rk4_kernel(block.derivs)
    try:
        return kernel(store, tau, step)
    except ValueError:
        # sin or cos of an infinite stage value: a stage store x + h * k is
        # not checked finite, and may overflow where the state does not
        raise Undefined("RK4 stage became non-finite") from None


def halts(block: DiffBlock, method: FlowMethod | None = None) -> bool:
    """Whether every flow of `block` under `method` returns its store
    unchanged: the exact flow of a block whose derivatives are all zero."""
    if isinstance(method, RungeKutta4):
        return False  # an RK4 step adds zeros, which turns -0.0 into 0.0
    return _flows(block).exact is _halted


def flow_rows(block: DiffBlock, stores, taus, method: FlowMethod | None = None):
    """`flow` over rows: (out, defined) with out[n] = flow(block, stores[n],
    taus[n], method) wherever defined[n], bit for bit.

    `stores` is a float64 (rows, variables) array and `taus` a float64
    vector.  Rows whose flow is undefined have defined[n] False and
    unspecified contents.
    """
    if not isinstance(method, RungeKutta4):
        rows = _flows(block).rows
        if rows is not None:
            return rows(stores, taus)
    import numpy as np

    out = []
    defined = np.ones(len(stores), dtype=bool)
    for n, (store, tau) in enumerate(zip(stores.tolist(), taus.tolist())):
        try:
            out.append(flow(block, tuple(store), tau, method))
        except Undefined:
            out.append(store)
            defined[n] = False
    return np.array(out, dtype=float).reshape(stores.shape), defined


def _horner_rows(rows, stores, taus):
    """The nilpotent flow over rows: `_horner` over the columns of `stores`."""
    import numpy as np

    out = stores.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        values = _horner(rows, stores.T, taus)
        for i, _ in rows:
            out[:, i] = values[i]
        defined = np.isfinite(out).all(axis=1)
    return out, defined


# --- the RK4 kernel: straight-line Python generated from the derivatives ----
#
# Each call node becomes one assignment to a temporary followed by the
# checks eval_expr makes at that node that can fail there, in eval_expr's
# order (the divisor of a division is evaluated and tested before its
# numerator; see `_stage_lines` for the finiteness tests).  Variables and
# literals are read directly: variables from one local per store entry,
# literals from locals unpacked from a constants tuple, so no value is ever
# written into the source text; the text holds only generated names,
# integer indices and primitive operators.


def _linearize(e, consts: list, code: list):
    """Append the call nodes of `e` to `code` in evaluation order.

    Returns the reference of e's value: ("var", index), ("const", index
    into `consts`) or ("temp", index into `code`).  Each `code` entry is
    (op, argument references), or ("divisor", (reference,)) for the zero
    test that eval_expr makes on a divisor before it evaluates the
    numerator.  Iterative, so any depth eval_expr can evaluate is accepted.
    The one walk over a block's derivatives: `classify_affine` folds the
    list, and `_rk4_kernel` generates its stages from it.
    """
    values = []
    stack = [e]
    while stack:
        item = stack.pop()
        t = type(item)
        if t is Var:
            values.append(("var", item.index))
        elif t is Lit:
            values.append(("const", len(consts)))
            consts.append(item.value)
        elif t is Call:
            args = item.args
            if item.op == "/":
                stack += [("/", 2), args[0], ("divisor", 0), args[1]]
            else:
                stack.append((item.op, len(args)))
                stack.extend(reversed(args))
        elif item[0] == "divisor":
            code.append(("divisor", (values[-1],)))
        else:
            op, arity = item
            refs = tuple(values[-arity:])
            del values[-arity:]
            if op == "/":
                refs = refs[::-1]  # the divisor was evaluated first
            values.append(("temp", len(code)))
            code.append((op, refs))
    return values[0]


def _name(ref, roots: dict, inputs: str, slopes: str, static=()) -> str:
    """The local holding `ref` in a stage that reads the store from
    `<inputs>0, <inputs>1, ...` (`z<i>` for a variable i in `static`) and
    leaves derivative i in `<slopes>i`."""
    kind, i = ref
    if kind == "var":
        return f"z{i}" if i in static else f"{inputs}{i}"
    if kind == "const":
        return f"K{i}"
    return f"{slopes}{roots[i]}" if i in roots else f"t{i}"


def _stage_lines(code, consts: list, roots: dict, inputs: str, slopes: str,
                 static=None, nan=False) -> list:
    """Source lines of one RK4 stage: every derivative, in eval_expr's order.

    `static` is None for the first stage, which reads the state itself.  A
    later stage reads variable i in `static` from `z<i>` and every other
    variable from its stage store, which may be +-inf, and NaN too if `nan`.

    eval_expr tests every call's result for finiteness; the stage keeps a
    test only where it can fire.  It always follows `+ - * /`, whose finite
    operands may overflow.  After `neg`, `sqrt`, `ln` and `exp` it is left
    out when the operand is finite: a state entry, a `z<i>`, a finite
    literal or a temporary (each of these passed its own test, or could not
    fail one).  After `sin` and `cos` it is left out when the operand cannot
    be NaN, since they raise ValueError on +-inf.
    """
    def finite(ref) -> bool:
        kind, i = ref
        if kind == "var":
            return static is None or i in static
        return kind == "temp" or math.isfinite(consts[i])

    def maybe_nan(ref) -> bool:
        kind, i = ref
        if kind == "const":
            return math.isnan(consts[i])
        return nan and not finite(ref)

    names = static or ()
    lines = []
    for index, (op, refs) in enumerate(code):
        a = [_name(r, roots, inputs, slopes, names) for r in refs]
        if op == "divisor":
            lines.append(f'if {a[0]} == 0.0: raise Undefined("division by zero")')
            continue
        out = _name(("temp", index), roots, inputs, slopes)
        if op in ("+", "-", "*", "/"):
            lines.append(f"{out} = {a[0]} {op} {a[1]}")
        elif op == "neg":
            lines.append(f"{out} = -{a[0]}")
        elif op == "exp":
            lines += ["try:", f"    {out} = exp({a[0]})", "except OverflowError:",
                      '    raise Undefined("exp overflow") from None']
        elif op == "ln":
            lines.append(f'if {a[0]} <= 0.0: '
                         f'raise Undefined(f"ln of non-positive value {{{a[0]}!r}}")')
            lines.append(f"{out} = log({a[0]})")
        elif op == "sqrt":
            lines.append(f'if {a[0]} < 0.0: raise Undefined(f"sqrt of negative value {{{a[0]}!r}}")')
            lines.append(f"{out} = sqrt({a[0]})")
        elif op in ("sin", "cos"):
            lines.append(f"{out} = {op}({a[0]})")
        else:  # pragma: no cover - Call.__post_init__ rejects unknown ops
            raise ValueError(f"unknown primitive {op!r}")
        if op in ("sin", "cos"):
            checked = maybe_nan(refs[0])
        else:
            checked = len(refs) == 2 or not finite(refs[0])
        if checked:
            lines.append(f"if not isfinite({out}): "
                         f"raise Undefined(\"non-finite result in '{op}'\")")
    return lines


def _rk4_kernel(derivs: tuple):
    """Fixed-step RK4 over `derivs` as a function (store, tau, step) -> store.

    The arithmetic is the classic scheme's, operation for operation: stage
    stores x + 0.5 * h * k (x + h * k for the last) and the update
    x + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d), for every variable, so the
    result is bit-identical to evaluating the derivative trees with
    eval_expr at each stage; the state is checked finite after each step.

    The stages test a call's result for finiteness only where the test can
    fire (see `_stage_lines`): every store entry is finite, and so is each
    state that passed its step's check, so of the stages' reads only a stage
    store x + c * h * k may be non-finite.  It overflows to +-inf, but is
    NaN only when some derivative is a non-finite literal k: a NaN, or an
    inf times a 0.5 * h that underflowed to 0.0.  A block without such a
    literal tests no `sin` or `cos` result, and the pendulum's
    theta' = om, om' = -sin(theta) tests only its two states per step.

    A static variable, whose derivative is the literal +0.0, gains exactly
    +0.0 in each of those sums (h is positive and finite, and so is every
    store entry), so its stage stores and its value after every step are
    one z = x + 0.0, computed once per flow, with no update and no
    finiteness check.  The first step's first stage still reads x itself,
    which may be -0.0.  A static variable that no derivative reads takes
    its z once, after the last step.
    """
    n = len(derivs)
    consts, code = [], []
    outs = [_linearize(d, consts, code) for d in derivs]
    roots = {i: j for j, (kind, i) in enumerate(outs) if kind == "temp"}
    static = {j for j, d in enumerate(derivs)
              if type(d) is Lit and d.value == 0.0 and math.copysign(1.0, d.value) > 0.0}
    moving = [j for j in range(n) if j not in static]
    read = {i for _, refs in code for kind, i in refs if kind == "var"}
    read.update(i for kind, i in outs if kind == "var")
    unread = sorted(static - read)
    # a stage store is NaN only through a non-finite literal derivative
    nan = any(kind == "const" and not math.isfinite(consts[i]) for kind, i in outs)

    def slope(j: int, inputs: str, slopes: str) -> str:
        return _name(outs[j], roots, inputs, slopes, static if inputs != "x" else ())

    def names(prefix: str, count: int) -> str:
        return "(" + "".join(f"{prefix}{i}, " for i in range(count)) + ")"

    body = ["h = step if remaining >= step else remaining"]
    body += _stage_lines(code, consts, roots, "x", "a")
    body.append("h2 = 0.5 * h")
    body += [f"u{j} = x{j} + h2 * {slope(j, 'x', 'a')}" for j in moving]
    body += _stage_lines(code, consts, roots, "u", "b", static, nan)
    body += [f"v{j} = x{j} + h2 * {slope(j, 'u', 'b')}" for j in moving]
    body += _stage_lines(code, consts, roots, "v", "c", static, nan)
    body += [f"w{j} = x{j} + h * {slope(j, 'v', 'c')}" for j in moving]
    body += _stage_lines(code, consts, roots, "w", "d", static, nan)
    body.append("h6 = h / 6.0")
    body += [f"n{j} = x{j} + h6 * ({slope(j, 'x', 'a')} + 2.0 * {slope(j, 'u', 'b')}"
             f" + 2.0 * {slope(j, 'v', 'c')} + {slope(j, 'w', 'd')})" for j in moving]
    body += [f'if not isfinite(n{j}): raise Undefined("RK4 state became non-finite")'
             for j in moving]
    body += [f"x{j} = z{j}" if j in static else f"x{j} = n{j}"
             for j in range(n) if j not in unread]
    body.append("remaining -= h")
    source = "\n".join([
        "def make(K):",
        f"    {names('K', len(consts))} = K",
        "    def rk4(store, tau, step):",
        f"        {names('x', n)} = store",
        *(f"        z{j} = x{j} + 0.0" for j in sorted(static & read)),
        "        remaining = tau",
        "        while remaining > 0.0:",
        *("            " + line for line in body),
        *(["        if tau > 0.0:"] if unread else []),
        *(f"            x{j} = x{j} + 0.0" for j in unread),
        f"        return {names('x', n)}",
        "    return rk4",
    ])
    namespace = {"Undefined": Undefined, "isfinite": math.isfinite, "log": math.log,
                 "sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "exp": math.exp}
    exec(compile(source, "<rk4 kernel>", "exec"), namespace)
    return namespace["make"](tuple(consts))
