"""Flows of differential blocks: the solution map (store, tau) -> store.

Each `DiffBlock` is compiled once, on its first flow, and the result is
cached on the node itself (its non-compared `compiled` field), so every
evaluator that flows the same node shares one piece of arithmetic.  The
compiled flow is one of:

* halted -- every derivative is zero, the store is returned unchanged;
* nilpotent -- the system is affine, x' = Ax + c, and the augmented
  (n+1)x(n+1) matrix M = [[A, c], [0, 0]] is nilpotent (every
  double-integrator-style block), so the exponential series terminates
  and each variable is an exact polynomial in tau.  Per variable, the
  sparse coefficients of M^k/k! are kept as plain floats and the
  polynomial is evaluated by Horner's rule; variables whose derivative is
  zero keep their value bit for bit;
* matrix exponential -- affine but not nilpotent: scipy's
  scaling-and-squaring `expm` of M * tau;
* non-affine -- fixed-step RK4 on the derivative expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import expm

from .store import Store, Undefined, eval_expr
from .syntax import Call, DiffBlock, Lit, Var


@dataclass(frozen=True, slots=True)
class ExactAffine:
    pass


@dataclass(frozen=True, slots=True)
class RungeKutta4:
    step: float = 1e-3

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("RK4 step must be positive")


FlowMethod = ExactAffine | RungeKutta4

EXACT = ExactAffine()
DEFAULT_RK4 = RungeKutta4(1e-3)


def _linear_part(e, n: int):
    """Coefficient vector and constant of `e`, or None if not affine.

    Subtrees without variables are folded to constants; folding failures
    (e.g. a division by zero among constants) make the system non-affine
    so the RK4 fallback surfaces the evaluation error at run time.
    """
    t = type(e)
    if t is Lit:
        return np.zeros(n), e.value
    if t is Var:
        coeff = np.zeros(n)
        coeff[e.index] = 1.0
        return coeff, 0.0
    op = e.op
    parts = [_linear_part(a, n) for a in e.args]
    if any(p is None for p in parts):
        return None
    if op == "+":
        (c1, k1), (c2, k2) = parts
        return c1 + c2, k1 + k2
    if op == "-":
        (c1, k1), (c2, k2) = parts
        return c1 - c2, k1 - k2
    if op == "neg":
        (c1, k1), = parts
        return -c1, -k1
    if op == "*":
        (c1, k1), (c2, k2) = parts
        if not c1.any():
            return k1 * c2, k1 * k2
        if not c2.any():
            return k2 * c1, k2 * k1
        return None
    if op == "/":
        (c1, k1), (c2, k2) = parts
        if c2.any() or k2 == 0.0:
            return None
        return c1 / k2, k1 / k2
    # transcendental: affine only when constant
    if all(not c.any() for c, _ in parts):
        dummy = ()
        try:
            v = eval_expr(Call(op, tuple(Lit(k) for _, k in parts)), dummy)
        except Undefined:
            return None
        return np.zeros(n), v
    return None


def classify_affine(block: DiffBlock):
    """(A, c) with x' = Ax + c, by structural inspection; None if non-affine."""
    n = len(block.derivs)
    rows = []
    consts = []
    for d in block.derivs:
        part = _linear_part(d, n)
        if part is None:
            return None
        coeff, const = part
        rows.append(coeff)
        consts.append(const)
    return np.array(rows), np.array(consts)


_NON_AFFINE = object()  # compiled marker: no exact flow, RK4 only


def _halted(store: Store, tau: float) -> Store:
    return store


def _flow_polynomial(rows, store: Store, tau: float) -> Store:
    """Horner evaluation of each moving variable's polynomial in tau.

    `rows` holds (i, coefficients) per variable with a nonzero derivative;
    the coefficients run from the highest power of tau down to tau^1,
    each as (constant, ((j, weight), ...)) read off row i of M^k/k!.
    The tau^0 coefficient is store[i] itself.
    """
    out = list(store)
    for i, coeffs in rows:
        acc = 0.0
        for const, terms in coeffs:
            for j, w in terms:
                const += w * store[j]
            acc = (acc + const) * tau
        out[i] = store[i] + acc
    for v in out:
        if not math.isfinite(v):
            raise Undefined("flow produced a non-finite value")
    return tuple(out)


def _flow_expm(m, store: Store, tau: float) -> Store:
    n = len(store)
    phi = expm(m * tau)
    vec = phi[:n, :] @ np.append(np.asarray(store, dtype=float), 1.0)
    out = tuple(map(float, vec))
    for v in out:
        if not math.isfinite(v):
            raise Undefined("flow produced a non-finite value")
    return out


def _compile(block: DiffBlock):
    """The exact flow of `block` as a function (store, tau) -> store, or
    `_NON_AFFINE`; cached on the block."""
    exact = _NON_AFFINE
    affine = classify_affine(block)
    if affine is not None:
        a, c = affine
        n = len(c)
        m = np.zeros((n + 1, n + 1))
        m[:n, :n] = a
        m[:n, n] = c
        if not m.any():
            exact = _halted
        else:
            powers = [m]
            while powers[-1].any() and len(powers) <= n:
                powers.append(powers[-1] @ m)
            if powers[-1].any():
                exact = partial(_flow_expm, m)
            else:
                exact = partial(_flow_polynomial, _polynomial_rows(powers[:-1], n))
    object.__setattr__(block, "compiled", exact)
    return exact


def _polynomial_rows(powers, n: int):
    """Sparse Horner coefficients from the nonzero powers M^1 .. M^(d-1)."""
    scaled = [p / math.factorial(k) for k, p in enumerate(powers, start=1)]
    rows = []
    for i in range(n):
        coeffs = [
            (float(s[i, n]), tuple((j, float(s[i, j])) for j in range(n) if s[i, j] != 0.0))
            for s in scaled
        ]
        while coeffs and coeffs[-1] == (0.0, ()):
            coeffs.pop()
        if coeffs:
            rows.append((i, tuple(reversed(coeffs))))
    return tuple(rows)


def flow(block: DiffBlock, store: Store, tau: float, method: FlowMethod | None = None) -> Store:
    """phi(store, tau): evolve the store tau time units along the block.

    With `method=None` the exact affine flow is used when the system is
    affine and RK4(1e-3) otherwise.  Raises Undefined if a derivative (or
    the flow itself) is undefined along the way.
    """
    if tau < 0:
        raise ValueError("flow time must be nonnegative")
    if isinstance(method, RungeKutta4):
        return _flow_rk4(block.derivs, store, tau, method.step)
    exact = block.compiled
    if exact is None:
        exact = _compile(block)
    if exact is _NON_AFFINE:
        if method is None:
            return _flow_rk4(block.derivs, store, tau, DEFAULT_RK4.step)
        raise Undefined("exact flow requested for a non-affine system")
    return exact(store, tau)


def _flow_rk4(derivs: tuple, store: Store, tau: float, step: float) -> Store:
    def f(state):
        return [eval_expr(d, state) for d in derivs]

    state = tuple(store)
    remaining = tau
    while remaining > 0.0:
        h = step if remaining >= step else remaining
        k1 = f(state)
        k2 = f(tuple(x + 0.5 * h * k for x, k in zip(state, k1)))
        k3 = f(tuple(x + 0.5 * h * k for x, k in zip(state, k2)))
        k4 = f(tuple(x + h * k for x, k in zip(state, k3)))
        state = tuple(
            x + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for x, a, b, c, d in zip(state, k1, k2, k3, k4)
        )
        for v in state:
            if not math.isfinite(v):
                raise Undefined("RK4 state became non-finite")
        remaining -= h
    return state
