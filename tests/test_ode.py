import math
import pickle
import random
from itertools import takewhile

import numpy as np
import pytest

from swhile import ode
from swhile.montecarlo import TimeGrid, run_ensemble, sample_trajectory
from swhile.ode import (
    EXACT,
    RungeKutta4,
    classify_affine,
    flow,
)
from swhile.parser import parse_program
from swhile.store import Undefined, eval_expr
from swhile.syntax import Call, DiffBlock, Lit, Var

from genprog import gen_expr, gen_table
from progpath import ROOT


def system(*derivs):
    return DiffBlock(tuple(derivs), Lit(1.0))


def test_classify_double_integrator():
    # p' = v, v' = 1: coefficients read off by hand
    sys = system(Var(1, "v"), Lit(1.0))
    a, c = classify_affine(sys)
    assert np.array_equal(a, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(c, [0.0, 1.0])


def test_classify_wait_is_zero_system():
    sys = system(Lit(0.0), Lit(0.0))
    a, c = classify_affine(sys)
    assert not any(map(any, a)) and not any(c)


def test_classify_rejects_nonaffine():
    assert classify_affine(system(Call("sin", (Var(0, "v"),)))) is None
    assert classify_affine(system(Call("*", (Var(0, "v"), Var(0, "v"))))) is None


def test_classify_folds_constant_subtrees():
    # v' = cos(0) * v is affine with coefficient 1
    sys = system(Call("*", (Call("cos", (Lit(0.0),)), Var(0, "v"))))
    a, c = classify_affine(sys)
    assert a[0][0] == 1.0 and c[0] == 0.0


_FOLD_LITERALS = (0.0, 0.5, -0.5, 2.0, -2.0, 1e308, 5e-324, math.pi)  # all parse as literals


def _constant_expr(rng, depth):
    """A derivative without variables over `_FOLD_LITERALS`."""
    if depth <= 0 or rng.random() < 0.25:
        return Lit(rng.choice(_FOLD_LITERALS))
    if rng.random() < 0.5:
        op = rng.choice(("neg", "sqrt", "ln", "exp", "sin", "cos"))
        return Call(op, (_constant_expr(rng, depth - 1),))
    op = rng.choice(("+", "-", "*", "/"))
    return Call(op, (_constant_expr(rng, depth - 1), _constant_expr(rng, depth - 1)))


def test_classify_folds_constants_exactly_where_eval_expr_evaluates_them():
    # folding used to skip eval_expr's finiteness tests: 1 / (1e308 * 10)
    # folded to c = 0.0, and cos(1e308 * 10) raised "math domain error"
    rng = random.Random(31)
    reasons = set()
    for _ in range(3000):
        e = _constant_expr(rng, 4)
        affine = classify_affine(system(e))
        try:
            want = eval_expr(e, ())
        except Undefined as exc:
            reasons.add(exc.reason)
            assert affine is None, e
            continue
        assert affine == (((0.0,),), (want,)), e
        assert affine[1][0].hex() == want.hex(), e  # the sign of a zero too
    for op in ("+", "-", "*", "/"):
        assert f"non-finite result in {op!r}" in reasons, op
    assert {"division by zero", "exp overflow"} <= reasons


@pytest.mark.parametrize("deriv, defined", [
    ("1 / (1e308 * 10)", False),  # folded to x' = 0 by the exact flow
    ("cos(1e308 * 10)", False),  # folding cos(inf) raised ValueError
    ("1e308 * x + 1e308 * x", True),  # A = [[inf]]: scipy's expm flow erred
])
def test_flows_agree_with_eval_expr_where_a_fold_overflows(deriv, defined):
    program, _ = parse_program(f"x' = {deriv} for 1")
    try:
        eval_expr(program.derivs[0], (0.0,))
    except Undefined:
        assert not defined
    else:
        assert defined
    assert classify_affine(program) is None
    for method in (None, RungeKutta4(0.1)):
        if defined:
            assert flow(program, (0.0,), 1.0, method) == (0.0,)
        else:
            with pytest.raises(Undefined, match="non-finite result"):
                flow(program, (0.0,), 1.0, method)
    # a block with a non-finite fold has no exact flow
    with pytest.raises(Undefined, match="non-affine"):
        flow(program, (0.0,), 1.0, EXACT)


def test_flow_double_integrator_matches_closed_form():
    # p = tau^2/2, v = tau
    sys = system(Var(1, "v"), Lit(1.0))
    tau = math.sqrt(3)
    p, v = flow(sys, (0.0, 0.0), tau, EXACT)
    assert abs(p - 1.5) < 1e-9
    assert abs(v - math.sqrt(3)) < 1e-9


def test_flow_zero_derivatives_is_identity():
    sys = system(Lit(0.0), Lit(0.0))
    store = (2.5, -1.25)
    assert flow(sys, store, 17.3, EXACT) == store
    assert flow(sys, store, 17.3, RungeKutta4(0.1)) == store


def test_flow_falling_ball():
    # p = 10 - 4.9 tau^2, v = -9.8 tau
    sys = system(Var(1, "v"), Lit(-9.8))
    p, v = flow(sys, (10.0, 0.0), 1.0, EXACT)
    assert abs(p - 5.1) < 1e-9
    assert abs(v + 9.8) < 1e-9


def test_flow_at_zero_is_exact_identity():
    rng = random.Random(7)
    for _ in range(5):
        sys = system(Var(1, "v"), Call("+", (Var(0, "p"), Lit(0.5))))
        store = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert flow(sys, store, 0.0, EXACT) == store
        assert flow(sys, store, 0.0, RungeKutta4(1e-2)) == store


def test_exact_flow_rejects_nonaffine():
    sys = system(Call("sin", (Var(0, "x"),)))
    with pytest.raises(Undefined):
        flow(sys, (1.0,), 1.0, EXACT)


def test_negative_tau_rejected():
    with pytest.raises(ValueError):
        flow(system(Lit(0.0)), (0.0,), -1.0)


def _random_affine(rng, n):
    def entry(i, j):
        return Lit(round(rng.uniform(-0.3, 0.3), 3))

    derivs = []
    for i in range(n):
        e = Lit(round(rng.uniform(-1.0, 1.0), 3))
        for j in range(n):
            term = Call("*", (entry(i, j), Var(j, f"v{j}")))
            e = Call("+", (e, term))
        derivs.append(e)
    return system(*derivs)


def test_semigroup_property_exact_affine():
    # phi(phi(s, a), b) == phi(s, a + b) within 1e-9 componentwise
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 4)
        sys = _random_affine(rng, n)
        store = tuple(rng.uniform(-1, 1) for _ in range(n))
        a, b = rng.uniform(0, 10), rng.uniform(0, 10)
        two_leg = flow(sys, flow(sys, store, a, EXACT), b, EXACT)
        one_leg = flow(sys, store, a + b, EXACT)
        for x, y in zip(two_leg, one_leg):
            assert abs(x - y) < 1e-9


def test_rk4_matches_exact_affine():
    # spectral radius kept small, tau <= 5, step 1e-3: error <= 1e-6
    rng = random.Random(5)
    for _ in range(3):
        n = rng.randint(1, 3)
        sys = _random_affine(rng, n)
        store = tuple(rng.uniform(-1, 1) for _ in range(n))
        tau = rng.uniform(0.5, 5.0)
        exact = flow(sys, store, tau, EXACT)
        rk4 = flow(sys, store, tau, RungeKutta4(1e-3))
        for x, y in zip(exact, rk4):
            assert abs(x - y) <= 1e-6


def test_rk4_surfaces_undefined_derivatives():
    sys = system(Call("/", (Lit(1.0), Var(0, "x"))))
    with pytest.raises(Undefined):
        flow(sys, (0.0,), 1.0, RungeKutta4(0.1))


@pytest.mark.parametrize("step, message", [
    (math.inf, "RK4 step must be finite"),
    (0.0, "RK4 step must be positive"),
    (-0.1, "RK4 step must be positive"),
    (math.nan, "RK4 step must be positive"),
])
def test_rk4_rejects_a_step_that_is_not_positive_and_finite(step, message):
    # an infinite step used to be accepted: each flow then took one RK4 step
    with pytest.raises(ValueError, match=message):
        RungeKutta4(step)


def test_rk4_surfaces_blowup_as_undefined():
    # x' = x^2 from 1 blows up at t=1
    sys = system(Call("*", (Var(0, "x"), Var(0, "x"))))
    with pytest.raises(Undefined):
        flow(sys, (1.0,), 2.0, RungeKutta4(1e-3))


@pytest.mark.parametrize("op", ["sin", "cos"])
def test_rk4_stage_overflow_is_undefined(op):
    # x' = 1e308 from 1.7e308: one RK4 step's stage store x + h * k overflows
    # to inf, which the state check never sees, and y' = sin(x) read it with a
    # ValueError("math domain error") that no evaluator caught
    sys = system(Lit(1e308), Call(op, (Var(0, "x"),)))
    with pytest.raises(Undefined, match="RK4 stage became non-finite"):
        flow(sys, (1.7e308, 0.0), 2.0, RungeKutta4(1.0))


def test_exponential_growth_takes_expm_path():
    # x' = x is affine but not nilpotent; no bundled program has such a block
    sys = system(Var(0, "x"))
    for tau in (0.0, 0.3, 1.0, 2.5):
        (x,) = flow(sys, (1.0,), tau, EXACT)
        assert abs(x - math.exp(tau)) <= 1e-12 * math.exp(tau)
    assert sys.compiled.exact.func is ode._flow_expm


def test_non_nilpotent_fast_equals_canonical():
    grid = TimeGrid.regular(0.0, 3.0, 0.25)
    program, _ = parse_program("x' = x for 10")
    for fast in (True, False):
        traj = sample_trajectory(program, (1.0,), grid, seed=0, fast=fast)
        for g, pt in zip(grid.times, traj.points):
            assert abs(pt.store[0] - math.exp(g)) <= 1e-12 * math.exp(g)
    program, _ = parse_program("x := 1 ; while tt { d := unif(0, 1) ; x' = x for d ; x := x / 2 }")
    for seed in range(5):
        fast = sample_trajectory(program, (1.0, 0.0), grid, seed, fast=True)
        canonical = sample_trajectory(program, (1.0, 0.0), grid, seed, fast=False)
        assert fast == canonical


def test_classify_affine_runs_once_per_block(monkeypatch):
    calls = []
    original = ode.classify_affine

    def counting(block):
        calls.append(block)
        return original(block)

    monkeypatch.setattr(ode, "classify_affine", counting)
    source = ("p := 10 ; v := 0 ; while tt { d := unif(0, 1) ; "
              "p' = v, v' = -9.8 for d ; v := -v ; wait d ; x' = sin(x) for d }")
    program, table = parse_program(source)
    grid = TimeGrid.regular(0.0, 5.0, 0.5)
    for fast in (True, False):
        run_ensemble(program, table, (10.0, 0.0, 0.0, 1.0), grid, 20, 7, fast=fast)
    assert len(calls) == 3
    assert len({id(b) for b in calls}) == 3


def test_rk4_kernel_is_built_once_per_block(monkeypatch):
    built = []
    original = ode._rk4_kernel

    def counting(derivs):
        built.append(derivs)
        return original(derivs)

    monkeypatch.setattr(ode, "_rk4_kernel", counting)
    source = ("th := 1 ; om := 0 ; p := 10 ; v := 0 ; while tt { d := unif(0, 1) ; "
              "th' = om, om' = -sin(th) for d ; p' = v, v' = -9.8 for d ; "
              "om := om + unif(-1/2, 1/2) ; x' = cos(x) for d }")
    program, table = parse_program(source)
    grid = TimeGrid.regular(0.0, 3.0, 0.5)
    store = (0.0,) * len(table)
    for fast in (True, False):
        run_ensemble(program, table, store, grid, 10, 3, fast=fast)
    assert len(built) == 2  # the affine block takes its exact flow
    for fast in (True, False):
        run_ensemble(program, table, store, grid, 10, 3, fast=fast, flow_method=RungeKutta4(0.1))
    assert len(built) == 3  # an explicit RK4 flow needs the affine block's kernel too


def test_compiled_cache_is_not_part_of_the_value():
    fresh = system(Var(1, "v"), Lit(-9.8))
    used = system(Var(1, "v"), Lit(-9.8))
    before = pickle.dumps(used)
    flow(used, (10.0, 0.0), 1.0)
    assert used.compiled is not None and fresh.compiled is None
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert pickle.dumps(used) == before == pickle.dumps(fresh)
    clone = pickle.loads(pickle.dumps(used))
    assert clone == used and clone.compiled is None
    assert flow(clone, (10.0, 0.0), 1.0) == flow(used, (10.0, 0.0), 1.0)


def test_zero_derivative_rows_are_bit_identical():
    # q and r do not move; p and v do, and reading them must not disturb q, r
    sys = system(Var(1, "v"), Lit(-9.8), Lit(0.0), Lit(0.0))
    rng = random.Random(11)
    for _ in range(50):
        store = (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-1e300, 1e300), -0.0)
        out = flow(sys, store, rng.uniform(0, 10), EXACT)
        assert out[2] is store[2] and math.copysign(1.0, out[3]) == -1.0
    halted = system(Lit(0.0), Lit(0.0))
    store = (0.1, -0.0)
    assert flow(halted, store, 3.0) is store


def _flow_rk4(derivs: tuple, store, tau: float, step: float):
    """Reference RK4 that walks the derivative trees with eval_expr."""

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


def _bits(thunk):
    """The flow's result as float.hex strings, or its Undefined reason."""
    try:
        return tuple(v.hex() for v in thunk())
    except Undefined as exc:
        return ("Undefined", exc.reason)


def _assert_kernel_matches_reference(derivs, store, tau, step):
    """The kernel's `_bits` equal the tree walk's, which are returned; the
    tree walk's ValueError (sin or cos of an infinite stage value) reads as
    the flow's Undefined reason."""
    def reference():
        try:
            return _flow_rk4(derivs, store, tau, step)
        except ValueError:
            raise Undefined("RK4 stage became non-finite") from None

    expected = _bits(reference)
    got = _bits(lambda: flow(system(*derivs), store, tau, RungeKutta4(step)))
    assert got == expected, (derivs, store, tau, step)
    return expected


def test_rk4_kernel_is_bit_identical_to_the_tree_walk():
    rng = random.Random(2024)
    undefined = 0
    for _ in range(600):
        table = gen_table(rng, 4)
        derivs = tuple(gen_expr(rng, table, 4, allow_exp=True) if rng.random() < 0.8
                       else Lit(0.0) for _ in table.names)
        store = tuple(rng.choice((-0.0, 0.0, round(rng.uniform(-3.0, 3.0), 3)))
                      for _ in table.names)
        tau = rng.choice((0.0, 0.05, 0.3, 1.0, rng.uniform(0.0, 2.0)))
        step = rng.choice((1e-3, 0.01, 0.1, 0.7))
        undefined += _assert_kernel_matches_reference(derivs, store, tau, step)[0] == "Undefined"
    # both sides raise on the same inputs, and there are such inputs
    assert 50 < undefined < 400


def test_rk4_kernel_edge_systems():
    x, d = Var(0, "x"), Var(1, "d")
    cases = [
        ((Lit(math.inf),), (1.0,)),  # a literal inf derivative: the state check raises
        ((Lit(math.inf), Lit(0.0)), (1.0, -0.0)),
        ((Call("neg", (x,)),), (-0.0,)),  # one variable, a signed zero
        # the divisor is tested before the numerator, whose ln would fail too
        ((Call("/", (Call("ln", (Call("neg", (x,)),)), Call("-", (x, x)))),), (2.0,)),
        ((Call("exp", (Call("*", (x, x)),)),), (30.0,)),  # exp overflow
        ((Call("*", (Call("*", (x, Lit(1e200))), Lit(1e200))),), (1.0,)),  # a product overflows
        ((Call("*", (Lit(1e200), Lit(1e200))),), (1.0,)),  # so does one of finite literals
        ((Call("sqrt", (Call("-", (Lit(0.5), x)),)),), (0.4,)),  # sqrt leaves its domain
        ((), ()),  # no variables
        # a static variable (derivative +0.0) at -0.0, read by another
        # derivative: the first stage reads -0.0, every later one 0.0
        ((d, Lit(0.0)), (-0.0, -0.0)),
        ((Call("ln", (d,)), Lit(0.0)), (1.0, -0.0)),  # the reason names -0.0
        # a literal -0.0 derivative is not static: x + h * -0.0 keeps -0.0,
        # in the state and in the stage stores another derivative reads
        ((Lit(-0.0),), (-0.0,)),
        ((Lit(-0.0), x), (-0.0, -0.0)),
        ((Lit(0.0), Lit(0.0)), (-0.0, 2.5)),  # every variable static
    ]
    for derivs, store in cases:
        for tau in (0.0, 0.35, 1.0):
            _assert_kernel_matches_reference(derivs, store, tau, 0.1)
    # tau = 0 takes no step, so a static -0.0 keeps its sign; one step
    # adds +0.0 to it
    block = system(Lit(0.0), d)
    assert flow(block, (-0.0, 1.0), 0.0, RungeKutta4(0.1))[0].hex() == "-0x0.0p+0"
    assert flow(block, (-0.0, 1.0), 0.05, RungeKutta4(0.1))[0].hex() == "0x0.0p+0"


@pytest.mark.parametrize("op", ["neg", "sqrt", "ln", "exp"])
def test_rk4_kernel_tests_a_unary_call_on_a_value_that_may_be_infinite(op):
    # a stage store x + 0.5 * h * k is inf where k is an inf literal, or where
    # it overflows (x' = 1e308 from 1.7e308 with h = 1), and the state check
    # never sees it; neg, sqrt, ln and exp of it are non-finite, so the test
    # after the call must stay, as it must after the call on a non-finite
    # literal
    x, y = Var(0, "x"), Var(1, "y")
    cases = [((Call(op, (y,)), Lit(math.inf)), (0.0, 1.0))]
    if op != "exp":  # exp(1.7e308) overflows in the first stage
        cases.append(((Lit(1e308), Call(op, (x,))), (1.7e308, 1.0)))
    for (dx, dy), store in cases:
        for derivs in ((dx, dy), (Call("*", (Lit(0.5), dx)), dy)):  # a root, then a temporary
            want = _assert_kernel_matches_reference(derivs, store, 2.0, 1.0)
            assert want == ("Undefined", f"non-finite result in {op!r}"), derivs
    for literal in (math.inf, math.nan):
        want = _assert_kernel_matches_reference((Call(op, (Lit(literal),)),), (1.0,), 1.0, 0.5)
        assert want == ("Undefined", f"non-finite result in {op!r}"), literal


@pytest.mark.parametrize("op", ["sin", "cos"])
def test_rk4_kernel_tests_sin_of_a_stage_store_next_to_a_non_finite_literal(op):
    # a NaN literal derivative makes its variable's stage stores NaN, and
    # sin(NaN) is NaN, not a ValueError; an inf literal does too once
    # 0.5 * h underflows to 0.0 (a 5e-324 flow), as 0.0 * inf is NaN
    x = Var(0, "x")
    for literal, tau in ((math.nan, 1.0), (math.inf, 5e-324), (-math.inf, 5e-324)):
        derivs = (Lit(literal), Call(op, (x,)))
        want = _assert_kernel_matches_reference(derivs, (1.0, 0.0), tau, 0.1)
        assert want == ("Undefined", f"non-finite result in {op!r}"), (literal, tau)


_EDGE_LITERALS = (math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324,
                  0.0, -0.0, 0.5, -2.0, 3.0)
_EDGE_STORE = (1.7e308, 1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0, 1.0, -3.0)


def _edge_expr(rng, n, depth):
    """A derivative over n variables with hostile literals, half its calls unary."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Lit(rng.choice(_EDGE_LITERALS))
        i = rng.randrange(n)
        return Var(i, f"x{i}")
    if rng.random() < 0.5:
        op = rng.choice(("neg", "sqrt", "ln", "exp", "sin", "cos"))
        return Call(op, (_edge_expr(rng, n, depth - 1),))
    op = rng.choice(("+", "-", "*", "/"))
    return Call(op, (_edge_expr(rng, n, depth - 1), _edge_expr(rng, n, depth - 1)))


def test_rk4_kernel_matches_the_tree_walk_on_hostile_values():
    # literal and stage-store infinities and NaNs, overflowing and subnormal
    # stores, and flows so short that 0.5 * h is 0.0: every finiteness test
    # the kernel leaves out must be one that could not fire
    rng = random.Random(30)
    reasons = set()
    for _ in range(2500):
        n = rng.randint(1, 3)
        derivs = tuple(rng.choice((Lit(rng.choice(_EDGE_LITERALS)), Lit(0.0)))
                       if rng.random() < 0.25 else _edge_expr(rng, n, 3) for _ in range(n))
        store = tuple(rng.choice(_EDGE_STORE) for _ in range(n))
        tau = rng.choice((0.0, 5e-324, 1e-320, 0.05, 0.3, 1.0))
        step = rng.choice((0.1, 0.7, 1.0))
        want = _assert_kernel_matches_reference(derivs, store, tau, step)
        if want[0] == "Undefined":
            reasons.add(want[1])
    # both sides reach every way a stage can fail
    for op in ("neg", "sqrt", "ln", "exp", "sin", "cos", "+", "*"):
        assert f"non-finite result in {op!r}" in reasons, op
    assert {"RK4 stage became non-finite", "RK4 state became non-finite",
            "exp overflow", "division by zero"} <= reasons


def test_pendulum_kernel_tests_its_two_states_per_step(monkeypatch):
    # theta' = om, om' = -sin(theta): no finiteness test after sin or neg can
    # fire, and d and om_s, whose derivatives are +0.0 and which no
    # derivative reads, are not written in the loop
    sources = []

    def capture(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(ode, "compile", capture, raising=False)
    program, table = parse_program((ROOT / "bench" / "pendulum.swl").read_text())
    assert table.names == ("theta", "om", "d", "om_s")
    flow(program.rest.rest.body.rest.first, (1.0, 0.0, 0.5, 0.1), 0.25, RungeKutta4(0.01))
    lines = sources[0].splitlines()
    start = lines.index("        while remaining > 0.0:")
    loop = list(takewhile(lambda line: line.startswith(" " * 12), lines[start + 1:]))
    assert sum(line.count("isfinite(") for line in loop) == 2
    assert [line for line in loop if line.strip().startswith(("x2 ", "x3 "))] == []


def test_rk4_kernel_accepts_derivatives_deeper_than_the_recursion_limit():
    # x + 0.0 + 0.0 + ... is x, so the flow is x' = x's bit for bit
    deep = Var(0, "x")
    for _ in range(3000):
        deep = Call("+", (deep, Lit(0.0)))
    out = flow(system(deep), (0.75,), 0.5, RungeKutta4(0.1))
    assert out == _flow_rk4((Var(0, "x"),), (0.75,), 0.5, 0.1)


def test_default_flow_accepts_a_non_affine_derivative_deeper_than_the_recursion_limit():
    # classify_affine rejects sin(sin(...sin(x)...)) without recursing, so the
    # default method falls back to the default RK4 step
    deep = Var(0, "x")
    for _ in range(600):
        deep = Call("sin", (deep,))
    out = flow(system(deep), (0.3,), 0.01)
    assert out == flow(system(deep), (0.3,), 0.01, RungeKutta4())
    assert out[0].hex() == (0.30068732537157755).hex()


def test_affine_derivative_deeper_than_the_recursion_limit_takes_the_exact_flow():
    # x + 0.0 + 0.0 + ... is x' = x: the expm flow, bit for bit
    deep = Var(0, "x")
    for _ in range(3000):
        deep = Call("+", (deep, Lit(0.0)))
    block = system(deep)
    a, c = classify_affine(block)
    assert np.array_equal(a, [[1.0]]) and np.array_equal(c, [0.0])
    assert flow(block, (0.75,), 0.5) == flow(system(Var(0, "x")), (0.75,), 0.5)
    assert block.compiled.exact.func is ode._flow_expm


def _rows_as_flows(block, stores, taus, method=None):
    """flow_rows' rows as `flow` would return them: a tuple, or None if undefined."""
    out, defined = ode.flow_rows(block, np.asarray(stores, dtype=float),
                                 np.asarray(taus, dtype=float), method)
    return [tuple(row) if ok else None for row, ok in zip(out.tolist(), defined.tolist())]


def _flows(block, stores, taus, method=None):
    got = []
    for store, tau in zip(stores, taus):
        try:
            got.append(flow(block, store, tau, method))
        except Undefined:
            got.append(None)
    return got


def _bit_lists(rows):
    return [None if r is None else [x.hex() for x in r] for r in rows]


def test_flow_rows_match_one_flow_per_row_bit_for_bit():
    rng = random.Random(2024)
    taus = [0.0, 1e-9, 0.3, 1.0, 7.25, 40.0] * 6
    blocks = [
        system(Var(1, "v"), Lit(-9.8), Lit(0.0)),  # nilpotent
        system(Var(1, "v"), Var(2, "a"), Lit(0.0)),  # nilpotent, three moving terms
        system(Lit(0.0), Lit(0.0), Lit(0.0)),  # halted
        system(Var(0, "x"), Lit(0.0), Lit(0.0)),  # expm
        system(Call("sin", (Var(0, "x"),)), Lit(1.0), Lit(0.0)),  # non-affine
        system(Lit(-0.0), Call("neg", (Var(0, "x"),)), Var(0, "x")),  # signed zeros
    ]
    signed_zeros = [(0.0, -0.0, -0.0), (-0.0, -0.0, 0.0), (0.0, 0.0, -0.0)] * 6
    for block in blocks:
        stores = signed_zeros + [
            tuple(rng.choice((0.0, -0.0, 1.5, -2.0, rng.uniform(-5, 5))) for _ in range(3))
            for _ in signed_zeros]
        for method in (None, EXACT, RungeKutta4(0.1)):
            want = _flows(block, stores, taus, method)
            assert _bit_lists(_rows_as_flows(block, stores, taus, method)) == _bit_lists(want)


def test_flow_rows_mark_non_finite_polynomial_rows_undefined():
    block = system(Var(1, "v"), Var(2, "x"), Lit(0.0))  # p' = v, v' = x: nilpotent
    stores = [(0.0, 0.0, 1e308), (0.0, 0.0, 1.0), (0.0, 1e308, 1e308)]
    taus = [2.0, 2.0, 1.0]
    got = _rows_as_flows(block, stores, taus)
    assert got == _flows(block, stores, taus)
    assert got[0] is None and got[1] == (2.0, 2.0, 1.0) and got[2] is None


def test_rk4_flow_over_the_step_maximum_is_undefined(monkeypatch):
    # a lowered maximum, so a missing check fails here instead of looping;
    # test_cli runs the 1e-300 step against the real one in a bounded process
    monkeypatch.setattr(ode, "MAX_RK4_STEPS", 10)
    block = system(Var(1, "v"), Lit(-9.8))
    flow(block, (10.0, 0.0), 1.0, RungeKutta4(0.1))  # 1 / 0.1 is 10 steps: allowed
    with pytest.raises(Undefined, match="more than 10 steps"):
        flow(block, (10.0, 0.0), 1.0, RungeKutta4(0.099))
    nonaffine = system(Call("sin", (Var(0, "x"),)), Lit(0.0))
    with pytest.raises(Undefined):  # the default RK4 fallback is bounded too
        flow(nonaffine, (1.0, 0.0), 0.1)


def _upper_triangular_system(rng, n):
    """x_i' = sum over j > i of a_ij x_j + c_i, with inexact coefficients:
    a nilpotent system whose powers of M round differently by summation order."""
    names = [f"x{i}" for i in range(n)]
    derivs = []
    for i in range(n):
        e = Lit(rng.uniform(-2.0, 2.0))
        for j in range(i + 1, n):
            e = Call("+", (e, Call("*", (Lit(rng.uniform(-2.0, 2.0)), Var(j, names[j])))))
        derivs.append(e)
    return system(*derivs)


def test_nilpotent_coefficients_are_summed_left_to_right():
    # the powers of M came from numpy's BLAS `@`, which blocks and reorders
    # its sums by build and CPU, so exact-flow bits depended on the BLAS
    rng = random.Random(7)
    for n in (3, 5, 8):
        block = _upper_triangular_system(rng, n)
        a, c = classify_affine(block)
        m = [[*row, k] for row, k in zip(a, c)] + [[0.0] * (n + 1)]
        powers = [m]
        for _ in range(n):
            p = powers[-1]
            product = []
            for i in range(n + 1):
                row = []
                for j in range(n + 1):
                    acc = p[i][0] * m[0][j]
                    for k in range(1, n + 1):
                        acc += p[i][k] * m[k][j]
                    row.append(acc)
                product.append(row)
            powers.append(product)
        assert not np.array(powers[-1]).any()
        want = ode._polynomial_rows([np.array(p) for p in powers[:-1]], n)
        flow(block, (0.0,) * n, 1.0)
        assert block.compiled.exact.args[0] == want


_HOSTILE = (0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, math.inf, -math.inf, math.nan)


def _dense_powers(m, count):
    """[M, ..., M^(d-1)] by the definition with no shortcut: every entry of
    every power, zero rows too, summed left to right; None unless some
    M^d with d <= count is all zeros."""
    w = len(m)
    powers, power = [], m
    while any(any(row) for row in power):
        if len(powers) + 1 == count:
            return None
        powers.append(power)
        product = []
        for i in range(w):
            row = []
            for j in range(w):
                acc = power[i][0] * m[0][j]
                for k in range(1, w):
                    acc += power[i][k] * m[k][j]
                row.append(acc)
            product.append(row)
        power = product
    return powers


def _random_square(rng, w):
    """A w x w matrix: strictly upper-triangular, the same with its rows and
    columns permuted alike (nilpotent, not triangular), or general; entries
    signed zeros, huge, subnormal, infinite, NaN or uniform; the last row
    zeros half the time, as in an augmented flow matrix."""
    def entry():
        r = rng.random()
        if r < 0.35:
            return rng.choice((0.0, -0.0))
        return rng.choice(_HOSTILE) if r < 0.45 else rng.uniform(-2.0, 2.0)

    shape = rng.choice(("upper", "permuted", "general"))
    m = [[entry() if shape == "general" or j > i else rng.choice((0.0, -0.0))
          for j in range(w)] for i in range(w)]
    if shape == "permuted":
        order = rng.sample(range(w), w)
        m = [[m[p][q] for q in order] for p in order]
    if rng.random() < 0.5:
        m[-1] = [rng.choice((0.0, -0.0)) for _ in range(w)]
    return m


def _hex(x):
    """`x` with every float as its hex string, so signed zeros and NaNs compare."""
    if isinstance(x, float):
        return x.hex()
    return tuple(map(_hex, x)) if isinstance(x, (tuple, list)) else x


def test_nilpotent_powers_match_the_dense_definition_on_hostile_matrices():
    # neither the zero-row skip nor the lack of an early exit on non-finite
    # entries may change a bit that a reader sees: the nonzero rows of every
    # power, and the Horner coefficients
    rng = random.Random(18)
    nilpotent = 0
    for _ in range(3000):
        w = rng.randint(1, 9)
        m = _random_square(rng, w)
        want = _dense_powers(m, w)
        got = ode._nilpotent_powers(m, w)
        assert (got is None) == (want is None), m
        if want is None:
            continue
        nilpotent += 1
        assert len(got) == len(want), m
        for p, q in zip(got, want):
            for row, expected in zip(p, q):
                assert any(row) == any(expected), m
                if any(row):
                    assert _hex(row) == _hex(expected), m
        assert _hex(ode._polynomial_rows(got, w - 1)) == _hex(ode._polynomial_rows(want, w - 1)), m
    assert nilpotent > 1000, nilpotent  # the draws reach both outcomes
    assert nilpotent < 2900, nilpotent
