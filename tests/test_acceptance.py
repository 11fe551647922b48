"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just printed.
Statistical bounds are cross-checked against independent numpy reference
samplers inside the same test before the interpreter's numbers are held
to them.
"""

import math
import random
import time

import numpy as np

from swhile.bigstep import check_agreement, eval_big, eval_functional
from swhile.denotational import Discretization, adequacy_check, denote
from swhile.entropy import FinitePrefix, PrngStream, from_seed, split_seed
from swhile.measure import DiscMeasure, EPoint, XPoint, dirac, kleisli_extend, tv_distance
from swhile.montecarlo import (
    TimeGrid,
    moments,
    probability_over_time,
    run_ensemble,
    sample_trajectory,
)
from swhile.ode import RungeKutta4
from swhile.parser import parse_bool_expr, parse_file, parse_program
from swhile.smallstep import Config, Normal, TimeStop, run_to_terminal
from swhile.store import make_store
from swhile.syntax import Assign, BoolLit, Call, DiffBlock, If, Leq, Lit, Sample, Seq, Var, While

from genprog import gen_program, gen_store, gen_table
from progpath import PROGRAMS

WALKTHROUGH = "x := 0 ; while tt { x++ ; wait 1 }"

RANDOM_WALK_SMALL = """
n := 2 ;
x := 0 ; c := 0 ;
while c <= n do {
  bernoulli(1/2, x++, x--) ;
  c++
} ;
x := x / sqrt(n)
"""


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")
    assert ok, detail


def best_of(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_walkthrough_exactness():
    program, _ = parse_program(WALKTHROUGH)
    store, t = (7.0,), 1.5
    expected = TimeStop((2.0,))

    small = run_to_terminal(Config(program, store, t, from_seed(1)))
    big = eval_big(Config(program, store, t, from_seed(1)), fuel=100)
    fun = eval_functional(program, store, t, from_seed(1), fuel=6)
    denoted = denote(program, Discretization(2), max_unfold=6)(XPoint(store, t))

    exact = (
        small == expected
        and big == expected
        and fun == expected
        and denoted == DiscMeasure({EPoint((2.0,)): 1})
    )
    timings = [
        best_of(lambda: run_to_terminal(Config(program, store, t, from_seed(1)))),
        best_of(lambda: eval_big(Config(program, store, t, from_seed(1)), fuel=100)),
        best_of(lambda: eval_functional(program, store, t, from_seed(1), fuel=6)),
        best_of(lambda: denote(program, Discretization(2), max_unfold=6)(XPoint(store, t))),
    ]
    fast_enough = max(timings) < 1e-3
    report(
        1,
        exact and fast_enough,
        f"walkthrough at t=1.5 gives x=2 in all four semantics, slowest "
        f"evaluation {max(timings) * 1e6:.0f} us",
    )


def test_criterion_02_positioning_exactness():
    program, table = parse_file(PROGRAMS / "positioning_exact.swl")
    t = 2 * math.sqrt(3)

    # analytic double-integrator oracle: accelerate tau then brake tau
    tau = math.sqrt(3)
    p1, v1 = tau * tau / 2, tau
    p2 = p1 + v1 * tau - tau * tau / 2
    v2 = v1 - tau
    assert abs(p2 - 3.0) < 1e-9 and abs(v2) < 1e-9  # oracle sanity

    def evaluate():
        return run_to_terminal(Config(program, make_store(table), t, from_seed(1)))

    result = evaluate()
    ok = (
        isinstance(result, Normal)
        and abs(result.store[table.index("p")] - 3.0) < 1e-9
        and abs(result.store[table.index("v")]) < 1e-9
    )
    elapsed = best_of(evaluate)
    report(
        2,
        ok and elapsed < 1e-3,
        f"positioning ends at p={result.store[table.index('p')]!r}, "
        f"v={result.store[table.index('v')]!r} in {elapsed * 1e6:.0f} us",
    )


def _exhaustive_corpus():
    x, y = Var(0, "x"), Var(1, "y")
    atoms = [
        Sample(x),
        Assign(x, Call("+", (y, Lit(1.0)))),
        Assign(y, Lit(-2.0)),
        DiffBlock((Lit(1.0), Lit(0.0)), y),
    ]
    bools = [BoolLit(True), Leq(x, Lit(0.5)), Leq(Call("/", (Lit(1.0), y)), x)]
    level1 = list(atoms)
    level2 = list(level1)
    level2 += [Seq(p, q) for p in level1 for q in level1]
    level2 += [If(b, p, q) for b in bools for p in level1 for q in level1]
    level2 += [While(b, p) for b in bools for p in level1]
    level3 = list(level2)
    level3 += [Seq(p, q) for p in level2 for q in level2]
    level3 += [If(b, p, q) for b in bools for p in level2 for q in level2]
    level3 += [While(b, p) for b in bools for p in level2]
    return level3


def test_criterion_03_semantics_agreement():
    t0 = time.perf_counter()
    corpus = _exhaustive_corpus()
    assert len(corpus) > 25000
    store = (1.0, 0.0)
    times = (0.0, 0.5, 1.0, 2.0)
    checked = skipped = 0
    violations = []
    for program in corpus:
        for t in times:
            # grow entropy prefixes only as draws are actually demanded
            stack = [()]
            while stack:
                prefix = stack.pop()
                rep = check_agreement(program, store, t, FinitePrefix(prefix), fuel=60)
                if rep.skipped_entropy:
                    if len(prefix) < 3:
                        stack.extend(prefix + (a,) for a in (0.25, 0.75))
                    else:
                        skipped += 1
                    continue
                checked += rep.checked
                skipped += rep.skipped_fuel
                violations.extend(rep.violations)

    rng = random.Random(314159)
    fuzzed = 0
    while fuzzed < 10 ** 4:
        table = gen_table(rng)
        program = gen_program(rng, table, depth=4, allow_exp=True)
        fstore = gen_store(rng, table)
        t = rng.choice((0.0, 0.25, 1.0, 3.0))
        src = FinitePrefix(tuple(rng.random() for _ in range(32)))
        rep = check_agreement(program, fstore, t, src, fuel=120)
        violations.extend(rep.violations)
        fuzzed += 1
    elapsed = time.perf_counter() - t0
    report(
        3,
        not violations and elapsed < 60,
        f"{len(corpus)} exhaustive programs x {len(times)} times plus {fuzzed} "
        f"fuzz cases, {checked} comparisons, {skipped} fuel/entropy skips, "
        f"{len(violations)} violations in {elapsed:.1f}s",
    )


def test_criterion_04_adequacy_on_example_programs():
    t0 = time.perf_counter()
    cases = [
        ("random-walk(n=2)", parse_program(RANDOM_WALK_SMALL), (0.0, 0.5, 1.0, 1.5, 2.0)),
        ("ctrw", parse_file(PROGRAMS / "ctrw.swl"), (0.0, 0.3, 0.7, 1.1, 1.4)),
        ("ball", parse_file(PROGRAMS / "ball.swl"), (0.0, 0.3, 0.7, 1.1, 1.4)),
        ("brownian", parse_file(PROGRAMS / "brownian.swl"), (0.0, 0.2, 0.4, 0.6, 0.8)),
        ("positioning", parse_file(PROGRAMS / "positioning.swl"), (0.0, 1.0, 2.0, 3.0, 5.0)),
        ("cruise", parse_file(PROGRAMS / "cruise_exponential.swl"), (0.0, 1.0, 2.0, 3.0, 4.0)),
    ]
    worst = 0.0
    for _, (program, table), times in cases:
        store = make_store(table)
        for t in times:
            check = adequacy_check(program, dirac(XPoint(store, t)), Discretization(2), max_unfold=6)
            assert check.passed
            worst = max(worst, check.tv)
    elapsed = time.perf_counter() - t0
    report(
        4,
        worst == 0 and elapsed < 120,
        f"six example programs, 5-point grids, k=2, N=6, exact weights: worst tv "
        f"{worst!r} in {elapsed:.1f}s",
    )


def test_criterion_05_monad_and_measure_laws():
    from randmeasure import mixture, random_kernel, random_measure, random_point

    t0 = time.perf_counter()
    rng = random.Random(161803)
    failures = 0
    for i in range(1000):
        f, g = random_kernel(2 * i), random_kernel(2 * i + 1)
        mu = random_measure(rng, total=0.5)
        nu = random_measure(rng, total=0.5)
        pt = random_point(rng)
        extended_f = kleisli_extend(f)
        # unit laws
        if isinstance(pt, XPoint) and tv_distance(extended_f(dirac(pt)), f(pt)) > 1e-12:
            failures += 1
        if kleisli_extend(dirac)(mu) != mu:
            failures += 1
        # associativity
        lhs = extended_f(kleisli_extend(g)(mu))
        rhs = kleisli_extend(lambda q: extended_f(g(q)))(mu)
        if tv_distance(lhs, rhs) > 1e-12:
            failures += 1
        # linearity
        a, b = rng.uniform(0, 0.5), rng.uniform(0, 0.5)
        lin_l = extended_f(mixture((a, mu), (b, nu)))
        lin_r = mixture((a, extended_f(mu)), (b, extended_f(nu)))
        if tv_distance(lin_l, lin_r) > 1e-12:
            failures += 1
        # mass contraction
        if extended_f(mu).mass() > mu.mass() + 1e-12:
            failures += 1
    elapsed = time.perf_counter() - t0
    report(
        5,
        failures == 0 and elapsed < 10,
        f"unit/associativity/linearity/contraction on 1000 randomized "
        f"kernels and measures within 1e-12, {failures} failures in {elapsed:.1f}s",
    )


def test_criterion_06_random_walk_central_limit():
    t0 = time.perf_counter()
    # independent oracle: the walk is a sum of 101 fair +-1 steps / sqrt(100)
    oracle = np.random.default_rng(7)
    flips = oracle.binomial(101, 0.5, size=5000)
    reference = (2.0 * flips - 101.0) / math.sqrt(100.0)
    assert abs(float(reference.mean())) < 0.1
    assert 0.85 < float(reference.std(ddof=1)) < 1.15

    program, table = parse_file(PROGRAMS / "random_walk.swl")
    grid = TimeGrid.from_times((0.0, 1.0))
    ensemble = run_ensemble(program, table, make_store(table), grid, runs=5000, base_seed=424242)
    stats = moments(ensemble, "x", 0.0)
    elapsed = time.perf_counter() - t0
    ok = stats.count == 5000 and abs(stats.mean) < 0.1 and 0.85 < stats.std < 1.15
    report(
        6,
        ok and elapsed < 30,
        f"random walk n=100, 5000 runs: mean={stats.mean:.4f}, "
        f"std={stats.std:.4f} in {elapsed:.1f}s",
    )


def test_criterion_07_ctrw_jump_rate():
    t0 = time.perf_counter()
    # independent renewal oracle: jump m happens at the sum of m-1 uniform
    # waits; count jumps with arrival time <= 5
    oracle = np.random.default_rng(11)
    counts = []
    for _ in range(2000):
        total, jumps = 0.0, 1
        while True:
            total += float(oracle.uniform())
            if total > 5.0:
                break
            jumps += 1
        counts.append(jumps)
    assert 8.5 < float(np.mean(counts)) < 11.5

    program, table = parse_file(PROGRAMS / "ctrw_counting.swl")
    grid = TimeGrid.from_times((0.0, 5.0))
    ensemble = run_ensemble(program, table, make_store(table), grid, runs=2000, base_seed=77)
    stats = moments(ensemble, "c", 5.0)
    elapsed = time.perf_counter() - t0
    ok = stats.count == 2000 and 8.5 < stats.mean < 11.5
    report(
        7,
        ok and elapsed < 30,
        f"ctrw over [0,5], 2000 runs: mean jump count {stats.mean:.3f} "
        f"(oracle {float(np.mean(counts)):.3f}) in {elapsed:.1f}s",
    )


def _sampler_values(source: str, variable: str, draws_per_run: int, runs: int):
    program, table = parse_program(source)
    index = table.index(variable)
    store = make_store(table)
    values = np.empty(runs)
    for i in range(runs):
        src = PrngStream(991, counter=i * draws_per_run)
        result = run_to_terminal(Config(program, store, 0.0, src))
        assert isinstance(result, Normal)
        values[i] = result.store[index]
    return values


def test_criterion_08_desugared_sampler_distributions():
    t0 = time.perf_counter()
    n = 10 ** 5
    # reference sampler confirms each tolerance before the interpreter runs
    ref = np.random.default_rng(3)
    assert abs(float(ref.uniform(2, 4, n).mean()) - 3.0) < 0.02
    assert abs(float(ref.exponential(0.5, n).mean()) - 0.5) < 0.01
    gaussian = ref.standard_normal(n)
    assert abs(float(gaussian.mean())) < 0.02 and abs(float(gaussian.std()) - 1.0) < 0.02

    uniform = _sampler_values("x := unif(2, 4)", "x", 1, n)
    ok_uniform = abs(float(uniform.mean()) - 3.0) < 0.02
    exponential = _sampler_values("x := exp(2)", "x", 1, n)
    ok_exponential = abs(float(exponential.mean()) - 0.5) < 0.01
    normal = _sampler_values("x := normal(0, 1)", "x", 2, n)
    ok_normal = (
        abs(float(normal.mean())) < 0.02 and abs(float(normal.std(ddof=1)) - 1.0) < 0.02
    )
    elapsed = time.perf_counter() - t0
    report(
        8,
        ok_uniform and ok_exponential and ok_normal and elapsed < 10,
        f"unif(2,4) mean {float(uniform.mean()):.4f}, exp(2) mean "
        f"{float(exponential.mean()):.4f}, normal(0,1) mean {float(normal.mean()):.4f} "
        f"std {float(normal.std(ddof=1)):.4f} over {n} draws each in {elapsed:.1f}s",
    )


def test_criterion_09_qualitative_figure_properties():
    # figure traces depend on unpublished seeds; assert their shapes instead
    program, table = parse_file(PROGRAMS / "brownian.swl")
    grid = TimeGrid.regular(0.0, 5.0, 0.5)
    ensemble = run_ensemble(program, table, make_store(table), grid, runs=100, base_seed=5150)
    early = moments(ensemble, "p", 1.0)
    late = moments(ensemble, "p", 5.0)
    spreading = late.std > early.std

    cruise, cruise_table = parse_file(PROGRAMS / "cruise.swl")
    cruise_grid = TimeGrid.regular(0.0, 40.0, 0.5)
    deterministic = sample_trajectory(cruise, make_store(cruise_table), cruise_grid, seed=1)
    p_i = cruise_table.index("p")
    pl_i = cruise_table.index("pl")
    never_collides = all(pt.store[p_i] < pt.store[pl_i] for pt in deterministic.points)

    noisy, noisy_table = parse_file(PROGRAMS / "cruise_exponential.swl")
    noisy_grid = TimeGrid.regular(0.0, 30.0, 1.0)
    noisy_ens = run_ensemble(
        noisy, noisy_table, make_store(noisy_table), noisy_grid, runs=50, base_seed=60
    )
    series = probability_over_time(noisy_ens, parse_bool_expr("pl <= p", noisy_table))
    starts_safe = series.fractions[0] == 0.0
    well_formed = all(0.0 <= f <= 1.0 for f in series.fractions)

    report(
        9,
        spreading and never_collides and starts_safe and well_formed,
        f"brownian std grows {early.std:.2f}->{late.std:.2f}; deterministic "
        f"cruise never collides; stochastic cruise collision fraction starts at 0",
    )


def test_criterion_10_fast_canonical_agreement():
    t0 = time.perf_counter()
    grid = TimeGrid.regular(0.0, 5.0, 0.5)
    mismatches = []
    for path in sorted(PROGRAMS.glob("*.swl")):
        program, table = parse_file(path)
        store = make_store(table)
        for i in range(10):
            seed = split_seed(8080, i)
            fast = sample_trajectory(program, store, grid, seed=seed, fast=True)
            slow = sample_trajectory(program, store, grid, seed=seed, fast=False)
            if fast != slow:  # affine flows: exact equality
                mismatches.append((path.name, seed))

    # one non-affine system exercises the RK4 path at 1e-9 tolerance
    pendulum, pend_table = parse_program(
        "theta := 1 ; om := 0 ; theta' = om, om' = -sin(theta) for 10"
    )
    method = RungeKutta4(0.01)
    for i in range(10):
        seed = split_seed(9090, i)
        fast = sample_trajectory(
            pendulum, make_store(pend_table), grid, seed=seed, fast=True, flow_method=method
        )
        slow = sample_trajectory(
            pendulum, make_store(pend_table), grid, seed=seed, fast=False, flow_method=method
        )
        for a, b in zip(fast.points, slow.points):
            if type(a) is not type(b) or any(
                abs(x - y) > 1e-9 for x, y in zip(a.store, b.store)
            ):
                mismatches.append(("pendulum", seed))
    elapsed = time.perf_counter() - t0
    report(
        10,
        not mismatches and elapsed < 30,
        f"fast vs canonical trajectories identical across the corpus and an "
        f"RK4 pendulum, 10 seeds each, in {elapsed:.1f}s",
    )
