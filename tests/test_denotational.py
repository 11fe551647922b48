import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from swhile import denotational, ode
from swhile.denotational import (
    BranchExplosion,
    Discretization,
    _push,
    adequacy_check,
    denote,
    enumerate_operational,
)
from swhile.bigstep import BOTTOM, eval_functional
from swhile.entropy import Enumerator, EntropyExhausted, FinitePrefix
from swhile.measure import DiscMeasure, EPoint, XPoint, dirac, kleisli_extend, tv_distance
from swhile.parser import parse_program
from swhile.smallstep import Normal
from swhile.store import Undefined, eval_bool, eval_expr, make_store, update
from swhile.syntax import Assign, Call, DiffBlock, If, Lit, Sample, Seq, Var, While

from genprog import gen_program, gen_store, gen_table
from progpath import PROGRAMS

WALKTHROUGH = "x := 0 ; while tt { x++ ; wait 1 }"


def test_discretization_atoms_are_midpoints():
    d = Discretization(2)
    assert tuple(d) == (0.25, 0.75)
    d4 = Discretization(4)
    assert tuple(d4) == (0.125, 0.375, 0.625, 0.875)
    with pytest.raises(ValueError):
        Discretization(0)


def test_discretization_is_the_sequence_of_its_midpoints(monkeypatch):
    # test_cli checks that a huge k costs no memory, in a bounded process
    for k in (1, 2, 3, 7, 100):
        want = tuple((2 * i + 1) / (2 * k) for i in range(k))
        d = Discretization(k)
        assert tuple(d) == want and [d[i] for i in range(k)] == list(want)
        assert len(d) == k
        for i in (k, -1):
            with pytest.raises(IndexError):
                d[i]
        assert d == Discretization(k) and hash(d) == hash(Discretization(k))
        assert d != Discretization(k + 1)
    source = Enumerator(Discretization(7), (3, 0, 6))
    drawn = []
    for _ in range(3):
        a, source = source.draw()
        drawn.append(a)
    assert drawn == [7 / 14, 1 / 14, 13 / 14]
    with pytest.raises(EntropyExhausted):
        source.draw()

    def no_atoms(*_):
        raise AssertionError("an atom was built")

    monkeypatch.setattr(Discretization, "__iter__", no_atoms)
    monkeypatch.setattr(Discretization, "__getitem__", no_atoms)
    huge = Discretization(10 ** 8)
    assert hash(huge) == hash(Discretization(10 ** 8)) and huge == Discretization(10 ** 8)


def test_rational_mode_weights():
    # each of k = 3 atoms carries exactly 1/3, a weight no float holds
    program, _ = parse_program("x := unif(0, 1)")
    out = denote(program, Discretization(3), max_unfold=1)(XPoint((0.0,), 1.0))
    assert [w for _, w in out.items()] == [Fraction(1, 3)] * 3
    assert all(type(w) is Fraction for _, w in out.items()) and out.mass() == 1


def test_sampling_clause_splits_evenly():
    program, _ = parse_program("x := unif(0, 1)")
    kernel = denote(program, Discretization(2), max_unfold=1)
    out = kernel(XPoint((0.0,), 2.0))
    assert out == DiscMeasure({XPoint((0.25,), 2.0): 0.5, XPoint((0.75,), 2.0): 0.5})


def test_walkthrough_denotation_is_unit_mass_on_two():
    program, _ = parse_program(WALKTHROUGH)
    kernel = denote(program, Discretization(2), max_unfold=2)
    out = kernel(XPoint((7.0,), 1.5))
    assert out == DiscMeasure({EPoint((2.0,)): 1})


def test_truncation_loses_mass():
    program, _ = parse_program(WALKTHROUGH)
    kernel = denote(program, Discretization(2), max_unfold=1)
    assert kernel(XPoint((7.0,), 1.5)).mass() == 0


def test_undefined_assignment_contributes_zero_mass():
    program, _ = parse_program("x := 1/0")
    kernel = denote(program, Discretization(2), max_unfold=1)
    assert len(kernel(XPoint((0.0,), 1.0))) == 0


def test_unit_chain_through_extension():
    # a pure termination measure passes through any program's extension
    program, _ = parse_program(WALKTHROUGH)
    kernel = denote(program, Discretization(2), max_unfold=2)
    mu = DiscMeasure({EPoint((2.0,)): 1})
    assert kleisli_extend(kernel)(mu) == mu


def test_enumerate_deterministic_program_is_dirac():
    program, _ = parse_program("x := 3 ; wait 1")
    out = enumerate_operational(program, (0.0,), 0.5, Discretization(2), max_unfold=1)
    assert out == DiscMeasure({EPoint((3.0,)): 1.0})


def test_enumerate_bernoulli_splits_branches():
    program, table = parse_program("x := 0 ; bernoulli(1/2, x := 1, x := 2)")
    out = enumerate_operational(program, (0.0, 0.0), 2.0, Discretization(2), max_unfold=1)
    # atoms 0.25 (<= 1/2, then-branch) and 0.75 (else-branch) split evenly
    assert out == DiscMeasure(
        {
            XPoint((1.0, 0.25), 2.0): 0.5,
            XPoint((2.0, 0.75), 2.0): 0.5,
        }
    )


def test_enumerate_walkthrough_for_any_arity():
    program, _ = parse_program(WALKTHROUGH)
    for k in (1, 2, 3):
        out = enumerate_operational(program, (7.0,), 1.5, Discretization(k), max_unfold=3)
        assert out == DiscMeasure({EPoint((2.0,)): 1.0})


def test_branch_cap_raises():
    program, _ = parse_program("x := 0 ; while tt { x := unif(0,1) ; wait 0 }")
    with pytest.raises(BranchExplosion):
        enumerate_operational(program, (0.0,), 1.0, Discretization(2), max_unfold=30, branch_cap=10)


def test_adequacy_straightline_exact_zero():
    program, table = parse_program("x := 1 ; y := x + 1 ; wait 2")
    mu0 = dirac(XPoint(make_store(table), 1.0))
    report = adequacy_check(program, mu0, Discretization(2), max_unfold=1)
    assert report.tv == 0.0
    assert report.passed


def test_adequacy_with_undefined_guard_loses_equal_mass():
    program, table = parse_program("x := 0 ; if 1/x <= 1 then x := 1 else x := 2")
    mu0 = dirac(XPoint(make_store(table), 1.0))
    report = adequacy_check(program, mu0, Discretization(2), max_unfold=1)
    assert report.tv == 0.0
    assert report.operational_mass == 0.0
    assert report.denotational_mass == 0.0


def test_adequacy_mixed_initial_measure():
    program, table = parse_program("x := unif(0,1) ; wait x")
    e = EPoint((9.0,))
    x = XPoint((0.0,), 0.5)
    mu0 = DiscMeasure({e: 0.25, x: 0.75})
    report = adequacy_check(program, mu0, Discretization(2), max_unfold=1)
    assert report.passed
    assert report.tv == 0.0


def test_adequacy_extends_the_enumeration_kernel_once(monkeypatch):
    calls = []

    def counting(kernel):
        calls.append(kernel)
        return kleisli_extend(kernel)

    monkeypatch.setattr(denotational, "kleisli_extend", counting)
    program, table = parse_program("x := unif(0,1) ; wait x")
    mu0 = DiscMeasure({XPoint((0.0,), 0.5): Fraction(1, 2), XPoint((5.0,), 0.5): Fraction(1, 2)})
    report = adequacy_check(program, mu0, Discretization(2), max_unfold=1)
    assert report.tv == 0 and len(calls) == 1


def test_adequacy_merges_an_input_e_point_with_an_enumerated_one(monkeypatch):
    # x := 0.75 waits past t = 0.5 and stops at EPoint((0.75,)), the point
    # the input measure already holds: the operational side must add them
    measures = []

    def recording(mu, nu):
        measures.append((mu, nu))
        return tv_distance(mu, nu)

    monkeypatch.setattr(denotational, "tv_distance", recording)
    program, table = parse_program("x := unif(0,1) ; wait x")
    e = EPoint((0.75,))
    mu0 = DiscMeasure({e: Fraction(1, 4), XPoint((0.0,), 0.5): Fraction(1, 2),
                       XPoint((5.0,), 0.5): Fraction(1, 4)})
    report = adequacy_check(program, mu0, Discretization(2), max_unfold=1)
    assert report.tv == 0 and report.passed
    (operational, denotational_side), = measures
    # 1/4 from the input, plus half of each X-point's mass: 1/4 + 1/4 + 1/8
    want = Fraction(1, 4) + Fraction(1, 2) * Fraction(1, 2) + Fraction(1, 4) * Fraction(1, 2)
    assert operational.weight(e) == denotational_side.weight(e) == want == Fraction(5, 8)
    assert operational.weight(XPoint((0.25,), 0.25)) == Fraction(3, 8)
    assert report.operational_support == 2 and report.operational_mass == 1.0


def test_adequacy_rational_mode_is_exactly_zero():
    program, table = parse_program("x := 0 ; bernoulli(1/2, x++, x--)")
    mu0 = dirac(XPoint(make_store(table), 1.0))
    report = adequacy_check(program, mu0, Discretization(2), max_unfold=2)
    assert report.tv == 0
    assert report.passed


def test_kleene_approximants_increase_pointwise():
    rng = random.Random(404)
    d = Discretization(2)
    checked = 0
    for _ in range(60):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=3)
        pt = XPoint(gen_store(rng, table), rng.choice((0.0, 0.5, 1.5)))
        previous = None
        for i in range(4):
            current = denote(program, d, max_unfold=i)(pt)
            if previous is not None:
                for point, w in previous.items():
                    assert current.weight(point) >= w
            previous = current
        checked += 1
    assert checked == 60


def test_enumeration_agrees_with_functional_prefix_runs():
    # spot-check: each enumerated branch corresponds to a finite-prefix run
    program, table = parse_program("x := unif(0,1) ; y := unif(0,1) ; x := x + y")
    d = Discretization(2)
    out = enumerate_operational(program, (0.0, 0.0), 1.0, d, max_unfold=1)
    assert out.mass() == 1
    total = {}
    for a in d:
        for b in d:
            run = eval_functional(program, (0.0, 0.0), 1.0, FinitePrefix((a, b)), fuel=1)
            assert isinstance(run, Normal)
            pt = XPoint(run.store, run.t)
            total[pt] = total.get(pt, 0) + 0.25
    assert tv_distance(out, DiscMeasure(total)) == 0


# The denotation as the clauses read: one kernel per node, built by
# recursion, a Seq as nested Kleisli extensions and a loop as per-point
# recursion over the Kleene index.  It is the reference that the frontier
# iteration in denotational._push is checked against.
def _denote_reference(program, disc, max_unfold, flow_method=None):
    t = type(program)
    if t is Assign:
        index, expr = program.var.index, program.expr

        def assign_kernel(pt):
            try:
                v = eval_expr(expr, pt.store)
            except Undefined:
                return DiscMeasure()
            return dirac(XPoint(update(pt.store, index, v), pt.t))

        return assign_kernel
    if t is Sample:
        index = program.var.index
        weight = Fraction(1, disc.k)

        def sample_kernel(pt):
            return DiscMeasure({XPoint(update(pt.store, index, a), pt.t): weight for a in disc})

        return sample_kernel
    if t is DiffBlock:
        duration = program.duration

        def diff_kernel(pt):
            try:
                d = eval_expr(duration, pt.store)
            except Undefined:
                return DiscMeasure()
            if d < 0.0:
                return DiscMeasure()
            try:
                if d > pt.t:
                    return dirac(EPoint(ode.flow(program, pt.store, pt.t, flow_method)))
                return dirac(XPoint(ode.flow(program, pt.store, d, flow_method), pt.t - d))
            except Undefined:
                return DiscMeasure()

        return diff_kernel
    if t is If:
        cond = program.cond
        then_kernel = _denote_reference(program.then_branch, disc, max_unfold, flow_method)
        else_kernel = _denote_reference(program.else_branch, disc, max_unfold, flow_method)

        def if_kernel(pt):
            try:
                guard = eval_bool(cond, pt.store)
            except Undefined:
                return DiscMeasure()
            return then_kernel(pt) if guard else else_kernel(pt)

        return if_kernel
    if t is Seq:
        first_kernel = _denote_reference(program.first, disc, max_unfold, flow_method)
        rest_extended = kleisli_extend(
            _denote_reference(program.rest, disc, max_unfold, flow_method))

        def seq_kernel(pt):
            return rest_extended(first_kernel(pt))

        return seq_kernel
    if t is While:
        cond = program.cond
        body_kernel = _denote_reference(program.body, disc, max_unfold, flow_method)

        def approximant(i, pt):
            if i == 0:
                return DiscMeasure()
            try:
                guard = eval_bool(cond, pt.store)
            except Undefined:
                return DiscMeasure()
            if not guard:
                return dirac(pt)
            return kleisli_extend(lambda q: approximant(i - 1, q))(body_kernel(pt))

        return lambda pt: approximant(max_unfold, pt)
    raise TypeError(f"not a program node: {program!r}")


def test_frontier_matches_the_recursive_reference_on_fuzzed_programs():
    rng = random.Random(6061)
    masses = set()
    for case in range(400):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=4)
        k = rng.choice((1, 2, 3))
        unfold = rng.randrange(5)
        pt = XPoint(gen_store(rng, table), rng.choice((0.0, 0.5, 1.5, 4.0)))
        disc = Discretization(k)
        got = denote(program, disc, unfold)(pt)
        assert got == _denote_reference(program, disc, unfold)(pt)
        m = got.mass()
        masses.add("zero" if m == 0 else "full" if m == 1 else "partial")
        if case % 4 == 0:
            # a mixed input measure: E-mass passes through, X-mass is pushed
            # as one frontier
            other = XPoint(gen_store(rng, table), rng.choice((0.0, 0.5, 1.5, 4.0)))
            mu = DiscMeasure({pt: Fraction(1, 2), other: Fraction(1, 4),
                              EPoint(gen_store(rng, table)): Fraction(1, 8)})
            want = kleisli_extend(_denote_reference(program, disc, unfold))(mu)
            assert _push(program, mu, disc, unfold, None) == want
    assert masses == {"zero", "partial", "full"}


def test_negative_zero_and_zero_stores_merge(monkeypatch):
    # both branches leave x equal to zero, with opposite signs; the frontier
    # holds one point afterwards, so the loop guard runs once per round
    program, table = parse_program(
        "b := unif(0, 1) ; if b <= 0.5 then x := 0 * -1 else x := 0 ; b := 0 ;"
        " while x <= 1 { x := x + 1 }")
    disc = Discretization(2)
    pt = XPoint((0.7, 0.7), 1.0)
    calls = []

    def counting(cond, store):
        calls.append(store)
        return eval_bool(cond, store)

    monkeypatch.setattr(denotational, "eval_bool", counting)
    got = denote(program, disc, 4)(pt)
    monkeypatch.undo()
    assert len(calls) == 2 + 3  # the If's two points, then three rounds
    assert calls[2] == (0.0, 0.0)
    assert got == DiscMeasure({XPoint((0.0, 2.0), 1.0): 1})
    assert got == _denote_reference(program, disc, 4)(pt)


def test_seq_of_500_assignments():
    x = Var(0, "x")
    bump = Assign(x, Call("+", (x, Lit(1.0))))
    left = right = Assign(x, Lit(0.0))
    for _ in range(500):
        left, right = Seq(left, bump), Seq(bump, right)
    disc = Discretization(2)
    assert denote(left, disc, 1)(XPoint((7.0,), 1.0)) == dirac(XPoint((500.0,), 1.0))
    assert denote(right, disc, 1)(XPoint((7.0,), 1.0)) == dirac(XPoint((0.0,), 1.0))


def test_loop_unfolded_2000_times():
    program, _ = parse_program("x := 0 ; while x <= 1000 { x++ }")
    out = denote(program, Discretization(2), 2000)(XPoint((0.0,), 1.0))
    assert out == DiscMeasure({XPoint((1001.0,), 1.0): 1})


def test_walk_of_18_flips_is_denoted_by_distinct_points():
    program, table = parse_program(
        "x := 0 ; c := 1 ; while c <= 18 { bernoulli(1/2, x++, x--) ; c++ }")
    disc = Discretization(2)
    start = time.perf_counter()
    out = denote(program, disc, 19)(XPoint(make_store(table), 1.0))
    elapsed = time.perf_counter() - start
    # x in -18, -16, ..., 18 with the last flip's draw: up (0.25) ends at
    # x >= -16, down (0.75) at x <= 16
    assert len(out) == 2 * 18 and out.mass() == 1
    assert out.weight(XPoint((18.0, 19.0, 0.25), 1.0)) == Fraction(1, 2 ** 18)
    assert elapsed < 1.0, elapsed


# The enumeration as it was before branches resumed at their fork: every
# path through the draw tree is run again from the start of the program.
# It is the reference that enumerate_operational is checked against.
def _enumerate_reference(program, store, t, disc, max_unfold,
                         branch_cap=denotational.DEFAULT_BRANCH_CAP, flow_method=None):
    weight = Fraction(1, disc.k)
    acc = {}
    stack = [()]
    explored = 0
    while stack:
        path = stack.pop()
        explored += 1
        if explored > branch_cap:
            raise BranchExplosion(explored, branch_cap)
        source = Enumerator(disc, path)
        try:
            out = eval_functional(program, store, t, source, max_unfold, flow_method)
        except EntropyExhausted:
            stack.extend(path + (i,) for i in reversed(range(disc.k)))
            continue
        if out is BOTTOM:
            continue
        pt = XPoint(out.store, out.t) if type(out) is Normal else EPoint(out.store)
        acc[pt] = acc.get(pt, 0) + weight ** len(path)
    return DiscMeasure(acc)


def _enumeration_outcome(enumerate_, *args):
    """The measure's items in order, or the count at which the cap fired."""
    try:
        return repr(list(enumerate_(*args).items()))
    except BranchExplosion as exc:
        return ("explosion", exc.explored)


def _fuzz_cases(seed, cases):
    """Seeded `genprog` cases: (program, store, t, k, unfold, cap)."""
    rng = random.Random(seed)
    for _ in range(cases):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=4)
        k = rng.choice((1, 2, 3))
        unfold = rng.randrange(5)
        store = gen_store(rng, table)
        t = rng.choice((0.0, 0.5, 1.5, 4.0))
        cap = rng.choice((3, 20, 100, None))
        yield program, store, t, k, unfold, cap


def _enumeration_differences(seed, cases):
    differences = []
    kinds = set()
    for case, (program, store, t, k, unfold, cap) in enumerate(_fuzz_cases(seed, cases)):
        args = (program, store, t, Discretization(k), unfold)
        if cap is not None:
            args += (cap,)
        got = _enumeration_outcome(enumerate_operational, *args)
        want = _enumeration_outcome(_enumerate_reference, *args)
        if got != want:
            differences.append(case)
        kinds.add("explosion" if type(want) is tuple else "measure")
    return differences, kinds


def test_resumed_enumeration_matches_the_replaying_reference():
    differences, kinds = _enumeration_differences(8181, 400)
    assert differences == []
    assert kinds == {"explosion", "measure"}


# `_push` on the cases of `_enumeration_differences`, one line per case and
# input measure: the case's point mass, then a mixed measure of two X-points
# and an E-point.  A line lists each output point's repr, its weight, written
# n/d, and its rank in the output's insertion order, sorted by repr.  Every
# line says "exact": true, as every weight is exact.  Rewrite the file from
# the code under test with `PYTHONPATH=src python tests/test_denotational.py`.
GOLDEN_DENOTE = Path(__file__).resolve().parent / "golden" / "denote" / "fuzz.jsonl"


def _denote_golden_lines():
    for case, (program, store, t, k, unfold, _) in enumerate(_fuzz_cases(8181, 400)):
        rng = random.Random(case)
        other = tuple(round(rng.uniform(-2.0, 2.0), 3) for _ in store)
        stopped = tuple(round(rng.uniform(-2.0, 2.0), 3) for _ in store)
        pt = XPoint(store, t)
        inputs = {"dirac": dirac(pt),
                  "fractions": DiscMeasure({pt: Fraction(1, 3),
                                            XPoint(other, rng.choice((0.5, 2.0))): Fraction(1, 5),
                                            EPoint(stopped): Fraction(1, 7)})}
        for name, mu in inputs.items():
            out = _push(program, mu, Discretization(k), unfold, None)
            points = sorted(([repr(q), f"{w.numerator}/{w.denominator}", rank]
                             for rank, (q, w) in enumerate(out.items())), key=lambda e: e[0])
            yield json.dumps({"case": case, "exact": True, "input": name, "points": points})


def test_denotation_matches_the_golden_on_fuzzed_programs():
    want = GOLDEN_DENOTE.read_text().splitlines()
    got = list(_denote_golden_lines())
    assert len(got) == len(want) == 800
    for g, w in zip(got, want):
        assert json.loads(g) == json.loads(w)


def _resume_states(program, store, t, disc, max_unfold):
    """The distinct (depth, resume state) pairs of the draw tree, found by
    replaying every path from the start as `_enumerate_reference` does; a
    state is compared by the structure of its work stack, not identity."""
    states = set()
    paths = [()]
    while paths:
        path = paths.pop()
        try:
            eval_functional(program, store, t, Enumerator(disc, path), max_unfold)
        except EntropyExhausted as exc:
            stack, store_at, t_at = exc.resume
            states.add((len(path), tuple(stack), store_at, t_at))
            paths.extend(path + (i,) for i in range(disc.k))
    return states


def test_each_resume_state_runs_once_per_atom(monkeypatch):
    # a walk of n flips has 2^(n+1) - 1 draw-tree nodes, but paths that
    # reach one store at one draw depth meet there: the walk runs the root,
    # then k runs per distinct resume state, each making exactly one
    # successful draw, its own atom
    draw = Enumerator.draw
    drawn = []

    def counting(self):
        value = draw(self)
        drawn.append(value[0])
        return value

    for n in (1, 4, 10):
        program, table = parse_program(
            f"x := 0 ; c := 1 ; while c <= {n} {{ bernoulli(1/2, x++, x--) ; c++ }}")
        disc = Discretization(2)
        store = make_store(table)
        explored = 1 + disc.k * len(_resume_states(program, store, 1.0, disc, n + 1))
        monkeypatch.setattr(Enumerator, "draw", counting)
        with pytest.raises(BranchExplosion) as info:
            enumerate_operational(program, store, 1.0, disc, n + 1, branch_cap=explored - 1)
        assert info.value.explored == explored
        drawn.clear()
        out = enumerate_operational(program, store, 1.0, disc, n + 1, branch_cap=explored)
        monkeypatch.undo()
        assert out.mass() == 1 and len(out) == 2 * n
        assert len(drawn) == explored - 1
        if n == 10:
            assert explored < 2 ** (n + 1) - 1


def test_a_tree_whose_paths_never_meet_counts_its_nodes():
    # ball's draws set d, which the flow then reads: no two paths meet, so
    # the walk runs each of the 17 nodes of the draw tree at t = 1 once, and
    # the cap fires where the path walk's does (at 6 for cap 5, as the CLI
    # reports)
    program, table = parse_program((PROGRAMS / "ball.swl").read_text())
    args = (program, make_store(table), 1.0, Discretization(2), 6)
    for enumerate_ in (enumerate_operational, _enumerate_reference):
        for cap in (5, 16):
            with pytest.raises(BranchExplosion) as info:
                enumerate_(*args, cap)
            assert info.value.explored == cap + 1
    assert enumerate_operational(*args, 17) == _enumerate_reference(*args, 17)


def test_stores_that_differ_in_the_sign_of_a_zero_merge():
    # the two paths through the If store x = -0.0 and x = 0.0 and meet at the
    # second draw; what follows reads x through *, sqrt, a guard and a flow
    program, table = parse_program(
        "b := unif(0, 1) ; if b <= 0.5 then x := 0 * -1 else x := 0 ; b := 0 ;"
        " u := unif(0, 1) ; y := x * u ; z := sqrt(x) ;"
        " if x <= 0 then w := 1 else w := 2 ; x' = 1, y' = x for u")
    store = make_store(table)
    for k in (2, 3):
        args = (program, store, 1.5, Discretization(k), 2)
        # the root, k runs to the meeting point, then k from it
        with pytest.raises(BranchExplosion) as info:
            enumerate_operational(*args, 2 * k)
        assert info.value.explored == 2 * k + 1
        got = enumerate_operational(*args)
        assert got == _enumerate_reference(*args) and len(got) == k


def test_states_in_different_loop_rounds_stay_apart():
    # after the first draw, atom 1/6 takes one round more than atom 1/2 to
    # reach the next draw, with the same store and the same nodes on the
    # stack: only the loop frame's index tells the states apart, and the
    # Kleene cut falls one round earlier for the first
    program, table = parse_program(
        "u := 2 ; x := 0 ; while x <= 0 { if u <= 0.5 then u := 2 else { u := unif(0, 1) ;"
        " if u <= 0.2 then u := u else { if u <= 0.6 then u := 2 else x := 1 } } }")
    disc = Discretization(3)
    for unfold in range(1, 7):
        args = (program, make_store(table), 1.0, disc, unfold)
        assert enumerate_operational(*args) == _enumerate_reference(*args)


def test_a_random_walk_unfolded_past_its_loop_keeps_all_its_mass():
    # random_walk's loop runs 101 rounds, so at --unfold 102 no mass is cut;
    # a walk over every draw sequence would need 2^101 leaves
    program, table = parse_program((PROGRAMS / "random_walk.swl").read_text())
    pt = XPoint(make_store(table), 1.5)
    disc = Discretization(2)
    start = time.perf_counter()
    operational = enumerate_operational(program, pt.store, pt.t, disc, 102)
    elapsed = time.perf_counter() - start
    denoted = denote(program, disc, 102)(pt)
    assert operational == denoted
    assert len(operational) == 202
    assert operational.mass() == denoted.mass() == 1
    assert elapsed < 5.0, elapsed


@pytest.mark.parametrize("cap", [0, -1])
def test_branch_cap_below_one_is_rejected(cap):
    # such a cap used to fire on the root, reported as a branch explosion;
    # adequacy_check gets an E-point, which never reaches the enumeration
    program, _ = parse_program("x := 0 ; wait 1")
    disc = Discretization(2)
    for call in (lambda: enumerate_operational(program, (0.0,), 1.0, disc, 2, cap),
                 lambda: adequacy_check(program, dirac(EPoint((0.0,))), disc, 2, cap)):
        with pytest.raises(ValueError, match="the branch cap must be at least 1"):
            call()


def test_negative_kleene_index_is_rejected():
    # denote's kernel used to run loop rounds without end for max_unfold < 0;
    # the program has no loop, so a missing check shows as no error, not a hang
    program, _ = parse_program("x := 0 ; wait 1")
    disc = Discretization(2)
    for call in (lambda: denote(program, disc, -1),
                 lambda: enumerate_operational(program, (0.0,), 1.0, disc, -1),
                 lambda: adequacy_check(program, dirac(EPoint((0.0,))), disc, -1)):
        with pytest.raises(ValueError, match="the Kleene index must be nonnegative"):
            call()


if __name__ == "__main__":
    GOLDEN_DENOTE.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_DENOTE.write_text("".join(line + "\n" for line in _denote_golden_lines()))
