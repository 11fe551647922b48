import math
import random

import pytest

from swhile.bigstep import BOTTOM, check_agreement, eval_big, eval_functional
from swhile.denotational import Discretization, denote
from swhile.entropy import EntropyExhausted, FinitePrefix, from_seed, split_seed
from swhile.parser import parse_file, parse_program
from swhile.ode import EXACT, RungeKutta4
from swhile.measure import XPoint
from swhile.smallstep import Config, Err, Normal, OutOfFuel, TimeStop, _close, run_to_terminal
from swhile.store import make_store
from swhile.syntax import Seq

from genprog import gen_program, gen_store, gen_table
from progpath import program_files

WALKTHROUGH = "x := 0 ; while tt { x++ ; wait 1 }"

# Fuels that cut fuzzed runs at many different points (over half of them
# at fuel 1, a quarter at 3), and 200, which cuts few besides endless loops.
FUELS = (1, 2, 3, 5, 8, 13, 21, 200)


def test_walkthrough_big_step():
    program, _ = parse_program(WALKTHROUGH)
    result = eval_big(Config(program, (5.0,), 1.5, from_seed(0)), fuel=100)
    assert result == TimeStop((2.0,))


def test_sampling_rule():
    program, _ = parse_program("x := unif(0, 1)")
    src = FinitePrefix((0.7, 0.1))
    result = eval_big(Config(program, (0.0,), 2.0, src), fuel=10)
    assert result == Normal((0.7,), 2.0, FinitePrefix((0.7, 0.1), 1))


def test_negative_duration_is_err():
    program, _ = parse_program("d := 0 - 1 ; wait d")
    assert eval_big(Config(program, (0.0,), 5.0, from_seed(0))) == Err()


def test_recorded_steps_number_small_step_transitions():
    rng = random.Random(4242)
    compared = 0
    for _ in range(300):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=4)
        config = Config(program, gen_store(rng, table), rng.choice((0.0, 0.5, 1.5, 3.0)),
                        from_seed(rng.randrange(2 ** 32)))
        method = rng.choice((EXACT, RungeKutta4(0.1)))
        segments = []
        big = eval_big(config, 200, method, segments)
        assert eval_big(config, 200, method) == big
        configs = []
        small, steps, _ = _close(config, 10 ** 4, method, configs.append)
        if isinstance(big, OutOfFuel) or isinstance(small, OutOfFuel):
            continue
        *flows, (_, _, _, last_step) = segments
        assert last_step == steps
        for block, entry, _, step in flows:
            # the configuration the small-step relation steps at that count
            before = configs[step - 1]
            node = before.program
            while type(node) is Seq:
                node = node.first
            assert node == block
            assert before.store == entry
        compared += 1
    assert compared > 200


def test_fuel_cut_inside_a_loop_is_one_outcome():
    # the run takes 8 steps, so fuel 3 cuts it before its second guard
    # test; the functional semantics needs Kleene index 4 for the three
    # unfoldings, so at index 3 it is Bottom, which a cut leaves unchecked
    program, _ = parse_program("x := 0 ; while x <= 2 do { x++ }")
    config = Config(program, (0.0,), 1.0, from_seed(0))
    assert eval_big(config, 3) == run_to_terminal(config, 3) == OutOfFuel(3)
    assert check_agreement(program, (0.0,), 1.0, from_seed(0), fuel=3).ok


def _outcome(evaluate, *args):
    """The evaluator's result, with a dry source as one more outcome."""
    try:
        return evaluate(*args)
    except EntropyExhausted:
        return EntropyExhausted


def test_big_step_equals_small_step_at_every_fuel():
    # no fuel cut is exempt: both count small-step transitions
    rng = random.Random(1618)
    cuts = dry = 0
    for _ in range(300):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=4, allow_exp=True)
        store = gen_store(rng, table)
        t = rng.choice((0.0, 0.25, 1.0, 3.0))
        method = rng.choice((None, EXACT, RungeKutta4(0.1)))
        sources = (from_seed(rng.randrange(2 ** 32)),
                   FinitePrefix(tuple(rng.random() for _ in range(rng.randrange(4)))))
        for src in sources:
            config = Config(program, store, t, src)
            for fuel in FUELS:
                small = _outcome(run_to_terminal, config, fuel, method)
                assert _outcome(eval_big, config, fuel, method) == small
                assert _outcome(eval_big, config, fuel, method, []) == small
                cuts += isinstance(small, OutOfFuel)
                dry += small is EntropyExhausted
    assert cuts > 500 and dry > 100


def test_functional_walkthrough():
    program, _ = parse_program(WALKTHROUGH)
    result = eval_functional(program, (5.0,), 1.5, from_seed(0), fuel=2)
    assert result == TimeStop((2.0,))


def test_functional_zero_fuel_is_bottom_even_on_false_guards():
    # approximant 0 is bottom everywhere, before the guard is consulted
    program, _ = parse_program("x := 1 ; while x <= 0 { x++ }")
    assert eval_functional(program, (0.0,), 1.0, from_seed(0), fuel=0) is BOTTOM
    assert eval_functional(program, (0.0,), 1.0, from_seed(0), fuel=1) == Normal(
        (1.0,), 1.0, from_seed(0)
    )


def test_functional_error_is_bottom():
    program, _ = parse_program("x := 1/0")
    assert eval_functional(program, (0.0,), 1.0, from_seed(0), fuel=5) is BOTTOM


# Each row errs at one construct, so every evaluator meets it at its one
# error boundary (or, for the negative duration, at its explicit check).
ERRING = [
    ("x := 1 / 0", 5.0),
    ("x := 0 ; wait 1 / x", 5.0),
    ("x := 0 ; wait x - 1", 5.0),
    ("x := 1e308 ; x' = 1e308 for 10", 5.0),  # the time-stop flow overflows
    ("x := 1e308 ; x' = 1e308 for 10", 20.0),  # the full flow overflows
    ("x := 0 ; if 1 / x <= 1 then x := 1 else x := 2", 5.0),
    ("x := 0 ; while 1 / x <= 1 do { x := 1 }", 5.0),
]


@pytest.mark.parametrize("text, t", ERRING,
                         ids=["assign", "duration", "negative-duration", "stop-flow",
                              "full-flow", "if-guard", "while-guard"])
def test_every_evaluator_maps_an_error_to_its_outcome(text, t):
    program, table = parse_program(text)
    store = make_store(table)
    config = Config(program, store, t, from_seed(0))
    small, steps, _ = _close(config, 100)
    assert small == run_to_terminal(config) == eval_big(config) == Err()
    segments = []
    assert eval_big(config, segments=segments) == Err()
    assert segments[-1] == (None, None, None, steps)
    assert eval_functional(program, store, t, from_seed(0), 5) is BOTTOM
    kernel = denote(program, Discretization(2), 5)
    assert not kernel(XPoint(store, t)).support()
    assert check_agreement(program, store, t, from_seed(0)).ok


def test_functional_monotone_in_fuel():
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=3)
        store = gen_store(rng, table)
        t = rng.choice((0.0, 0.5, 1.5))
        src = FinitePrefix((0.25, 0.75) * 6)
        results = []
        for fuel in (1, 2, 4, 8):
            try:
                results.append(eval_functional(program, store, t, src, fuel))
            except Exception:
                results.append(None)
        defined = [r for r in results if r is not None and r is not BOTTOM]
        if not defined:
            continue
        first = defined[0]
        assert all(r == first for r in defined)
        # once defined, later approximants stay defined
        started = False
        for r in results:
            if r is not None and r is not BOTTOM:
                started = True
            elif started:
                assert r is None or r is not BOTTOM
        checked += 1
    assert checked > 60


def test_functional_entropy_use_matches_sampling_count():
    program, _ = parse_program("x := unif(0,1) ; y := unif(0,1) ; x := x + y")
    out = eval_functional(program, (0.0, 0.0), 1.0, FinitePrefix((0.25, 0.75)), fuel=1)
    assert isinstance(out, Normal)
    assert out.entropy.pos == 2
    from swhile.entropy import EntropyExhausted

    with pytest.raises(EntropyExhausted):
        eval_functional(program, (0.0, 0.0), 1.0, FinitePrefix((0.25,)), fuel=1)


def test_skip_equivalent_program_agrees_everywhere():
    program, _ = parse_program("x := x")
    report = check_agreement(program, (3.5,), 2.0, from_seed(7), fuel=10)
    assert report.ok
    assert report.checked >= 2


def test_divergent_loop_is_consistent_not_a_violation():
    program, _ = parse_program("x := 0 ; while tt { x := x }")
    report = check_agreement(program, (0.0,), 1.0, from_seed(0), fuel=50)
    assert report.ok
    assert report.skipped_fuel >= 1


def test_agreement_on_example_corpus():
    # every corpus program, five time instants, ten seeds: no violations
    programs = program_files()
    assert programs
    times = (0.0, 0.5, 1.5, 2 * math.sqrt(3), 5.0)
    failures = []
    for path in programs:
        program, table = parse_file(path)
        store = make_store(table)
        for t in times:
            for i in range(10):
                src = from_seed(split_seed(54321, i))
                report = check_agreement(program, store, t, src, fuel=10 ** 4)
                if not report.ok:
                    failures.append((path, t, i, report.violations))
    assert failures == []


def test_agreement_on_fuzzed_programs():
    # at fuel 100 and at the small fuels, where cuts fall inside loops
    rng = random.Random(2718)
    failures = []
    for i in range(1000):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=4, allow_exp=True)
        store = gen_store(rng, table)
        t = rng.choice((0.0, 0.25, 1.0, 3.0))
        src = FinitePrefix(tuple(rng.random() for _ in range(32)))
        for fuel in FUELS[:-1] + (100,):
            for source in (src, from_seed(split_seed(2718, i))):
                report = check_agreement(program, store, t, source, fuel=fuel)
                if not report.ok:
                    failures.append(report.violations)
    assert failures == []


def test_report_json_shape():
    program, _ = parse_program("x := 1")
    report = check_agreement(program, (0.0,), 1.0, from_seed(0), fuel=10)
    import json

    payload = json.loads(report.to_json())
    assert payload["ok"] is True
    assert payload["violation_count"] == 0
