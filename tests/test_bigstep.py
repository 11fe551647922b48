import math
import random

import pytest

from swhile.bigstep import BOTTOM, check_agreement, eval_big, eval_functional
from swhile.entropy import FinitePrefix, from_seed, split_seed
from swhile.parser import parse_file, parse_program
from swhile.ode import EXACT, RungeKutta4
from swhile.smallstep import Config, Err, Normal, OutOfFuel, TimeStop, _close
from swhile.store import make_store
from swhile.syntax import Seq

from genprog import gen_program, gen_store, gen_table
from progpath import program_files

WALKTHROUGH = "x := 0 ; while tt { x++ ; wait 1 }"


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
        small, steps, configs, _ = _close(config, 10 ** 4, method, keep_trace=True)
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
    rng = random.Random(2718)
    failures = []
    for _ in range(1000):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=4, allow_exp=True)
        store = gen_store(rng, table)
        t = rng.choice((0.0, 0.25, 1.0, 3.0))
        src = FinitePrefix(tuple(rng.random() for _ in range(32)))
        report = check_agreement(program, store, t, src, fuel=100)
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
