import dataclasses
import json
import random

import pytest

from swhile import ode
from swhile.bigstep import eval_big
from swhile.cli import config_json
from swhile.entropy import EntropyExhausted, FinitePrefix, from_seed
from swhile.parser import parse_file, parse_program
from swhile.smallstep import (
    ERR,
    Config,
    Err,
    Normal,
    OutOfFuel,
    TimeStop,
    _close,
    run_to_terminal,
    step,
    trace,
)
from swhile.store import Undefined, eval_bool, eval_expr, update
from swhile.syntax import Assign, Call, DiffBlock, If, Lit, Sample, Seq, Var, While

from genprog import gen_program, gen_store, gen_table
from progpath import PROGRAMS


def cfg(source, store, t, entropy):
    program, table = parse_program(source)
    return Config(program, store, t, entropy), table


def test_sampling_consumes_stream_head():
    config, _ = cfg("x := unif(0, 1)", (0.0,), 3.0, FinitePrefix((0.7, 0.2)))
    out = step(config)
    assert isinstance(out, Config)
    assert out.program is None
    assert out.store == (0.7,)
    assert out.t == 3.0
    assert out.entropy == FinitePrefix((0.7, 0.2), 1)


def test_wait_longer_than_remaining_time_stops():
    from swhile.syntax import DiffBlock, Lit

    config = Config(DiffBlock((Lit(0.0),), Lit(1.0)), (4.0,), 0.5, from_seed(0))
    assert step(config) == TimeStop((4.0,))
    chained, _ = cfg("x := 4 ; wait 1", (0.0,), 0.5, from_seed(0))
    assert run_to_terminal(chained) == TimeStop((4.0,))


def test_undefined_assignment_errs():
    config, _ = cfg("x := 1/0", (0.0,), 1.0, from_seed(0))
    assert step(config) == Err()


def test_negative_duration_errs():
    config, _ = cfg("x := 0 - 2 ; wait x", (0.0,), 1.0, from_seed(0))
    assert run_to_terminal(config) == Err()


def test_walkthrough_chain_has_seven_configurations():
    config, _ = cfg("x := 0 ; while tt { x++ ; wait 1 }", (5.0,), 1.5, from_seed(9))
    configs, terminal = trace(config)
    assert terminal == TimeStop((2.0,))
    assert len(configs) == 7
    assert [c.store[0] for c in configs] == [5.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0]
    assert [c.t for c in configs] == [1.5, 1.5, 1.5, 1.5, 0.5, 0.5, 0.5]


def test_assignment_at_positive_time_is_normal():
    config, _ = cfg("x := 0", (7.0,), 5.0, from_seed(1))
    result = run_to_terminal(config)
    assert result == Normal((0.0,), 5.0, from_seed(1))


def test_zero_progress_loop_runs_out_of_fuel():
    config, _ = cfg("x := 0 ; while tt { x++ }", (0.0,), 1.0, from_seed(0))
    result = run_to_terminal(config, fuel=1000)
    assert isinstance(result, OutOfFuel)


def test_single_assignment_trace_length():
    config, _ = cfg("x := 2", (0.0,), 1.0, from_seed(0))
    configs, terminal = trace(config)
    assert len(configs) == 1
    assert isinstance(terminal, Normal)


def test_trace_length_bounded_by_fuel():
    config, _ = cfg("x := 0 ; while tt { x++ }", (0.0,), 1.0, from_seed(0))
    configs, terminal = trace(config, fuel=25)
    assert isinstance(terminal, OutOfFuel)
    assert len(configs) <= 26


def test_stepping_empty_stack_is_a_caller_error():
    with pytest.raises(ValueError):
        step(Config(None, (0.0,), 1.0, from_seed(0)))


def test_negative_remaining_time_rejected():
    with pytest.raises(ValueError):
        Config(None, (0.0,), -0.5, from_seed(0))


def _head_atom(program):
    while isinstance(program, Seq):
        program = program.first
    return program


def test_rule_determinism_on_fuzzed_configs():
    # the diff rules carry the only overlapping-looking side conditions:
    # exactly one of stop/skip/err may hold at any store and time
    rng = random.Random(1234)
    for _ in range(400):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=3)
        store = gen_store(rng, table)
        t = rng.choice((0.0, 0.25, 1.0, 2.5))
        config = Config(program, store, t, FinitePrefix((0.5,) * 8))
        head = _head_atom(program)
        if isinstance(head, DiffBlock):
            try:
                d = eval_expr(head.duration, store)
                defined = True
            except Undefined:
                defined = False
            stop = defined and d > t
            skip = defined and 0.0 <= d <= t
            err = (not defined) or d < 0.0
            assert stop + skip + err == 1
        out = step(config)
        assert isinstance(out, (Config, TimeStop, Err))


def test_time_and_entropy_monotonicity_along_traces():
    rng = random.Random(77)
    checked = 0
    for _ in range(200):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=3)
        store = gen_store(rng, table)
        config = Config(program, store, rng.choice((0.5, 1.0, 2.0)), FinitePrefix((0.3,) * 16))
        try:
            configs, _ = trace(config, fuel=80)
        except EntropyExhausted:
            continue
        for before, after in zip(configs, configs[1:]):
            assert after.t <= before.t
            if after.t < before.t:
                assert isinstance(_head_atom(before.program), DiffBlock)
            advance = after.entropy.pos - before.entropy.pos
            assert advance in (0, 1)
            if advance == 1:
                assert isinstance(_head_atom(before.program), Sample)
        checked += 1
    assert checked > 100


def test_progress_lemma_against_big_step():
    # one small step followed by big-step evaluation equals big-step directly
    rng = random.Random(4242)
    checked = 0
    for _ in range(300):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=3)
        store = gen_store(rng, table)
        config = Config(program, store, rng.choice((0.0, 0.5, 1.5)), FinitePrefix((0.25, 0.75) * 8))
        try:
            out = step(config)
        except EntropyExhausted:
            continue
        if not isinstance(out, Config):
            continue
        if out.program is None:
            after = Normal(out.store, out.t, out.entropy)
        else:
            try:
                after = eval_big(out, fuel=60)
            except EntropyExhausted:
                continue
        if isinstance(after, OutOfFuel):
            continue
        try:
            whole = eval_big(config, fuel=61)
        except EntropyExhausted:
            continue
        assert whole == after
        checked += 1
    assert checked > 100


def test_config_json_lines():
    config, table = cfg("x := 0 ; wait 1", (1.0,), 2.0, from_seed(3))
    configs, _ = trace(config)
    lines = [config_json(c, table) for c in configs]
    for line in lines:
        payload = json.loads(line)
        assert set(payload) == {"program", "store", "t", "entropy"}
    assert json.loads(lines[0])["t"] == 2.0


# The transition relation as the rules read, one recursive call per Seq
# level and one Config per level: the reference that the iterative
# smallstep.step and smallstep._close are checked against.
def _step_reference(config, flow_method=None):
    p = config.program
    if p is None:
        raise ValueError("cannot step the empty program stack")
    t = type(p)
    if t is Sample:
        h, src = config.entropy.draw()
        return Config(None, update(config.store, p.var.index, h), config.t, src)
    if t is Assign:
        try:
            v = eval_expr(p.expr, config.store)
        except Undefined:
            return ERR
        return Config(None, update(config.store, p.var.index, v), config.t, config.entropy)
    if t is DiffBlock:
        try:
            d = eval_expr(p.duration, config.store)
        except Undefined:
            return ERR
        if d < 0.0:
            return ERR
        if d > config.t:
            try:
                return TimeStop(ode.flow(p, config.store, config.t, flow_method))
            except Undefined:
                return ERR
        try:
            evolved = ode.flow(p, config.store, d, flow_method)
        except Undefined:
            return ERR
        return Config(None, evolved, config.t - d, config.entropy)
    if t is If:
        try:
            guard = eval_bool(p.cond, config.store)
        except Undefined:
            return ERR
        chosen = p.then_branch if guard else p.else_branch
        return Config(chosen, config.store, config.t, config.entropy)
    if t is While:
        try:
            guard = eval_bool(p.cond, config.store)
        except Undefined:
            return ERR
        if guard:
            return Config(Seq(p.body, p), config.store, config.t, config.entropy)
        return Config(None, config.store, config.t, config.entropy)
    if t is Seq:
        head = _step_reference(Config(p.first, config.store, config.t, config.entropy), flow_method)
        if type(head) is Config:
            rest = p.rest if head.program is None else Seq(head.program, p.rest)
            return Config(rest, head.store, head.t, head.entropy)
        return head
    raise TypeError(f"not a program node: {p!r}")


def _close_reference(config, fuel, flow_method=None):
    """(configs visited, terminal, steps, last configuration) by the reference."""
    configs = [config]
    steps = 0
    while True:
        if config.program is None:
            return configs, Normal(config.store, config.t, config.entropy), steps, config
        if steps >= fuel:
            return configs, OutOfFuel(steps), steps, config
        out = _step_reference(config, flow_method)
        steps += 1
        if type(out) is not Config:
            return configs, out, steps, config
        config = out
        if config.program is not None:
            configs.append(config)


def _key(config):
    return (config.program, [v.hex() for v in config.store], config.t.hex(), config.entropy)


def test_transitions_match_the_recursive_reference_on_fuzzed_programs():
    rng = random.Random(5150)
    kinds = set()
    for case in range(500):
        table = gen_table(rng)
        program = gen_program(rng, table, depth=4)
        if case % 3 == 0:  # deepen the left spine
            program = Seq(Seq(program, gen_program(rng, table, depth=2)),
                          gen_program(rng, table, depth=2))
        config = Config(program, gen_store(rng, table), rng.choice((0.0, 0.5, 1.5, 4.0)),
                        from_seed(case))
        fuel = rng.choice((1, 3, 10, 40, 200))
        want_configs, want, want_steps, want_last = _close_reference(config, fuel)
        configs, terminal = trace(config, fuel)
        assert [_key(c) for c in configs] == [_key(c) for c in want_configs]
        # repr prints floats exactly, so -0.0 and 0.0 stores differ
        assert repr(terminal) == repr(want)
        result, steps, last = _close(config, fuel)
        assert repr(result) == repr(want) and steps == want_steps
        assert _key(last) == _key(want_last)
        for c in configs[:3]:
            assert step(c) == _step_reference(c)
        kinds.add(type(want))
    assert kinds == {Err, TimeStop, Normal, OutOfFuel}


def _left_nested(depth):
    # ((x := 0 ; x := x + 1) ; x := x + 1) ; ... with `depth` Seq levels,
    # built programmatically: the parser nests statement lists to the right
    x = Var(0, "x")
    bump = Assign(x, Call("+", (x, Lit(1.0))))
    program = Assign(x, Lit(0.0))
    for _ in range(depth):
        program = Seq(program, bump)
    return program


def test_left_nested_sequence_deeper_than_the_recursion_limit():
    depth = 1200
    config = Config(_left_nested(depth), (7.0,), 1.0, from_seed(0))
    result = run_to_terminal(config)
    assert result == eval_big(config)
    assert result == Normal((float(depth),), 1.0, from_seed(0))


def _count_seqs(monkeypatch):
    """A one-element list counting the Seq nodes constructed from now on."""
    count = [0]
    init = Seq.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Seq, "__init__", counting_init)
    return count


def test_closure_builds_no_seq_for_loop_unfoldings(monkeypatch):
    # no trace: a loop unfolds onto the rest stack, and the one residual
    # term built is the returned `last`'s Seq(wait 1, loop)
    program, _ = parse_file(PROGRAMS / "timestop.swl")
    config = Config(program, (0.0,), 100.0, from_seed(0))
    count = _count_seqs(monkeypatch)
    result, steps, last = _close(config, 10 ** 6)
    assert result == TimeStop((101.0,))
    assert steps == 1 + 3 * 101
    assert type(last.program) is Seq and type(last.program.rest) is While
    assert count[0] == 1


def _fresh_seqs(node, original):
    """The Seq nodes of `node` that are not nodes of the program `original`."""
    if node is None or id(node) in original or type(node) is not Seq:
        return 0  # a node the closure did not build is one of the program's
    return 1 + _fresh_seqs(node.first, original) + _fresh_seqs(node.rest, original)


def _node_ids(node, ids):
    """`ids` with the id of every node of `node` added."""
    ids.add(id(node))
    for field in dataclasses.fields(node):
        child = getattr(node, field.name)
        if dataclasses.is_dataclass(child):
            _node_ids(child, ids)
    return ids


def test_traced_closure_builds_seqs_only_inside_emitted_configurations(monkeypatch):
    program, _ = parse_file(PROGRAMS / "timestop.swl")
    config = Config(program, (0.0,), 20.0, from_seed(0))
    original = _node_ids(program, set())
    count = _count_seqs(monkeypatch)
    built = []  # (Seqs constructed so far, fresh Seqs in the configuration)

    def sink(c):
        built.append((count[0], _fresh_seqs(c.program, original)))

    result, steps, last = _close(config, 10 ** 6, sink=sink)
    assert result == TimeStop((21.0,)) and len(built) == steps
    # between two observations the closure builds exactly the new
    # configuration's residual term, and nothing else
    before = 0
    for total, fresh in built:
        assert total - before == fresh
        before = total
    assert count[0] - before == _fresh_seqs(last.program, original) == 1
    assert any(fresh for _, fresh in built)


@pytest.mark.parametrize("depth", [2000, 20000])
def test_closing_a_left_nested_sequence_builds_no_seq(monkeypatch, depth):
    config = Config(_left_nested(depth), (0.0,), 1.0, from_seed(0))
    count = _count_seqs(monkeypatch)
    result, steps, last = _close(config, 10 ** 6)
    assert result == Normal((float(depth),), 1.0, from_seed(0))
    assert steps == depth + 1
    assert last.program is None
    assert count[0] == 0
