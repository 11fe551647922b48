"""Single-step transition relation and its closure to terminal outcomes.

A configuration bundles the remaining program (None once the evaluation
stack is empty), the store, the remaining query time t, and the entropy
source.  One call to `step` applies exactly the one transition rule whose
shape and side condition match:

* sampling consumes the head of the entropy stream;
* assignment evaluates its expression, turning undefinedness into Err;
* a differential block with duration d either forces a time-based
  termination with the store evolved t time units (d > t), finishes the
  block and charges d against t (0 <= d <= t), or errs (d < 0 or
  undefined);
* conditionals and loops branch on the guard, erring when it is
  undefined; loops unfold one body copy;
* sequencing steps its head, propagating Err and time-stops and dropping
  completed heads.

Guards compare doubles exactly: a block whose duration equals t finishes
with zero time left rather than time-stopping.

The rules live in `_transition`, which works on a configuration's four
fields.  It applies the sequencing rule along the whole left spine in one
loop, without recursion, so a left-nested sequence of any depth steps, and
it still rebuilds the residual program term on every transition: the
configurations visited are the terms the rules rewrite.  `step` wraps it
for a `Config`; the closure `_close` keeps the fields in locals and builds
a `Config` only for the trace (`keep_trace`, i.e. `swhile run --trace`) and
for the last configuration it returns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import ode
from .store import Store, Undefined, eval_bool, eval_expr, update
from .syntax import (
    Assign,
    DiffBlock,
    If,
    Sample,
    Seq,
    VarTable,
    While,
    pretty_print,
)

DEFAULT_FUEL = 10 ** 6


@dataclass(frozen=True, slots=True)
class Config:
    """A configuration: remaining program, store, remaining time t, entropy.

    t must be nonnegative, and so not NaN.  Configurations that the
    closure never builds satisfy this too: time only shrinks by a block's
    duration d with 0 <= d <= t, and then the IEEE difference t - d is
    >= 0 (rounding is monotone and the exact difference is >= 0).
    """

    program: object  # Program | None, None meaning the empty stack (skip)
    store: Store
    t: float
    entropy: object

    def __post_init__(self):
        if not self.t >= 0:  # also rejects NaN, for which t < 0 is false
            raise ValueError("remaining time must be nonnegative")


@dataclass(frozen=True, slots=True)
class Err:
    pass


@dataclass(frozen=True, slots=True)
class TimeStop:
    store: Store


@dataclass(frozen=True, slots=True)
class Resume:
    config: Config


@dataclass(frozen=True, slots=True)
class Normal:
    store: Store
    t: float
    entropy: object


@dataclass(frozen=True, slots=True)
class OutOfFuel:
    steps: int


ERR = Err()

StepOutcome = Err | TimeStop | Resume
Terminal = Err | TimeStop | Normal


def _transition(program, store: Store, t: float, entropy, flow_method):
    """The one transition from the configuration with these four fields.

    Returns the successor's fields (program, store, t, entropy) as a
    tuple, or ERR, or a TimeStop.  `program` must not be None.

    The Seq rule is applied along the left spine in one loop: walk down
    `first` while the node is a Seq, collecting the `rest`s; apply the
    atomic, If or While rule to the leftmost non-Seq node; then rebuild
    the residual spine innermost first, each level becoming its `rest`
    when the stepped head completed and Seq(head, rest) otherwise.  Err
    and time-stops propagate through sequencing unchanged.
    """
    rests = []
    while type(program) is Seq:
        rests.append(program.rest)
        program = program.first
    kind = type(program)
    if kind is Sample:
        h, entropy = entropy.draw()
        store = update(store, program.var.index, h)
        program = None
    elif kind is Assign:
        try:
            v = eval_expr(program.expr, store)
        except Undefined:
            return ERR
        store = update(store, program.var.index, v)
        program = None
    elif kind is DiffBlock:
        try:
            d = eval_expr(program.duration, store)
        except Undefined:
            return ERR
        if d < 0.0:
            return ERR
        if d > t:
            try:
                return TimeStop(ode.flow(program, store, t, flow_method))
            except Undefined:
                return ERR
        try:
            store = ode.flow(program, store, d, flow_method)
        except Undefined:
            return ERR
        # 0 <= d <= t, so the IEEE difference is >= 0 (see Config): the
        # remaining time stays nonnegative with no Config to check it
        t = t - d
        program = None
    elif kind is If:
        try:
            guard = eval_bool(program.cond, store)
        except Undefined:
            return ERR
        program = program.then_branch if guard else program.else_branch
    elif kind is While:
        try:
            guard = eval_bool(program.cond, store)
        except Undefined:
            return ERR
        program = Seq(program.body, program) if guard else None
    else:  # pragma: no cover
        raise TypeError(f"not a program node: {program!r}")
    for rest in reversed(rests):
        program = rest if program is None else Seq(program, rest)
    return program, store, t, entropy


def step(config: Config, flow_method=None) -> StepOutcome:
    """Apply the unique matching transition rule once.

    The configuration's program must be nonempty; stepping the empty
    stack is a caller error.
    """
    if config.program is None:
        raise ValueError("cannot step the empty program stack")
    out = _transition(config.program, config.store, config.t, config.entropy, flow_method)
    if type(out) is tuple:
        return Resume(Config(*out))
    return out


def _close(config: Config, fuel: int, flow_method=None, keep_trace: bool = False):
    """Iterate the transition relation to a terminal.

    Returns (result, steps, configs, last), where `last` is the final
    configuration reached -- for Err outcomes its `t` field is the
    remaining time at the erroring step.  Configurations are built only
    for `configs` (when `keep_trace`) and for `last`.
    """
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    configs = [config] if keep_trace else None
    program, store, t, entropy = config.program, config.store, config.t, config.entropy
    steps = 0
    while True:
        if program is None:
            return Normal(store, t, entropy), steps, configs, Config(None, store, t, entropy)
        if steps >= fuel:
            return OutOfFuel(steps), steps, configs, Config(program, store, t, entropy)
        out = _transition(program, store, t, entropy, flow_method)
        steps += 1
        if type(out) is not tuple:
            return out, steps, configs, Config(program, store, t, entropy)
        program, store, t, entropy = out
        # the empty-stack configuration IS the Normal terminal; listing
        # it again as an intermediate configuration would double it
        if keep_trace and program is not None:
            configs.append(Config(program, store, t, entropy))


def run_to_terminal(config: Config, fuel: int = DEFAULT_FUEL, flow_method=None):
    """Terminal outcome of iterated stepping, or OutOfFuel(steps taken).

    OutOfFuel reports divergence within the budget and is distinct from
    Err, which is a genuine evaluation error.
    """
    result, _, _, _ = _close(config, fuel, flow_method)
    return result


def trace(config: Config, fuel: int = DEFAULT_FUEL, flow_method=None):
    """The exact sequence of configurations visited, plus the terminal."""
    result, _, configs, _ = _close(config, fuel, flow_method, keep_trace=True)
    return configs, result


def config_json(config: Config, table: VarTable) -> str:
    """One trace line: program text, store vector, t, entropy position."""
    return json.dumps(
        {
            "program": ""
            if config.program is None
            else pretty_print(config.program, table, inline=True),
            "store": list(config.store),
            "t": config.t,
            "entropy": config.entropy.describe(),
        },
        sort_keys=True,
    )
