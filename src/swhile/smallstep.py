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
    program: object  # Program | None, None meaning the empty stack (skip)
    store: Store
    t: float
    entropy: object

    def __post_init__(self):
        if self.t < 0:
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


def step(config: Config, flow_method=None) -> StepOutcome:
    """Apply the unique matching transition rule once.

    The configuration's program must be nonempty; stepping the empty
    stack is a caller error.
    """
    p = config.program
    if p is None:
        raise ValueError("cannot step the empty program stack")
    t = type(p)
    if t is Sample:
        h, src = config.entropy.draw()
        return Resume(Config(None, update(config.store, p.var.index, h), config.t, src))
    if t is Assign:
        try:
            v = eval_expr(p.expr, config.store)
        except Undefined:
            return ERR
        return Resume(Config(None, update(config.store, p.var.index, v), config.t, config.entropy))
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
        return Resume(Config(None, evolved, config.t - d, config.entropy))
    if t is If:
        try:
            guard = eval_bool(p.cond, config.store)
        except Undefined:
            return ERR
        chosen = p.then_branch if guard else p.else_branch
        return Resume(Config(chosen, config.store, config.t, config.entropy))
    if t is While:
        try:
            guard = eval_bool(p.cond, config.store)
        except Undefined:
            return ERR
        if guard:
            return Resume(Config(Seq(p.body, p), config.store, config.t, config.entropy))
        return Resume(Config(None, config.store, config.t, config.entropy))
    if t is Seq:
        head = step(Config(p.first, config.store, config.t, config.entropy), flow_method)
        ht = type(head)
        if ht is Resume:
            inner = head.config
            rest = p.rest if inner.program is None else Seq(inner.program, p.rest)
            return Resume(Config(rest, inner.store, inner.t, inner.entropy))
        return head  # Err and TimeStop propagate through sequencing
    raise TypeError(f"not a program node: {p!r}")  # pragma: no cover


def _close(config: Config, fuel: int, flow_method=None, keep_trace: bool = False):
    """Iterate `step` to a terminal.

    Returns (result, steps, configs, last), where `last` is the final
    configuration reached -- for Err outcomes its `t` field is the
    remaining time at the erroring step.
    """
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    configs = [config] if keep_trace else None
    steps = 0
    while True:
        if config.program is None:
            return Normal(config.store, config.t, config.entropy), steps, configs, config
        if steps >= fuel:
            return OutOfFuel(steps), steps, configs, config
        out = step(config, flow_method)
        steps += 1
        ot = type(out)
        if ot is Resume:
            config = out.config
            # the empty-stack configuration IS the Normal terminal; listing
            # it again as an intermediate configuration would double it
            if keep_trace and config.program is not None:
                configs.append(config)
            continue
        return out, steps, configs, config


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
