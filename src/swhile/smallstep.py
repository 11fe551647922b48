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

The closure `_close` applies every rule in one loop.  It keeps the
residual program as a zipper -- a focus node and the stack of the
`rest`s of the Seqs above it -- so the sequencing rule needs no
recursion, and a loop whose guard holds unfolds by pushing itself onto
that stack and focusing its body, which is the residual Seq(body, loop)
without building it.  The loop is also the one place an `Undefined`
raised by an expression, guard or flow becomes Err.  A term (built by
`_term`) and a `Config` exist only for a configuration that is observed:
for the trace (a `sink` that takes each configuration as it is reached,
as `swhile run --trace` prints them) and for the last configuration it
returns.  Its cost is per step, independent of how deeply the Seqs nest.
`step` is the closure with one unit of fuel, and returns the successor
`Config` itself when the step neither errs nor time-stops.

`TimeGrid`, the query times of `simulate` and `adequacy --grid`, lives
here beside Config, so building a grid loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ode
from .measure import _check_remaining_time
from .store import Store, Undefined, eval_bool, eval_expr, update
from .syntax import (
    Assign,
    DiffBlock,
    If,
    Sample,
    Seq,
    While,
)

DEFAULT_FUEL = 10 ** 6


def check_fuel(fuel: int) -> None:
    """Refuse a fuel below 1: the closure, `eval_big` and the frontier
    recorder each check their fuel here."""
    if fuel < 1:
        raise ValueError("fuel must be at least 1")


@dataclass(frozen=True, slots=True)
class Config:
    """A configuration: remaining program, store, remaining time t, entropy.

    t must be finite and nonnegative, and so not NaN.  Configurations that
    the closure builds satisfy this too: time only shrinks by a block's
    duration d with 0 <= d <= t, and then the IEEE difference t - d is
    >= 0 (rounding is monotone and the exact difference is >= 0).
    """

    program: object  # Program | None, None meaning the empty stack (skip)
    store: Store
    t: float
    entropy: object

    __post_init__ = _check_remaining_time


# The most times a regular grid may hold: every grid time costs a point in
# each trajectory, so a longer grid would exhaust memory before it ran.
MAX_GRID_POINTS = 10 ** 6


@dataclass(frozen=True, slots=True)
class TimeGrid:
    """The times an ensemble is observed at: strictly increasing, within
    [start, end]."""

    start: float
    end: float
    times: tuple

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("grid start must be nonnegative")
        if not self.end > self.start:
            raise ValueError("grid end must exceed its start")
        if not self.times:
            raise ValueError("grid must contain at least one time")
        prev = None
        for t in self.times:
            if not self.start <= t <= self.end:
                raise ValueError("grid times must lie within [start, end]")
            if prev is not None and t <= prev:
                raise ValueError("grid times must be strictly increasing")
            prev = t

    @classmethod
    def from_times(cls, times) -> "TimeGrid":
        times = tuple(float(t) for t in times)
        if len(times) < 2:
            raise ValueError("an explicit grid needs at least two times")
        return cls(times[0], times[-1], times)

    @classmethod
    def regular(cls, start: float, end: float, step: float) -> "TimeGrid":
        if not all(math.isfinite(v) for v in (start, end, step)):
            raise ValueError("grid start, end and step must be finite")
        if step <= 0:
            raise ValueError("step must be positive")
        # the loop yields at most floor((end + 1e-12 - start) / step) + 1
        # times, up to rounding, tolerance included; count them first, not
        # by running it
        if (end + 1e-12 - start) / step >= MAX_GRID_POINTS:
            raise ValueError(f"grid would hold more than {MAX_GRID_POINTS} times")
        # the first time at or past end is clamped onto end and is the last:
        # after it, a step below the tolerance would repeat end
        times = []
        i = 0
        while True:
            t = start + i * step
            if t > end + 1e-12:
                break
            times.append(min(t, end))
            if t >= end:
                break
            i += 1
        return cls(start, end, tuple(times))


@dataclass(frozen=True, slots=True)
class Err:
    pass


@dataclass(frozen=True, slots=True)
class TimeStop:
    store: Store


@dataclass(frozen=True, slots=True)
class Normal:
    store: Store
    t: float
    entropy: object


@dataclass(frozen=True, slots=True)
class OutOfFuel:
    steps: int


ERR = Err()

StepOutcome = Err | TimeStop | Config


def _term(focus, rests):
    """The residual program of the zipper (focus, rests), or None if empty.

    `rests` holds the `rest` of every Seq above the focus, innermost last;
    the fold rebuilds the spine innermost first, each level becoming its
    `rest` when the focus below it is None and Seq(focus, rest) otherwise.
    """
    for rest in reversed(rests):
        focus = rest if focus is None else Seq(focus, rest)
    return focus


def step(config: Config, flow_method=None) -> StepOutcome:
    """Apply the unique matching transition rule once: Err, TimeStop, or
    the successor `Config`.

    The configuration's program must be nonempty; stepping the empty
    stack is a caller error.
    """
    if config.program is None:
        raise ValueError("cannot step the empty program stack")
    out, _, last = _close(config, 1, flow_method)
    # one step that completes the program or leaves work stops at Normal
    # or OutOfFuel; either way `last` is the successor configuration
    return last if type(out) in (Normal, OutOfFuel) else out


def _close(config: Config, fuel: int, flow_method=None, sink=None):
    """Iterate the transition relation to a terminal.

    Returns (result, steps, last), where `last` is the final
    configuration reached -- for Err outcomes its `t` field is the
    remaining time at the erroring step.  Configurations are built only
    for `sink` (when given, it is called with each configuration visited,
    the first included, as soon as it is reached, and none is kept) and
    for `last`.

    The residual program is kept as a zipper: a focus node and the stack
    `rests` of the `rest` of every Seq above it, innermost on top.  A
    completed focus gives way to the next rest, a Seq focus is walked down
    its left spine, and any other focus takes its one rule, applied here
    in the loop.  A loop whose guard holds is pushed onto `rests` and its
    body becomes the focus: that zipper is the residual Seq(body, loop),
    which is never built.  The term is built by `_term` only for a
    configuration that is observed, so a step costs the same however
    deeply its Seqs nest.  An `Undefined` raised by an expression, guard
    or flow becomes Err in one place, with the erring node still in focus.
    """
    check_fuel(fuel)
    if sink is not None:
        sink(config)
    focus, store, t, entropy = config.program, config.store, config.t, config.entropy
    rests = []
    push, pop = rests.append, rests.pop
    steps = 0
    try:
        while True:
            if focus is None:
                if not rests:
                    return Normal(store, t, entropy), steps, Config(None, store, t, entropy)
                focus = pop()
            kind = type(focus)
            while kind is Seq:
                push(focus.rest)
                focus = focus.first
                kind = type(focus)
            if steps >= fuel:
                return OutOfFuel(steps), steps, Config(_term(focus, rests), store, t, entropy)
            steps += 1
            if kind is Assign:
                store = update(store, focus.var.index, eval_expr(focus.expr, store))
                focus = None
            elif kind is While:
                if eval_bool(focus.cond, store):
                    push(focus)
                    focus = focus.body
                else:
                    focus = None
            elif kind is DiffBlock:
                d = eval_expr(focus.duration, store)
                if d < 0.0:
                    return ERR, steps, Config(_term(focus, rests), store, t, entropy)
                if d > t:
                    return (TimeStop(ode.flow(focus, store, t, flow_method)), steps,
                            Config(_term(focus, rests), store, t, entropy))
                store = ode.flow(focus, store, d, flow_method)
                # 0 <= d <= t, so the IEEE difference is >= 0 (see Config)
                t -= d
                focus = None
            elif kind is If:
                focus = focus.then_branch if eval_bool(focus.cond, store) else focus.else_branch
            elif kind is Sample:
                h, entropy = entropy.draw()
                store = update(store, focus.var.index, h)
                focus = None
            else:  # pragma: no cover
                raise TypeError(f"not a program node: {focus!r}")
            # the empty-stack configuration IS the Normal terminal; listing
            # it again as an intermediate configuration would double it
            if sink is not None and (focus is not None or rests):
                sink(Config(_term(focus, rests), store, t, entropy))
    except Undefined:
        return ERR, steps, Config(_term(focus, rests), store, t, entropy)


def run_to_terminal(config: Config, fuel: int = DEFAULT_FUEL, flow_method=None):
    """Terminal outcome of iterated stepping, or OutOfFuel(steps taken).

    OutOfFuel reports divergence within the budget and is distinct from
    Err, which is a genuine evaluation error.
    """
    result, _, _ = _close(config, fuel, flow_method)
    return result


def trace(config: Config, fuel: int = DEFAULT_FUEL, flow_method=None):
    """The exact sequence of configurations visited, plus the terminal."""
    configs = []
    result, _, _ = _close(config, fuel, flow_method, configs.append)
    return configs, result
