"""Big-step evaluation, the functional semantics, and agreement checking.

`eval_big` abstracts from intermediate steps and returns the same
terminal shapes as the small-step closure.  Its `fuel` counts small-step
transitions, as the closure's does, so the two agree on every outcome,
a fuel cut included, and the test suite exercises that equivalence.  A
`segments` list only records the run; it changes no outcome.  An
`Undefined` raised by an expression, guard or flow becomes Err at the one
handler of `eval_big`, beside the `finally` that ends a recording.

`eval_functional` is the clause-by-clause functional form of the big-step
semantics.  Its single undefined value Bottom deliberately merges
evaluation errors with divergence: loops are evaluated as the `fuel`-th
Kleene approximant, where approximant 0 is Bottom everywhere and
approximant i+1 unfolds the body once.  This per-loop index is what the
measure-level enumeration matches against the denotational semantics, so
truncation is identical on both sides.  Undefinedness becomes Bottom at
the one handler of `_functional`, the loop of `eval_functional`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import ode
from .entropy import EntropyExhausted
from .smallstep import (
    Config,
    DEFAULT_FUEL,
    ERR,
    Normal,
    OutOfFuel,
    TimeStop,
    check_fuel,
    run_to_terminal,
)
from .store import Undefined, eval_bool, eval_expr, update
from .syntax import Assign, DiffBlock, If, Sample, Seq, While


@dataclass(frozen=True, slots=True)
class Bottom:
    """Undefinedness: an evaluation error or a diverging (truncated) loop."""


BOTTOM = Bottom()


def eval_big(config: Config, fuel: int = DEFAULT_FUEL, flow_method=None, segments=None):
    """Terminal of the big-step relation; fuel bounds small-step transitions.

    Steps are counted as the small-step closure counts transitions: every
    node other than a sequence is one step.  The run stops before its step
    fuel + 1 and returns OutOfFuel(fuel), where the closure does.

    `segments`, when given a list, receives a record of the run and changes
    nothing else.  Each differential block with a positive duration d
    appends (block, entry store, d, step) before it flows, and on exit the
    run appends (None, None, None, last step); after a fuel cut the last
    step is fuel + 1, the one not taken.
    """
    check_fuel(fuel)
    store, t, src = config.store, config.t, config.entropy
    stack = [] if config.program is None else [config.program]
    steps = 0
    try:
        while stack:
            node = stack.pop()
            nt = type(node)
            if nt is Seq:
                stack.append(node.rest)
                stack.append(node.first)
                continue
            steps += 1
            if steps > fuel:
                return OutOfFuel(fuel)
            if nt is Assign:
                v = eval_expr(node.expr, store)
                store = update(store, node.var.index, v)
            elif nt is Sample:
                h, src = src.draw()
                store = update(store, node.var.index, h)
            elif nt is DiffBlock:
                d = eval_expr(node.duration, store)
                if d < 0.0:
                    return ERR
                if segments is not None and d > 0.0:
                    segments.append((node, store, d, steps))
                if d > t:
                    return TimeStop(ode.flow(node, store, t, flow_method))
                store = ode.flow(node, store, d, flow_method)
                t -= d
            elif nt is If:
                guard = eval_bool(node.cond, store)
                stack.append(node.then_branch if guard else node.else_branch)
            elif nt is While:
                if eval_bool(node.cond, store):
                    stack.append(node)
                    stack.append(node.body)
            else:  # pragma: no cover
                raise TypeError(f"not a program node: {node!r}")
        return Normal(store, t, src)
    except Undefined:
        return ERR
    finally:
        if segments is not None:
            segments.append((None, None, None, steps))


def check_index(n: int) -> None:
    """Refuse a negative Kleene index: `eval_functional`, `denote` and the
    adequacy enumeration each check their loop index here."""
    if n < 0:
        raise ValueError("the Kleene index must be nonnegative")


def eval_functional(program, store, t: float, entropy, fuel: int, flow_method=None):
    """Functional semantics at Kleene index `fuel` for every loop.

    fuel = 0 makes every loop Bottom regardless of its guard; fuel = i+1
    allows one more unfolding than fuel = i.  Bottom is a value, never an
    exception; only entropy exhaustion (finite sources) raises, and the
    exception carries the run's state at the failed draw (see
    `_functional`).  `denotational.enumerate_operational` resumes from that
    state, so each branch of its draw tree starts at its fork instead of
    replaying the draws before it.
    """
    check_index(fuel)
    return _functional([] if program is None else [program], store, t, entropy, fuel, flow_method)


def _functional(stack, store, t: float, src, fuel: int, flow_method):
    """The loop of `eval_functional`, run from a work stack of program nodes
    and loop frames.

    A loop frame is a pair (loop, index): the loop still to run at Kleene
    index `index`.  A `While` node enters as its frame at index `fuel`;
    at index 0 the frame is Bottom whatever the guard, and otherwise, when
    the guard holds, the body runs and then the frame at index - 1.

    When a draw exhausts `src`, the Sample node goes back on the stack and
    the exception carries `resume = (stack, store, t)`: calling
    `_functional` on those with a source that can draw continues the run
    exactly where it stopped, without redoing what came before the draw.
    """
    try:
        while stack:
            node = stack.pop()
            nt = type(node)
            if nt is tuple:
                loop, index = node
                if index == 0:
                    return BOTTOM  # approximant 0 ignores the guard
                if eval_bool(loop.cond, store):
                    stack.append((loop, index - 1))
                    stack.append(loop.body)
            elif nt is Seq:
                stack.append(node.rest)
                stack.append(node.first)
            elif nt is Assign:
                v = eval_expr(node.expr, store)
                store = update(store, node.var.index, v)
            elif nt is Sample:
                try:
                    h, src = src.draw()
                except EntropyExhausted as exc:
                    stack.append(node)
                    exc.resume = (stack, store, t)
                    raise
                store = update(store, node.var.index, h)
            elif nt is DiffBlock:
                d = eval_expr(node.duration, store)
                if d < 0.0:
                    return BOTTOM
                if d > t:
                    return TimeStop(ode.flow(node, store, t, flow_method))
                store = ode.flow(node, store, d, flow_method)
                t -= d
            elif nt is If:
                guard = eval_bool(node.cond, store)
                stack.append(node.then_branch if guard else node.else_branch)
            elif nt is While:
                stack.append((node, fuel))
            else:  # pragma: no cover
                raise TypeError(f"not a program node: {node!r}")
    except Undefined:
        return BOTTOM
    return Normal(store, t, src)


# --- agreement between the three evaluators ---------------------------------

@dataclass
class AgreementReport:
    checked: int = 0
    skipped_fuel: int = 0
    skipped_entropy: int = 0
    violations: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(
            {
                "checked": self.checked,
                "skipped_fuel": self.skipped_fuel,
                "skipped_entropy": self.skipped_entropy,
                "violations": self.violations[:1],
                "violation_count": len(self.violations),
                "ok": self.ok,
            },
            sort_keys=True,
        )


def check_agreement(program, store, t: float, entropy, fuel: int = 10 ** 4, flow_method=None) -> AgreementReport:
    """Run all three evaluators on the same input and cross-check them.

    Small-step and big-step count the same steps and draw in the same
    order, so the two are compared on every outcome: a fuel cut and a dry
    finite source are outcomes too.  The functional outcome is compared
    against the big-step one in both directions, except that functional
    Bottom only requires the big-step result to be an error (Bottom may
    stand for divergence, which the relational semantics cannot observe).
    That comparison is skipped only at a big-step fuel cut (counted in
    `skipped_fuel`); where a source dries up it checks that the two ran
    dry consistently (counted in `skipped_entropy`).
    """
    report = AgreementReport()
    config = Config(program, store, t, entropy)

    def attempt(thunk):
        try:
            return thunk(), False
        except EntropyExhausted:
            return None, True

    small, small_dry = attempt(lambda: run_to_terminal(config, fuel, flow_method))
    big, big_dry = attempt(lambda: eval_big(config, fuel, flow_method))
    fun, fun_dry = attempt(
        lambda: eval_functional(program, store, t, entropy, fuel, flow_method)
    )
    report.outcomes = {"smallstep": repr(small), "bigstep": repr(big), "functional": repr(fun)}

    def violate(message):
        report.violations.append({"check": message, **report.outcomes})

    report.checked += 1
    if small_dry != big_dry:
        violate("small-step and big-step disagree on entropy exhaustion")
    elif small != big:
        violate("small-step and big-step terminals differ")

    big_cut = isinstance(big, OutOfFuel)
    # the functional run draws in the same order too, but its Kleene index
    # lets it run past a big-step fuel cut and so draw more
    if big_dry or fun_dry:
        if fun_dry and not (big_dry or big_cut):
            violate("functional semantics demanded more entropy than the completed big-step run")
        elif not fun_dry and fun is not BOTTOM:
            # a completed functional run pins the whole derivation and its
            # draw count, so the relational run cannot have needed more
            violate("functional semantics completed where big-step exhausted its entropy")
        else:
            report.skipped_entropy += 1
    elif big_cut:
        report.skipped_fuel += 1
    else:
        report.checked += 1
        if isinstance(big, (Normal, TimeStop)):
            if fun != big:
                violate("big-step terminal not matched by the functional semantics")
        elif fun is not BOTTOM:
            violate("big-step err must be functional Bottom")
        if isinstance(fun, (Normal, TimeStop)) and fun != big:
            violate("functional value not matched by big-step")
    return report
