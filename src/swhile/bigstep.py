"""Big-step evaluation, the functional semantics, and agreement checking.

`eval_big` abstracts from intermediate steps and returns the same
terminal shapes as the small-step closure; the two agree whenever neither
is cut off by its budget, and the test suite exercises that equivalence.

`eval_functional` is the clause-by-clause functional form of the big-step
semantics.  Its single undefined value Bottom deliberately merges
evaluation errors with divergence: loops are evaluated as the `fuel`-th
Kleene approximant, where approximant 0 is Bottom everywhere and
approximant i+1 unfolds the body once.  This per-loop index is what the
measure-level enumeration matches against the denotational semantics, so
truncation is identical on both sides.
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
    Err,
    Normal,
    OutOfFuel,
    TimeStop,
    run_to_terminal,
)
from .store import Undefined, eval_bool, eval_expr, update
from .syntax import Assign, DiffBlock, If, Sample, Seq, While


@dataclass(frozen=True, slots=True)
class Bottom:
    """Undefinedness: an evaluation error or a diverging (truncated) loop."""


BOTTOM = Bottom()

FunOutcome = Normal | TimeStop | Bottom


def eval_big(config: Config, fuel: int = DEFAULT_FUEL, flow_method=None, segments=None):
    """Terminal of the big-step relation; fuel bounds loop unfoldings.

    OutOfFuel is returned when the total number of true-guard loop
    unfoldings along the derivation exceeds `fuel`.

    `segments`, when given a list, receives a record of the run and changes
    no outcome.  Steps are numbered as the small-step closure counts
    transitions (every node other than a sequence is one step).  Each
    differential block with a positive duration d appends (block, entry
    store, d, step) before it flows, and on exit the run appends
    (None, None, None, last step).
    """
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    store, t, src = config.store, config.t, config.entropy
    stack = [] if config.program is None else [config.program]
    unfolds = 0
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
            if nt is Assign:
                try:
                    v = eval_expr(node.expr, store)
                except Undefined:
                    return ERR
                store = update(store, node.var.index, v)
            elif nt is Sample:
                h, src = src.draw()
                store = update(store, node.var.index, h)
            elif nt is DiffBlock:
                try:
                    d = eval_expr(node.duration, store)
                except Undefined:
                    return ERR
                if d < 0.0:
                    return ERR
                if segments is not None and d > 0.0:
                    segments.append((node, store, d, steps))
                try:
                    if d > t:
                        return TimeStop(ode.flow(node, store, t, flow_method))
                    store = ode.flow(node, store, d, flow_method)
                except Undefined:
                    return ERR
                t -= d
            elif nt is If:
                try:
                    guard = eval_bool(node.cond, store)
                except Undefined:
                    return ERR
                stack.append(node.then_branch if guard else node.else_branch)
            elif nt is While:
                try:
                    guard = eval_bool(node.cond, store)
                except Undefined:
                    return ERR
                if guard:
                    unfolds += 1
                    if unfolds > fuel:
                        return OutOfFuel(unfolds - 1)
                    stack.append(node)
                    stack.append(node.body)
            else:  # pragma: no cover
                raise TypeError(f"not a program node: {node!r}")
        return Normal(store, t, src)
    finally:
        if segments is not None:
            segments.append((None, None, None, steps))


def eval_functional(program, store, t: float, entropy, fuel: int, flow_method=None):
    """Functional semantics at Kleene index `fuel` for every loop.

    fuel = 0 makes every loop Bottom regardless of its guard; fuel = i+1
    allows one more unfolding than fuel = i.  Bottom is a value, never an
    exception; only entropy exhaustion (finite test sources) raises.
    """
    if fuel < 0:
        raise ValueError("the Kleene index must be nonnegative")
    stack = [] if program is None else [program]
    src = entropy
    while stack:
        node = stack.pop()
        nt = type(node)
        if nt is tuple:
            _, wnode, index = node
            outcome = _functional_while(wnode, index, store, stack)
            if outcome is not None:
                return outcome
        elif nt is Seq:
            stack.append(node.rest)
            stack.append(node.first)
        elif nt is Assign:
            try:
                v = eval_expr(node.expr, store)
            except Undefined:
                return BOTTOM
            store = update(store, node.var.index, v)
        elif nt is Sample:
            h, src = src.draw()
            store = update(store, node.var.index, h)
        elif nt is DiffBlock:
            try:
                d = eval_expr(node.duration, store)
            except Undefined:
                return BOTTOM
            if d < 0.0:
                return BOTTOM
            try:
                if d > t:
                    return TimeStop(ode.flow(node, store, t, flow_method))
                store = ode.flow(node, store, d, flow_method)
            except Undefined:
                return BOTTOM
            t -= d
        elif nt is If:
            try:
                guard = eval_bool(node.cond, store)
            except Undefined:
                return BOTTOM
            stack.append(node.then_branch if guard else node.else_branch)
        elif nt is While:
            outcome = _functional_while(node, fuel, store, stack)
            if outcome is not None:
                return outcome
        else:  # pragma: no cover
            raise TypeError(f"not a program node: {node!r}")
    return Normal(store, t, src)


def _functional_while(wnode: While, index: int, store, stack):
    if index == 0:
        return BOTTOM  # approximant 0 ignores the guard
    try:
        guard = eval_bool(wnode.cond, store)
    except Undefined:
        return BOTTOM
    if guard:
        stack.append(("wh", wnode, index - 1))
        stack.append(wnode.body)
    return None


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

    The small-step/big-step equivalence is asserted whenever neither side
    ran out of fuel; the functional outcome is compared against the
    big-step one in both directions, except that functional Bottom only
    requires the big-step result to be an error or a fuel cut (Bottom may
    stand for divergence, which the relational semantics cannot observe).
    Cases that exhaust a finite entropy source are counted as skipped.
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

    # all three consume the stream in the same order, so a finite source
    # must dry up consistently -- except that a fuel cut censors the rest
    # of a run's consumption, in which case nothing can be concluded
    if small_dry or big_dry or fun_dry:
        small_cut = (not small_dry) and isinstance(small, OutOfFuel)
        big_cut = (not big_dry) and isinstance(big, OutOfFuel)
        consistent = True
        if small_dry != big_dry and not (small_cut or big_cut):
            violate("small-step and big-step disagree on entropy exhaustion")
            consistent = False
        if fun_dry and not (big_dry or big_cut):
            violate("functional semantics demanded more entropy than the completed big-step run")
            consistent = False
        if not fun_dry and big_dry and fun is not BOTTOM:
            # a completed functional run pins the whole derivation and its
            # draw count, so the relational run cannot have needed more
            violate("functional semantics completed where big-step exhausted its entropy")
            consistent = False
        if consistent:
            report.skipped_entropy += 1
        return report

    small_cut = isinstance(small, OutOfFuel)
    big_cut = isinstance(big, OutOfFuel)
    if small_cut or big_cut:
        report.skipped_fuel += 1
    else:
        report.checked += 1
        if small != big:
            violate("small-step and big-step terminals differ")
    if not big_cut:
        report.checked += 1
        if isinstance(big, (Normal, TimeStop)):
            if fun != big:
                violate("big-step terminal not matched by the functional semantics")
        elif isinstance(big, Err):
            if fun is not BOTTOM:
                violate("big-step err must be functional Bottom")
        if isinstance(fun, (Normal, TimeStop)) and fun != big:
            violate("functional value not matched by big-step")
    else:
        # fuel-cut big step: functional Bottom is consistent, anything else
        # cannot be cross-checked at this budget
        report.skipped_fuel += 1
    return report
