"""Measure semantics over a discretized sampling instruction, plus the
checker that compares it against exhaustive operational enumeration.

Sampling is interpreted through a k-point discretization of the unit
interval: atoms (2i+1)/2k, each of weight 1/k.  A `Discretization` is
itself the sequence of its atoms, each computed when it is read.  The
midpoints avoid comparison thresholds such as 0.5 for even k, which keeps
branch splits of encoded coin flips tie-free.  Weights are exact
rationals, so the operational/denotational comparison is an equality:
a check passes only at total variation exactly zero.

Every clause turns undefinedness into lost mass ("0 otherwise"), so a
program's missing mass records its error/divergence probability.  `_push`
drops an undefined point where it meets it: the loops over the frontier
of an assignment, a differential block, a conditional and a loop round
each have one handler, so a point that errs loses only its own mass.  Loops
are the `max_unfold`-th Kleene approximant: approximant 0 is the zero
measure, approximant i+1 unfolds once.  The enumeration side truncates
loops at the same index, which is exactly what makes the two sides
comparable at finite depth.

The denotation is computed as a frontier iteration over measures: the
whole input measure is pushed through the program node by node, equal
points are merged, and a loop is a sequence of rounds over its frontier
(see `_push`).  No step recurses, so neither `max_unfold` nor the length
of a `Seq` chain is bounded by Python's recursion limit, and the cost
grows with the number of distinct points rather than the number of
paths.  Inside the iteration an X-point is a (store, t) tuple and an
E-point a store.  Each weight is an `int` over one denominator per
frontier, which a `Sample` multiplies by k.  `XPoint`s, `EPoint`s and
`Fraction`s are built once, for the output measure, which is validated as
every measure is, down to each `XPoint`'s remaining time; a frontier's t
is an input point's checked t0 less the durations flowed since, each at
most the time then left, so it lies in [0, t0] and needs no check of its
own.  The enumeration side, the independent operational semantics the
denotation is checked against, runs the functional semantics over the
distinct resume states of each draw depth (see `enumerate_operational`),
with integer path counts at the scale k**depth.

`adequacy_check` compares the two sides on a whole input measure: the
operational side is the Kleisli extension (`measure.kleisli_extend`) of
the enumeration kernel, X-point -> measure, applied to that measure, and
the denotational side is `_push` of it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import ode
from .bigstep import BOTTOM, _functional, check_index
# The enumeration resumes branches through `_functional`; eval_functional
# stays a module attribute because bench/tracing.py wraps it by name.
from .bigstep import eval_functional  # noqa: F401
from .entropy import Enumerator, EntropyExhausted
from .measure import DiscMeasure, EPoint, XPoint, dirac, kleisli_extend, tv_distance
from .smallstep import Normal
from .store import Undefined, eval_bool, eval_expr, update
from .syntax import Assign, DiffBlock, If, Program, Sample, Seq, While

DEFAULT_BRANCH_CAP = 10 ** 7


class BranchExplosion(Exception):
    def __init__(self, explored: int, cap: int):
        super().__init__(f"enumeration explored {explored} branches, cap is {cap}")
        self.explored = explored
        self.cap = cap


@dataclass(frozen=True, slots=True)
class Discretization(Sequence):
    """k midpoint atoms of the unit interval, each carrying weight 1/k.

    The discretization is itself the read-only sequence of its atoms
    (2i+1)/2k, each computed when it is read, so a large k costs no memory
    until branches are explored.
    """

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")

    def __len__(self) -> int:
        return self.k

    def __getitem__(self, i: int) -> float:
        if not 0 <= i < self.k:
            raise IndexError("atom index out of range")
        return (2 * i + 1) / (2 * self.k)

    def __iter__(self):
        # (2i + 1) / 2k for i = 0 .. k-1, as int / int true divisions
        return map((2 * self.k).__rtruediv__, range(1, 2 * self.k, 2))


def denote(program: Program, disc: Discretization, max_unfold: int, flow_method=None):
    """The program's kernel: X-point -> finite-support subdistribution.

    Applying the kernel pushes the point mass through the program as a
    frontier (see `_push`); its weights are exact rationals.
    """
    check_index(max_unfold)

    def kernel(pt: XPoint) -> DiscMeasure:
        return _push(program, dirac(pt), disc, max_unfold, flow_method)

    return kernel


# Continuation frames on `_push`'s work stack, interleaved with program nodes.
_ELSE, _JOIN, _ROUND = "else", "join", "round"


def _lifted(weights: dict, m: int) -> dict:
    return weights if m == 1 else {key: w * m for key, w in weights.items()}


def _common(a: dict, a_den: int, b: dict, b_den: int):
    """Weights `a` over `a_den` and `b` over `b_den` over one denominator:
    (a, b, den).  An empty side takes the other's denominator as it is."""
    if a_den == b_den or not a:
        return a, b, b_den
    if not b:
        return a, b, a_den
    den = lcm(a_den, b_den)
    return _lifted(a, den // a_den), _lifted(b, den // b_den), den


# `_push`'s steps.  Each builds its output in a local that dies when it
# returns, so no frontier outlives the step that consumes it.

def _assigned(node: Assign, frontier: dict) -> dict:
    index, expr = node.var.index, node.expr
    acc = {}
    for (store, rem), w in frontier.items():
        try:
            v = eval_expr(expr, store)
        except Undefined:
            continue
        q = (update(store, index, v), rem)
        old = acc.get(q)
        acc[q] = w if old is None else old + w
    return acc


def _sampled(node: Sample, frontier: dict, disc: Discretization) -> dict:
    index = node.var.index
    acc = {}
    for (store, rem), w in frontier.items():
        for a in disc:
            q = (update(store, index, a), rem)
            old = acc.get(q)
            acc[q] = w if old is None else old + w
    return acc


def _flowed(node: DiffBlock, frontier: dict, out: dict, flow_method) -> dict:
    """The points that finish the block; those that reach the end of time
    first stop as E-points, whose weights are added to `out`."""
    duration = node.duration
    acc = {}
    for (store, rem), w in frontier.items():
        try:
            d = eval_expr(duration, store)
            if d < 0.0:
                continue
            if d > rem:
                e = ode.flow(node, store, rem, flow_method)
                old = out.get(e)
                out[e] = w if old is None else old + w
            else:
                q = (ode.flow(node, store, d, flow_method), rem - d)
                old = acc.get(q)
                acc[q] = w if old is None else old + w
        except Undefined:
            continue
    return acc


def _split(cond, frontier: dict, false_share: dict) -> dict:
    """The points of `frontier` where `cond` holds.  Those where it fails
    are added to `false_share`; those where it is undefined lose their
    mass."""
    true_share = {}
    for key, w in frontier.items():
        try:
            guard = eval_bool(cond, key[0])
        except Undefined:
            continue
        if guard:
            true_share[key] = w
        else:
            old = false_share.get(key)
            false_share[key] = w if old is None else old + w
    return true_share


def _branched(node: If, frontier: dict, den: int, todo: list) -> dict:
    """The then-branch's share of `frontier`, with the branches and the
    else-branch's share pushed on `todo`."""
    else_share = {}
    then_share = _split(node.cond, frontier, else_share)
    todo.append((_ELSE, node.else_branch, else_share, den))
    todo.append(node.then_branch)
    return then_share


def _joined(then_out: dict, then_den: int, frontier: dict, den: int):
    """The then-branch's output plus the else-branch's, in that order:
    (weights, den).  `then_out` is reused."""
    acc, frontier, den = _common(then_out, then_den, frontier, den)
    for key, w in frontier.items():
        old = acc.get(key)
        acc[key] = w if old is None else old + w
    return acc, den


def _round(frame: tuple, frontier: dict, den: int, todo: list):
    """One round of a loop on `frontier`: the next frontier, (weights, den).

    Points where the guard fails join `stay`, the points that left the loop
    in earlier rounds.  Points where it holds are the next frontier, with
    the body and the next round pushed on `todo`; when there are none, or
    the rounds have run out, `stay` is."""
    _, loop, left, stay, stay_den = frame
    if not left:
        return stay, stay_den
    stay, frontier, den = _common(stay, stay_den, frontier, den)
    through = _split(loop.cond, frontier, stay)
    if not through:
        return stay, den
    todo.append((_ROUND, loop, left - 1, stay, den))
    todo.append(loop.body)
    return through, den


def _push(program: Program, mu: DiscMeasure, disc: Discretization, max_unfold: int,
          flow_method) -> DiscMeasure:
    """The Kleisli extension of `denote(program, ...)`, applied to `mu`.

    The X-mass is a frontier ((store, t) -> weight) pushed through the
    program one node at a time, with a work stack instead of recursion:

    * an atomic node maps every frontier point once into a new frontier;
    * `If` splits the frontier by its guard (guard errors lose their mass),
      runs each branch on its share and merges the two outputs;
    * `Seq` pushes its rest, then its first, on the stack;
    * `While` runs up to `max_unfold` rounds.  Each round splits the
      frontier by the guard: false points leave the loop, error points are
      dropped, and true points go once through the body, whose output is
      the next frontier.  What is left after the last round is dropped:
      the loop denotes its `max_unfold`-th Kleene approximant, the index
      at which `enumerate_operational` truncates.

    E-mass, wherever it arises, goes straight to the output (store ->
    weight), as the extension passes it through everything that follows.

    Weights are carried without building a `Fraction` or a point per step.
    `mu`'s weights are `int`s and `Fraction`s (see `DiscMeasure`), so each
    weight is an `int` over one denominator per frontier (and one for the
    E-output): it starts as the lcm of `mu`'s denominators, a `Sample`
    multiplies it by k, and where two frontiers meet (an `If`'s join, a
    loop's leaving points, the E-output) the smaller denominator is brought
    up to their lcm.  `XPoint`s, `EPoint`s and `Fraction`s are
    built once, for the output, which `DiscMeasure._adopt` validates: its
    weights, its mass and each `XPoint`'s remaining time.  A frontier's t
    needs no check of its own: it starts as an input point's checked t0,
    and a differential block of duration d with 0 <= d <= t keeps t - d,
    so every t is t0 minus a sum of such durations, in [0, t0].

    Equal points are merged as they arrive.  This is the identification
    the output measure makes anyway, and no later step can tell merged
    points apart: store entries are finite floats, so equal stores differ
    at most in the sign of a zero, and every guard (`<=`), error test
    (`/` tests `d == 0.0`, `ln` and `sqrt` compare with zero, durations
    with `<` and `>`), primitive and flow maps equal arguments to equal
    results or errs on both.  So cost grows with the number of distinct
    points per node, not with the number of paths.
    """
    den = lcm(*[w.denominator for _, w in mu.items()])
    out, frontier = {}, {}
    for pt, w in mu.items():
        w = w.numerator * (den // w.denominator)
        if type(pt) is EPoint:
            out[pt.store] = w
        else:
            frontier[pt.store, pt.t] = w
    out_den = den
    todo = [program]
    while todo:
        node = todo.pop()
        t = type(node)
        if t is tuple:
            tag = node[0]
            if tag == _ELSE:
                # the frontier is the then-branch's output
                todo.append((_JOIN, frontier, den))
                todo.append(node[1])
                frontier, den = node[2], node[3]
            elif tag == _JOIN:
                if node[1]:
                    frontier, den = _joined(node[1], node[2], frontier, den)
            else:
                # _ROUND: the frontier enters the loop's guard
                frontier, den = _round(node, frontier, den, todo)
            continue
        if not frontier:
            continue
        if t is Seq:
            todo.append(node.rest)
            todo.append(node.first)
        elif t is Assign:
            frontier = _assigned(node, frontier)
        elif t is Sample:
            frontier = _sampled(node, frontier, disc)
            den *= disc.k
        elif t is DiffBlock:
            out, frontier, den = _common(out, out_den, frontier, den)
            out_den = den
            frontier = _flowed(node, frontier, out, flow_method)
        elif t is If:
            frontier = _branched(node, frontier, den, todo)
        elif t is While:
            todo.append((_ROUND, node, max_unfold, {}, den))
        else:  # pragma: no cover
            raise TypeError(f"not a program node: {node!r}")
    points = {EPoint(store): Fraction(w, out_den) for store, w in out.items()}
    for (store, rem), w in frontier.items():
        points[XPoint(store, rem)] = Fraction(w, den)
    return DiscMeasure._adopt(points)


def _check_bounds(max_unfold: int, branch_cap: int) -> None:
    check_index(max_unfold)
    if branch_cap < 1:
        # every enumeration explores its root, so a smaller cap always fires
        raise ValueError("the branch cap must be at least 1")


def enumerate_operational(
    program: Program,
    store: tuple,
    t: float,
    disc: Discretization,
    max_unfold: int,
    branch_cap: int = DEFAULT_BRANCH_CAP,
    flow_method=None,
) -> DiscMeasure:
    """Exhaust the functional semantics over all draw sequences.

    Each sampling instruction forks k ways over the discretization's
    atoms, at weight 1/k per branch; loops run at the same Kleene index
    as `denote`.  Branches ending Bottom contribute no mass.

    A run that reaches a draw stops with its resume state (work stack,
    store, t; see `bigstep._functional`), on which alone its future
    depends.  So the draw tree is walked one draw depth at a time over
    that depth's distinct resume states, each with the number of paths
    reaching it: every (state, atom) pair resumes once, from a source
    holding just its atom, and a branch that ends adds paths * (1/k)**depth
    to its point.  The sums are path counts in integers at the scale
    k**depth, and each point gets one `Fraction` at the end.  A state is keyed
    by its store, t and the identity of its stack's nodes, all subterms of
    `program` (a loop frame: its loop's identity and index).  Equal stores
    differ at most in the sign of a zero, which no later step can tell
    apart (see `_push`).

    `explored` counts runs of the functional semantics: the root, then one
    per (state, atom) pair, the draw tree's nodes when no paths meet.
    `branch_cap` (at least 1) bounds it, and a state's atoms are taken one
    at a time, so a large k costs nothing before the cap fires.
    """
    _check_bounds(max_unfold, branch_cap)
    k = disc.k
    where: dict = {}  # each ending point's place in `sums`, in order of arrival
    sums = []  # path counts over k**depth
    # the runs of one depth: (work stack, store, t, source, paths)
    runs = [([] if program is None else [program], store, t, Enumerator(disc, ()), 1)]
    depth = explored = 0
    while True:
        states: dict = {}  # the next depth's resume states
        for stack, store, t, source, paths in runs:
            explored += 1
            if explored > branch_cap:
                raise BranchExplosion(explored, branch_cap)
            try:
                out = _functional(stack, store, t, source, max_unfold, flow_method)
            except EntropyExhausted as exc:
                stack, store, t = exc.resume
                key = (store, t, *[id(n) if type(n) is not tuple else (id(n[0]), n[1])
                                   for n in stack])
                states.setdefault(key, [stack, store, t, 0])[3] += paths
            else:
                if out is not BOTTOM:
                    pt = XPoint(out.store, out.t) if type(out) is Normal else EPoint(out.store)
                    i = where.setdefault(pt, len(sums))
                    if i == len(sums):
                        sums.append(paths)
                    else:
                        sums[i] += paths
        if not states:
            den = k ** depth
            return DiscMeasure._adopt({pt: Fraction(n, den) for pt, n in zip(where, sums)})
        depth += 1
        sums = [n * k for n in sums]
        runs = ((stack.copy(), store, t, Enumerator(disc, (i,)), paths)
                for stack, store, t, paths in states.values() for i in range(k))


@dataclass
class AdequacyReport:
    tv: float
    passed: bool
    max_unfold: int
    operational_support: int
    denotational_support: int
    operational_mass: float
    denotational_mass: float


def adequacy_check(
    program: Program,
    mu0: DiscMeasure,
    disc: Discretization,
    max_unfold: int,
    branch_cap: int = DEFAULT_BRANCH_CAP,
    flow_method=None,
) -> AdequacyReport:
    """Compare enumerated-operational and denotational output measures.

    The operational side is the Kleisli extension of the enumeration
    kernel applied to `mu0`; the denotational side pushes `mu0` through
    the program.  Both truncate every loop at the same Kleene index, so
    they must coincide point for point; the report's tv field is the total
    variation distance between them, and the check passes only where it is
    exactly zero.
    """
    _check_bounds(max_unfold, branch_cap)
    operational = kleisli_extend(lambda pt: enumerate_operational(
        program, pt.store, pt.t, disc, max_unfold, branch_cap, flow_method))(mu0)
    denotational = _push(program, mu0, disc, max_unfold, flow_method)
    tv = tv_distance(operational, denotational)
    return AdequacyReport(
        tv=float(tv),
        passed=tv == 0,
        max_unfold=max_unfold,
        operational_support=len(operational),
        denotational_support=len(denotational),
        operational_mass=float(operational.mass()),
        denotational_mass=float(denotational.mass()),
    )
