"""Measure semantics over a discretized sampling instruction, plus the
checker that compares it against exhaustive operational enumeration.

Sampling is interpreted through a k-point discretization of the unit
interval: atoms (2i+1)/2k, each of weight 1/k.  The midpoints avoid
comparison thresholds such as 0.5 for even k, which keeps branch splits
of encoded coin flips tie-free.  With `exact=True` weights are rational
and the operational/denotational comparison comes out exactly zero.

Every clause turns undefinedness into lost mass ("0 otherwise"), so a
program's missing mass records its error/divergence probability.  Loops
are the `max_unfold`-th Kleene approximant: approximant 0 is the zero
measure, approximant i+1 unfolds once.  The enumeration side truncates
loops at the same index, which is exactly what makes the two sides
comparable at finite depth.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import ode
from .bigstep import BOTTOM, eval_functional
from .entropy import Enumerator, EntropyExhausted
from .measure import DiscMeasure, EPoint, XPoint, ZERO, dirac, kleisli_extend, tv_distance
from .smallstep import Normal
from .store import Undefined, eval_bool, eval_expr, update
from .syntax import Assign, DiffBlock, If, Program, Sample, Seq, While

TV_TOLERANCE = 1e-9
DEFAULT_BRANCH_CAP = 10 ** 7


class BranchExplosion(Exception):
    def __init__(self, explored: int, cap: int):
        super().__init__(f"enumeration explored {explored} branches, cap is {cap}")
        self.explored = explored
        self.cap = cap


@dataclass(frozen=True, slots=True)
class Discretization:
    """k midpoint atoms of the unit interval, each carrying weight 1/k."""

    k: int
    exact: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")

    @property
    def atoms(self) -> tuple:
        return tuple((2 * i + 1) / (2 * self.k) for i in range(self.k))

    @property
    def atom_weight(self):
        return Fraction(1, self.k) if self.exact else 1.0 / self.k


def denote(program: Program, disc: Discretization, max_unfold: int, flow_method=None):
    """The program's kernel: X-point -> finite-support subdistribution."""
    t = type(program)
    if t is Assign:
        index, expr = program.var.index, program.expr

        def assign_kernel(pt: XPoint) -> DiscMeasure:
            try:
                v = eval_expr(expr, pt.store)
            except Undefined:
                return ZERO
            return dirac(XPoint(update(pt.store, index, v), pt.t))

        return assign_kernel
    if t is Sample:
        index = program.var.index
        atoms, weight = disc.atoms, disc.atom_weight

        def sample_kernel(pt: XPoint) -> DiscMeasure:
            return DiscMeasure(
                {XPoint(update(pt.store, index, a), pt.t): weight for a in atoms}
            )

        return sample_kernel
    if t is DiffBlock:
        duration = program.duration

        def diff_kernel(pt: XPoint) -> DiscMeasure:
            try:
                d = eval_expr(duration, pt.store)
            except Undefined:
                return ZERO
            if d < 0.0:
                return ZERO
            try:
                if d > pt.t:
                    return dirac(EPoint(ode.flow(program, pt.store, pt.t, flow_method)))
                return dirac(XPoint(ode.flow(program, pt.store, d, flow_method), pt.t - d))
            except Undefined:
                return ZERO

        return diff_kernel
    if t is If:
        cond = program.cond
        then_kernel = denote(program.then_branch, disc, max_unfold, flow_method)
        else_kernel = denote(program.else_branch, disc, max_unfold, flow_method)

        def if_kernel(pt: XPoint) -> DiscMeasure:
            try:
                guard = eval_bool(cond, pt.store)
            except Undefined:
                return ZERO
            return then_kernel(pt) if guard else else_kernel(pt)

        return if_kernel
    if t is Seq:
        first_kernel = denote(program.first, disc, max_unfold, flow_method)
        rest_extended = kleisli_extend(denote(program.rest, disc, max_unfold, flow_method))

        def seq_kernel(pt: XPoint) -> DiscMeasure:
            return rest_extended(first_kernel(pt))

        return seq_kernel
    if t is While:
        cond = program.cond
        body_kernel = denote(program.body, disc, max_unfold, flow_method)

        def approximant(i: int, pt: XPoint) -> DiscMeasure:
            if i == 0:
                return ZERO
            try:
                guard = eval_bool(cond, pt.store)
            except Undefined:
                return ZERO
            if not guard:
                return dirac(pt)
            return kleisli_extend(lambda q: approximant(i - 1, q))(body_kernel(pt))

        return lambda pt: approximant(max_unfold, pt)
    raise TypeError(f"not a program node: {program!r}")  # pragma: no cover


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
    """
    atoms = disc.atoms
    weight = disc.atom_weight
    acc: dict = {}
    stack: list[tuple] = [()]
    explored = 0
    while stack:
        path = stack.pop()
        explored += 1
        if explored > branch_cap:
            raise BranchExplosion(explored, branch_cap)
        source = Enumerator(atoms, path)
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


@dataclass
class AdequacyReport:
    tv: float
    passed: bool
    exact: bool
    k: int
    max_unfold: int
    operational_support: int
    denotational_support: int
    operational_mass: float
    denotational_mass: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def adequacy_check(
    program: Program,
    mu0: DiscMeasure,
    disc: Discretization,
    max_unfold: int,
    branch_cap: int = DEFAULT_BRANCH_CAP,
    flow_method=None,
) -> AdequacyReport:
    """Compare enumerated-operational and denotational output measures.

    Both sides start from the same input measure and truncate every loop
    at the same Kleene index, so they must coincide point for point; the
    report's tv field is the total variation distance between them.
    """
    lhs_acc: dict = {}
    for pt, w in mu0.items():
        if type(pt) is EPoint:
            lhs_acc[pt] = lhs_acc.get(pt, 0) + w
            continue
        branch = enumerate_operational(
            program, pt.store, pt.t, disc, max_unfold, branch_cap, flow_method
        )
        for q, v in branch.items():
            lhs_acc[q] = lhs_acc.get(q, 0) + w * v
    operational = DiscMeasure(lhs_acc)
    denotational = kleisli_extend(denote(program, disc, max_unfold, flow_method))(mu0)
    tv = tv_distance(operational, denotational)
    return AdequacyReport(
        tv=float(tv),
        passed=tv <= TV_TOLERANCE,
        exact=disc.exact,
        k=disc.k,
        max_unfold=max_unfold,
        operational_support=len(operational),
        denotational_support=len(denotational),
        operational_mass=float(operational.mass()),
        denotational_mass=float(denotational.mass()),
    )
