"""Finite-support subdistributions over termination outcomes.

Outcomes are points of two kinds: an E-point carries just a store (a
time-based termination), an X-point carries a store plus the remaining
time (a normal termination).  A measure maps finitely many points to
positive weights with total mass at most one; the missing mass encodes
divergence and evaluation errors.  Weights may be floats or
`fractions.Fraction`s -- all operations are agnostic, so an exact-weight
mode is just a matter of feeding rational weights in.

Kernels (functions from X-points to measures) extend to measures: E-mass
passes through untouched while X-mass is pushed through the kernel and
re-aggregated.  That extension is linear and never increases total mass.
"""

from __future__ import annotations

from dataclasses import dataclass

# A total may exceed one by rounding: _MASS_SLACK for the rounding inside
# the weights, plus 2**-52 per weight for a left-to-right float sum of n
# weights near one, which errs by less than n * 2**-52.
_MASS_SLACK = 1e-12
_INF = float("inf")


@dataclass(frozen=True, slots=True)
class EPoint:
    store: tuple


@dataclass(frozen=True, slots=True)
class XPoint:
    store: tuple
    t: float

    def __post_init__(self):
        t = self.t
        if not 0 <= t < _INF:  # also rejects NaN, for which t < 0 is false
            raise ValueError("remaining time must be finite" if t == _INF
                             else "remaining time must be nonnegative")


Point = EPoint | XPoint


class DiscMeasure:
    """Finite map from points to positive weights, total mass <= 1."""

    __slots__ = ("_w",)

    def __init__(self, weights=None):
        w = {}
        total = 0
        for pt, v in (weights or {}).items():
            if not isinstance(pt, (EPoint, XPoint)):
                raise TypeError(f"not a point: {pt!r}")
            if v < 0:
                raise ValueError("weights must be nonnegative")
            if v == 0:
                continue
            w[pt] = v
            total += v
        if total > 1 + _MASS_SLACK + len(w) * 2.0 ** -52:
            raise ValueError(f"total mass {total} exceeds 1")
        self._w = w

    def items(self):
        return self._w.items()

    def weight(self, pt) -> float:
        return self._w.get(pt, 0)

    def support(self):
        return self._w.keys()

    def mass(self):
        return sum(self._w.values())

    def scaled(self, factor) -> "DiscMeasure":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        return DiscMeasure({pt: factor * v for pt, v in self._w.items()})

    def __add__(self, other: "DiscMeasure") -> "DiscMeasure":
        acc = dict(self._w)
        for pt, v in other._w.items():
            acc[pt] = acc.get(pt, 0) + v
        return DiscMeasure(acc)

    def __eq__(self, other):
        return isinstance(other, DiscMeasure) and self._w == other._w

    def __len__(self):
        return len(self._w)

    def __repr__(self):
        entries = ", ".join(f"{v!r}*{pt!r}" for pt, v in sorted(self._w.items(), key=repr))
        return f"DiscMeasure({entries})"


ZERO = DiscMeasure()


def dirac(pt: Point) -> DiscMeasure:
    """Point mass: weight one on `pt`."""
    return DiscMeasure({pt: 1})


def kleisli_extend(kernel):
    """Lift an X-point kernel to act on measures.

    E-points propagate unchanged (terminations inhibit what follows);
    X-points are fed to the kernel and the results weight-summed.
    """

    def extended(mu: DiscMeasure) -> DiscMeasure:
        acc = {}
        for pt, w in mu.items():
            if type(pt) is EPoint:
                acc[pt] = acc.get(pt, 0) + w
            else:
                for q, v in kernel(pt).items():
                    acc[q] = acc.get(q, 0) + w * v
        return DiscMeasure(acc)

    return extended


def tv_distance(mu: DiscMeasure, nu: DiscMeasure):
    """Total variation norm of mu - nu: sum of |weight differences|."""
    points = set(mu.support()) | set(nu.support())
    return sum(abs(mu.weight(pt) - nu.weight(pt)) for pt in points)
