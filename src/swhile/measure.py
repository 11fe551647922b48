"""Finite-support subdistributions over termination outcomes.

Outcomes are points of two kinds: an E-point carries just a store (a
time-based termination), an X-point carries a store plus the remaining
time (a normal termination).  A measure maps finitely many points to
positive weights with total mass at most one; the missing mass encodes
divergence and evaluation errors.  Weights are exact rationals: `int`s
and `fractions.Fraction`s.  A measure takes any other weight, such as a
float, as the exact rational it is (`Fraction(w)`), so ten weights of
0.1 exceed mass one.  Sums are taken in integers over a common
denominator (see `_total`), with the value of the left-to-right sum.

Points and measures are built where a result leaves a semantics, not per
step: `denotational._push` carries its weights as `int`s over one
denominator, keyed by (store, t) tuples and stores, and builds each
`XPoint`, `EPoint` and `Fraction` once, for the output measure, which
`_validated` checks like any other.  The `XPoint` constructor is where a
remaining time is checked.

Kernels (functions from X-points to measures) extend to measures: E-mass
passes through untouched while X-mass is pushed through the kernel and
re-aggregated.  That extension is linear and never increases total mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class EPoint:
    store: tuple


def _check_remaining_time(self):
    """The `__post_init__` of `XPoint` and of `smallstep.Config`: the
    remaining time `self.t` must be finite and nonnegative."""
    t = self.t
    if not 0 <= t < _INF:  # also rejects NaN, for which t < 0 is false
        raise ValueError("remaining time must be finite" if t == _INF
                         else "remaining time must be nonnegative")


@dataclass(frozen=True, slots=True)
class XPoint:
    store: tuple
    t: float

    __post_init__ = _check_remaining_time


Point = EPoint | XPoint


def _total(weights):
    """The sum of `weights`, `int`s and `Fraction`s, as a `Fraction`.

    The numerators are summed as integers over the lcm of the denominators
    and one `Fraction` is built at the end, instead of normalising the sum
    after every add.
    """
    pairs = [v.as_integer_ratio() for v in weights]
    den = lcm(*{d for _, d in pairs})
    return Fraction(sum([n * (den // d) for n, d in pairs]), den)


def _validated(w: dict) -> dict:
    """`w` with its zero weights deleted and any weight that is neither an
    `int` nor a `Fraction` replaced by the exact rational it is, once every
    key is a point, every weight finite and nonnegative and the total mass
    at most one."""
    zeros = []
    for pt, v in w.items():
        if not isinstance(pt, (EPoint, XPoint)):
            raise TypeError(f"not a point: {pt!r}")
        t = type(v)
        if t is Fraction:
            v = v.numerator  # same sign, and an int compares faster
        elif t is not int:
            # a float, say, checked first: Fraction(inf) raises
            # OverflowError, and NaN fails both comparisons
            if not 0 <= v < _INF:
                raise ValueError("weights must be finite" if v == _INF
                                 else "weights must be nonnegative")
            w[pt] = v = Fraction(v)
        if v < 0:
            raise ValueError("weights must be nonnegative")
        if v == 0:
            zeros.append(pt)
    for pt in zeros:
        del w[pt]
    total = _total(w.values())
    if total > 1:
        raise ValueError(f"total mass {total} exceeds 1")
    return w


class DiscMeasure:
    """Finite map from points to positive weights, total mass <= 1."""

    __slots__ = ("_w",)

    def __init__(self, weights=None):
        # copying a dict keeps its stored hashes, so no point is hashed again
        self._w = _validated(dict(weights or {}))

    @classmethod
    def _adopt(cls, weights: dict) -> "DiscMeasure":
        """The measure of `weights` itself, validated in place and not
        copied: for a caller that hands over a dict it no longer uses."""
        self = cls.__new__(cls)
        self._w = _validated(weights)
        return self

    def items(self):
        return self._w.items()

    def weight(self, pt) -> float:
        return self._w.get(pt, 0)

    def support(self):
        return self._w.keys()

    def mass(self):
        return _total(self._w.values())

    def __eq__(self, other):
        return isinstance(other, DiscMeasure) and self._w == other._w

    def __len__(self):
        return len(self._w)

    def __repr__(self):
        entries = ", ".join(f"{v!r}*{pt!r}" for pt, v in sorted(self._w.items(), key=repr))
        return f"DiscMeasure({entries})"


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
                old = acc.get(pt)
                acc[pt] = w if old is None else old + w
            else:
                # a weight of one, such as a point mass's, scales nothing
                scale = w != 1
                for q, v in kernel(pt).items():
                    if scale:
                        v = w * v
                    old = acc.get(q)
                    acc[q] = v if old is None else old + v
        return DiscMeasure._adopt(acc)

    return extended


def tv_distance(mu: DiscMeasure, nu: DiscMeasure):
    """Total variation norm of mu - nu: sum of |weight differences|.

    The differences are taken as integers over the lcm of the
    denominators, as in `_total`.
    """
    mw, nw = mu._w, nu._w
    den = lcm(*{v.denominator for v in (*mw.values(), *nw.values())})
    diff = {pt: v.numerator * (den // v.denominator) for pt, v in mw.items()}
    for pt, v in nw.items():
        diff[pt] = diff.get(pt, 0) - v.numerator * (den // v.denominator)
    return Fraction(sum(map(abs, diff.values())), den)
