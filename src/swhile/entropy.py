"""Entropy sources: streams over [0,1] consumed one value per sampling.

Three realizations of the same draw interface:

* :class:`PrngStream` -- counter-based pseudorandom stream; a draw is a
  pure function of (seed, counter), so streams advance functionally and a
  run is reproducible from its seed alone.
* :class:`FinitePrefix` -- an explicit finite prefix for tests; drawing
  past the end raises :class:`EntropyExhausted`.
* :class:`Enumerator` -- a path through a k-ary tree of atoms, used to
  enumerate every branch of a discretized program; exhaustion signals the
  enumeration driver to fork.

`draw` returns `(value, advanced_source)`; sources are never mutated.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SPLIT_XOR = 0x5851F42D4C957F2D
_SPLIT_GAMMA = 0xD1342543DE82EF95


def _mix64(z: int) -> int:
    # SplitMix64 finalizer
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _value_at(seed: int, counter: int) -> float:
    # top 53 bits -> uniform double in [0, 1)
    return (_mix64((seed + (counter + 1) * _GAMMA) & _MASK64) >> 11) * 2.0 ** -53


class EntropyExhausted(Exception):
    """A finite source was asked for more values than it holds."""


@dataclass(frozen=True, slots=True)
class PrngStream:
    seed: int
    counter: int = 0

    def draw(self):
        return _value_at(self.seed, self.counter), PrngStream(self.seed, self.counter + 1)

    def describe(self) -> dict:
        return {"kind": "prng", "seed": self.seed, "counter": self.counter}


@dataclass(frozen=True, slots=True)
class FinitePrefix:
    values: tuple
    pos: int = 0

    def __post_init__(self):
        for v in self.values:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"entropy value {v!r} outside [0,1]")

    def draw(self):
        if self.pos >= len(self.values):
            raise EntropyExhausted(f"finite prefix of length {len(self.values)} exhausted")
        return self.values[self.pos], FinitePrefix(self.values, self.pos + 1)

    def describe(self) -> dict:
        return {"kind": "prefix", "length": len(self.values), "counter": self.pos}


@dataclass(frozen=True, slots=True)
class Enumerator:
    """Draws follow `path` through the atoms, a sequence such as a
    `denotational.Discretization`; the enumeration extends paths."""

    atoms: Sequence
    path: tuple
    pos: int = 0

    def draw(self):
        if self.pos >= len(self.path):
            raise EntropyExhausted("enumeration path exhausted")
        return self.atoms[self.path[self.pos]], Enumerator(self.atoms, self.path, self.pos + 1)

    def describe(self) -> dict:
        return {"kind": "enumerator", "arity": len(self.atoms), "counter": self.pos}


def from_seed(seed: int) -> PrngStream:
    """Counter-based stream at position zero for a 64-bit seed."""
    return PrngStream(seed & _MASK64, 0)


def split_seed(base_seed: int, index: int) -> int:
    """Derive an independent child seed, e.g. one per Monte Carlo run.

    Uses a mixing chain distinct from the draw path so child streams do
    not overlap windows of the base stream.
    """
    z = (_mix64((base_seed & _MASK64) ^ _SPLIT_XOR) + index * _SPLIT_GAMMA) & _MASK64
    return _mix64(z)
