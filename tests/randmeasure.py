"""Seeded random measures and kernels for the law tests."""

import random

from swhile.measure import DiscMeasure, EPoint, XPoint


def random_point(rng: random.Random):
    store = (round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3))
    if rng.random() < 0.3:
        return EPoint(store)
    return XPoint(store, round(rng.uniform(0, 4), 3))


def random_measure(rng: random.Random, max_points: int = 4, total: float = 1.0) -> DiscMeasure:
    points = [random_point(rng) for _ in range(rng.randint(1, max_points))]
    raw = [rng.random() for _ in points]
    scale = total * rng.uniform(0.2, 1.0) / sum(raw)
    return DiscMeasure({pt: w * scale for pt, w in zip(points, raw)})


def random_kernel(rng_seed: int):
    """Total deterministic kernel: the output at a point depends only on
    (seed, point), so composed kernels stay well-defined and reproducible."""

    def kernel(pt) -> DiscMeasure:
        rng = random.Random(f"{rng_seed}|{pt!r}")
        if rng.random() < 0.15:
            return DiscMeasure({})  # lose all mass
        return random_measure(rng)

    return kernel


def mixture(*terms) -> DiscMeasure:
    """The measure a1*mu1 + a2*mu2 + ... of the (a, mu) terms, summed point
    by point in term order."""
    acc = {}
    for a, mu in terms:
        for pt, v in mu.items():
            acc[pt] = acc.get(pt, 0) + a * v
    return DiscMeasure(acc)
