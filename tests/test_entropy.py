import numpy as np
import pytest
from scipy import stats

from swhile.entropy import (
    Enumerator,
    EntropyExhausted,
    FinitePrefix,
    PrngStream,
    from_seed,
    split_seed,
)


def test_finite_prefix_head_tail():
    src = FinitePrefix((0.7, 0.2))
    h, rest = src.draw()
    assert h == 0.7
    assert rest == FinitePrefix((0.7, 0.2), 1)
    h2, rest2 = rest.draw()
    assert h2 == 0.2
    with pytest.raises(EntropyExhausted):
        rest2.draw()


def test_finite_prefix_validates_range():
    with pytest.raises(ValueError):
        FinitePrefix((1.5,))


def test_prng_reproducible_from_seed():
    a = from_seed(42)
    b = from_seed(42)
    for _ in range(10):
        ha, a = a.draw()
        hb, b = b.draw()
        assert ha == hb


def test_draw_is_functional_not_mutating():
    src = from_seed(3)
    h1, _ = src.draw()
    h2, _ = src.draw()
    assert h1 == h2
    assert src.counter == 0


def test_different_seeds_diverge():
    # recorded property: among the first 100 draws some value differs
    a, b = from_seed(1), from_seed(2)
    values_a, values_b = [], []
    for _ in range(100):
        ha, a = a.draw()
        hb, b = b.draw()
        values_a.append(ha)
        values_b.append(hb)
    assert values_a != values_b


def test_seed_zero_is_valid():
    h, nxt = from_seed(0).draw()
    assert 0.0 <= h <= 1.0
    assert nxt.counter == 1


def test_enumerator_follows_path():
    src = Enumerator(atoms=(0.25, 0.75), path=(1,))
    h, rest = src.draw()
    assert h == 0.75
    with pytest.raises(EntropyExhausted):
        rest.draw()


def test_split_seed_streams_differ_from_base_and_each_other():
    base = 12345
    streams = [from_seed(split_seed(base, i)) for i in range(3)] + [from_seed(base)]
    firsts = []
    for s in streams:
        vals = []
        for _ in range(20):
            h, s = s.draw()
            vals.append(h)
        firsts.append(tuple(vals))
    assert len(set(firsts)) == len(firsts)


def test_all_draws_in_unit_interval_and_uniform():
    # 10^6 draws: mean within 0.5 +- 0.005, 100-bin chi-square at 0.001
    n = 10 ** 6
    seed = 2024
    values = np.empty(n)
    src = PrngStream(seed)
    for i in range(n):
        h, src = src.draw()
        values[i] = h
    assert float(values.min()) >= 0.0
    assert float(values.max()) <= 1.0
    assert abs(float(values.mean()) - 0.5) < 0.005
    counts, _ = np.histogram(values, bins=100, range=(0.0, 1.0))
    expected = n / 100
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    critical = stats.chi2.ppf(1 - 0.001, df=99)
    assert chi2 < critical, f"chi2={chi2:.1f} critical={critical:.1f}"
