import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from swhile.measure import (
    DiscMeasure,
    EPoint,
    XPoint,
    dirac,
    kleisli_extend,
    tv_distance,
)

from randmeasure import mixture, random_kernel, random_measure, random_point


def test_dirac_has_unit_mass():
    mu = dirac(XPoint((1.0,), 2.0))
    assert mu.mass() == 1
    assert len(mu) == 1


def test_measure_invariants():
    with pytest.raises(ValueError):
        DiscMeasure({EPoint((0.0,)): 1.5})
    with pytest.raises(ValueError):
        DiscMeasure({EPoint((0.0,)): -0.1})
    with pytest.raises(TypeError):
        DiscMeasure({(1.0,): 0.5})
    # zero weights are dropped
    mu = DiscMeasure({EPoint((0.0,)): 0.0, EPoint((1.0,)): 0.5})
    assert len(mu) == 1


def test_a_float_weight_is_the_exact_rational_it_is():
    pt = EPoint((0.0,))
    for w in (0.1, 0.5, 1.0, 5e-324):
        v = DiscMeasure({pt: w}).weight(pt)
        assert type(v) is Fraction and v == Fraction(w)
    assert DiscMeasure({pt: 0.1}).weight(pt) != Fraction(1, 10)
    assert DiscMeasure({pt: 0.1}) == DiscMeasure({pt: Fraction(0.1)})


def test_ten_weights_of_a_tenth_exceed_mass_one():
    # the float 0.1 lies just above 1/10, so ten of them exceed 1 exactly,
    # although their left-to-right float sum is 0.9999999999999999
    assert sum([0.1] * 10) < 1 < 10 * Fraction(0.1)
    with pytest.raises(ValueError, match="exceeds 1"):
        DiscMeasure({EPoint((float(i),)): 0.1 for i in range(10)})
    nine = DiscMeasure({EPoint((float(i),)): 0.1 for i in range(9)})
    assert nine.mass() == 9 * Fraction(0.1)


@pytest.mark.parametrize("w, message", [(float("inf"), "finite"), (float("nan"), "nonnegative"),
                                        (-0.25, "nonnegative"), (float("-inf"), "nonnegative")])
def test_infinite_nan_and_negative_float_weights_are_refused(w, message):
    # Fraction(inf) raises OverflowError, so the checks come before the conversion
    with pytest.raises(ValueError, match=message):
        DiscMeasure({EPoint((0.0,)): w})
    with pytest.raises(ValueError, match=message):
        DiscMeasure._adopt({XPoint((0.0,), 1.0): 0.5, EPoint((0.0,)): w})


def test_xpoint_time_nonnegative():
    with pytest.raises(ValueError):
        XPoint((0.0,), -1.0)


def test_e_points_pass_through_extension():
    pt = EPoint((3.0,))
    mu = dirac(pt)
    calls = []

    def kernel(x):
        calls.append(x)
        return dirac(x)

    assert kleisli_extend(kernel)(mu) == mu
    assert calls == []  # terminations are merely propagated


def test_extension_is_linear_on_finite_support():
    x1, x2 = XPoint((0.0,), 1.0), XPoint((1.0,), 1.0)
    mu = DiscMeasure({x1: 0.5, x2: 0.5})
    k = random_kernel(11)
    out = kleisli_extend(k)(mu)
    expected = mixture((0.5, k(x1)), (0.5, k(x2)))
    assert tv_distance(out, expected) < 1e-15


def test_left_unit_law_randomized():
    rng = random.Random(1)
    for i in range(100):
        k = random_kernel(i)
        pt = random_point(rng)
        if isinstance(pt, EPoint):
            continue
        assert tv_distance(kleisli_extend(k)(dirac(pt)), k(pt)) < 1e-12


def test_a_point_mass_passes_its_kernel_weights_on_unscaled():
    # every kernel weight used to be multiplied by the int 1 of a point mass:
    # one Fraction product per enumerated point of every adequacy check
    pt, q = XPoint((0.0,), 1.0), EPoint((1.0,))
    third = Fraction(1, 3)
    for one in (1, Fraction(1), 1.0):
        out = kleisli_extend(lambda x: DiscMeasure({q: third}))(DiscMeasure({pt: one}))
        assert out.weight(q) is third
    half = kleisli_extend(lambda x: DiscMeasure({q: third}))(DiscMeasure({pt: 0.5}))
    assert half.weight(q) == Fraction(1, 6)


def test_right_unit_law():
    rng = random.Random(2)
    for _ in range(100):
        mu = random_measure(rng)
        assert kleisli_extend(dirac)(mu) == mu


def test_associativity_randomized():
    rng = random.Random(3)
    for i in range(100):
        f, g = random_kernel(2 * i), random_kernel(2 * i + 1)
        mu = random_measure(rng)
        lhs = kleisli_extend(f)(kleisli_extend(g)(mu))
        rhs = kleisli_extend(lambda x: kleisli_extend(f)(g(x)))(mu)
        assert tv_distance(lhs, rhs) < 1e-12


def test_linearity_randomized():
    rng = random.Random(4)
    for i in range(100):
        k = random_kernel(i + 1000)
        mu, nu = random_measure(rng, total=0.5), random_measure(rng, total=0.5)
        a, b = rng.uniform(0, 0.5), rng.uniform(0, 0.5)
        lhs = kleisli_extend(k)(mixture((a, mu), (b, nu)))
        rhs = mixture((a, kleisli_extend(k)(mu)), (b, kleisli_extend(k)(nu)))
        assert tv_distance(lhs, rhs) < 1e-12


def test_mass_contraction_randomized():
    rng = random.Random(5)
    for i in range(100):
        k = random_kernel(i + 2000)
        mu = random_measure(rng)
        assert kleisli_extend(k)(mu).mass() <= mu.mass() + 1e-12


def test_tv_basic_values():
    a, b = EPoint((0.0,)), EPoint((1.0,))
    assert tv_distance(dirac(a), dirac(a)) == 0
    # distinct unit masses are at distance 2 over the partition {a}, {b}
    assert tv_distance(dirac(a), dirac(b)) == 2


def test_tv_triangle_randomized():
    rng = random.Random(7)
    for _ in range(100):
        mu, nu, rho = (random_measure(rng) for _ in range(3))
        assert tv_distance(mu, rho) <= tv_distance(mu, nu) + tv_distance(nu, rho) + 1e-12


@given(st.floats(0, 0.5), st.floats(0, 0.5))
def test_tv_symmetry(a, b):
    p, q = EPoint((0.0,)), EPoint((1.0,))
    mu = DiscMeasure({p: a, q: 0.5 - a / 2})
    nu = DiscMeasure({p: b, q: 0.5})
    assert tv_distance(mu, nu) == tv_distance(nu, mu)


def test_fraction_weights_supported():
    pt = XPoint((0.0,), 1.0)
    mu = DiscMeasure({pt: Fraction(1, 3), EPoint((0.0,)): Fraction(2, 3)})
    assert mu.mass() == 1
    half = mixture((Fraction(1, 2), mu))
    assert half.weight(pt) == Fraction(1, 6)
    assert tv_distance(mu, mu) == 0


def test_nan_weights_are_refused():
    # NaN is neither negative nor zero, and a NaN total passes the mass
    # check, so a NaN weight used to hide the mass of the others (here 1.2)
    a, b, c = EPoint((0.0,)), EPoint((1.0,)), EPoint((2.0,))
    with pytest.raises(ValueError, match="nonnegative"):
        DiscMeasure({a: 0.5, b: float("nan"), c: 0.7})
    with pytest.raises(ValueError, match="nonnegative"):
        DiscMeasure({a: float("nan")})


class CountingPoint(XPoint):
    __slots__ = ()
    hashes = 0

    def __hash__(self):
        CountingPoint.hashes += 1
        return XPoint.__hash__(self)


def test_building_a_measure_hashes_no_point():
    # the weights are copied with their stored hashes; each point is hashed
    # once, when the caller's dict is built
    d = {CountingPoint((float(i),), 1.0): Fraction(1, 4 + i) for i in range(4)}
    d[EPoint((9.0,))] = Fraction(1, 8)
    CountingPoint.hashes = 0
    mu = DiscMeasure(d)
    assert CountingPoint.hashes == 0
    assert list(mu.support()) == list(d)


# Points and weights for the comparison with plain left-to-right `Fraction`
# sums.
_POINTS = [EPoint((0.0,)), EPoint((1.0,)), XPoint((0.0,), 1.0), XPoint((1.0,), 0.5),
           XPoint((2.0,), 0.0), EPoint((-0.5,))]
_DENOMINATORS = [1, 2, 3, 5, 7, 8, 12, 27, 64, 1000, 2 ** 40, 3 ** 20]


@st.composite
def _weight(draw, n):
    kind = draw(st.sampled_from(["fraction", "fraction", "fraction", "int", "zero", "float"]))
    if kind == "fraction":
        d = draw(st.sampled_from(_DENOMINATORS))
        return Fraction(draw(st.integers(0, 2 * d)), d * n)
    if kind == "int":
        return draw(st.integers(0, 1))
    if kind == "zero":
        return draw(st.sampled_from([0, 0.0, Fraction(0)]))
    return draw(st.floats(0, 2 / n))


@st.composite
def _weights(draw, invalid=False):
    points = draw(st.lists(st.sampled_from(_POINTS), max_size=len(_POINTS), unique=True))
    n = max(len(points), 1)
    weights = {pt: draw(_weight(n)) for pt in points}
    if invalid and draw(st.booleans()):
        bad = draw(st.sampled_from([-Fraction(1, 3), -1, -0.25, float("nan"), float("inf")]))
        weights[draw(st.sampled_from(_POINTS))] = bad
    if invalid and draw(st.booleans()):
        weights[(float(draw(st.integers(0, 3))),)] = draw(_weight(n))
    return weights


def _plain_measure(weights):
    """The checks and the mass of a measure as one left-to-right loop with
    plain `Fraction` arithmetic, a float weight taken as `Fraction(w)`:
    (nonzero weights, total) or the exception."""
    kept, total = {}, Fraction(0)
    for pt, v in weights.items():
        if not isinstance(pt, (EPoint, XPoint)):
            return TypeError(f"not a point: {pt!r}")
        if not v >= 0:
            return ValueError("weights must be nonnegative")
        if v == float("inf"):
            return ValueError("weights must be finite")
        if v == 0:
            continue
        if type(v) not in (int, Fraction):
            v = Fraction(v)
        kept[pt] = v
        total += v
    if total > 1:
        return ValueError(f"total mass {total} exceeds 1")
    return kept, total


def _same(a, b):
    # equal value and type
    return type(a) is type(b) and repr(a) == repr(b)


@given(_weights(invalid=True))
def test_measure_matches_plain_fraction_sums(weights):
    want = _plain_measure(weights)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as got:
            DiscMeasure(weights)
        assert str(got.value) == str(want)
        return
    kept, total = want
    mu = DiscMeasure(weights)
    assert list(mu.items()) == list(kept.items())
    assert all(_same(v, kept[pt]) for pt, v in mu.items())
    assert _same(mu.mass(), total)


@given(_weights(invalid=True))
def test_an_adopted_dict_is_validated_as_a_copied_one(weights):
    # _adopt checks and drops zeros as the constructor does, but in the
    # caller's dict itself, which the measure then holds
    try:
        want = DiscMeasure(weights)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match="^" + re.escape(str(exc)) + "$"):
            DiscMeasure._adopt(dict(weights))
        return
    handed = dict(weights)
    mu = DiscMeasure._adopt(handed)
    assert mu._w is handed
    assert list(mu.items()) == list(want.items())
    assert _same(mu.mass(), want.mass())


@given(_weights(), _weights())
def test_tv_distance_matches_plain_fraction_sums(mw, nw):
    assume(not isinstance(_plain_measure(mw), Exception))
    assume(not isinstance(_plain_measure(nw), Exception))
    mu, nu = DiscMeasure(mw), DiscMeasure(nw)
    points = set(mu.support()) | set(nu.support())
    want = Fraction(0)
    for pt in points:
        want += abs(mu.weight(pt) - nu.weight(pt))
    assert _same(tv_distance(mu, nu), want)
