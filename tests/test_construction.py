"""Arithmetic results against the public constructors that validate.

Arithmetic builds its results without another validation pass, so every
result must already be what the public constructor would build from the
same dict: keys of the kind's key type, nonzero values of its scalar
field.  Elements of different kinds never combine.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skewcalc import (
    DiagonalAut,
    EntirePoly,
    FreeSeries,
    GaussianRational,
    IntervalPoly,
    LaurentOrePoly,
    ScaleAut,
    ShiftAut,
    TwistedSeries,
    mul,
    ore_mul,
)
from skewcalc.bases import MismatchedBaseError

from conftest import q_of

KINDS = (EntirePoly, IntervalPoly, FreeSeries)
SCALAR_TYPE = {EntirePoly: GaussianRational, IntervalPoly: Fraction, FreeSeries: GaussianRational}
KEY_TYPE = {EntirePoly: int, IntervalPoly: int, FreeSeries: tuple}

# few values, so that sums cancel often
rationals = st.sampled_from([Fraction(x) for x in ("0", "1", "-1", "2", "1/2", "-1/2", "-3/2")])
gaussians = st.builds(GaussianRational, rationals, st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 2)]))
degrees = st.integers(0, 4)
free_keys = st.lists(st.integers(0, 1), max_size=2).map(tuple)

KIND_DATA = {
    EntirePoly: (degrees, gaussians),
    IntervalPoly: (degrees, rationals),
    FreeSeries: (free_keys, gaussians),
}


def elements(kind):
    keys, values = KIND_DATA[kind]
    return st.dictionaries(keys, values, max_size=4).map(kind)


def scalars(kind):
    return KIND_DATA[kind][1]


AUTOMORPHISMS = {
    EntirePoly: [ScaleAut(q_of(2)), ScaleAut(q_of("1/2")), ScaleAut(GaussianRational(1, 1)),
                 ShiftAut(1), ShiftAut(Fraction(-1, 2)), ShiftAut(0)],
    IntervalPoly: [ShiftAut(1), ShiftAut(Fraction(-1, 2)), ShiftAut(0)],
    FreeSeries: [DiagonalAut((q_of(2), q_of("1/2"))), DiagonalAut((GaussianRational(0, 1), q_of(3)))],
}


def assert_clean(r, kind):
    """r is what the public constructor builds from its own dict."""
    assert type(r) is kind
    assert kind(dict(r.coeffs)) == r
    for k, c in r.coeffs.items():
        assert c, r
        assert type(c) is SCALAR_TYPE[kind]
        assert type(k) is KEY_TYPE[kind]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
@given(data=st.data())
def test_ring_operations_build_clean_elements(kind, data):
    a = data.draw(elements(kind))
    b = data.draw(elements(kind))
    c = data.draw(scalars(kind))
    for r in (a + b, a - b, a * b, -a, a - a, a + (-a), a.scale(c), a.scale(0), a * c):
        assert_clean(r, kind)
    assert (a - a).is_zero() and a.scale(0).is_zero()


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
@given(data=st.data())
def test_automorphisms_build_clean_elements(kind, data):
    a = data.draw(elements(kind))
    for aut in AUTOMORPHISMS[kind]:
        for k in range(-3, 4):
            assert_clean(aut.apply(a, k), kind)


@pytest.mark.parametrize("kind", (EntirePoly, IntervalPoly), ids=lambda k: k.__name__)
@given(data=st.data())
def test_shift_builds_clean_elements(kind, data):
    a = data.draw(elements(kind))
    s = data.draw(rationals)
    assert_clean(a.shift_argument(s), kind)


def test_shift_argument_drops_cancelled_terms():
    # at s = 0 the expansion of z^2 gives zero terms on z and 1
    assert EntirePoly({2: 1}).shift_argument(0).coeffs == {2: GaussianRational(1)}
    # (z + 1)^2 at z -> z - 1 is z^2: the lower terms cancel across degrees
    assert IntervalPoly({2: 1, 1: 2, 0: 1}).shift_argument(1).coeffs == {2: Fraction(1)}


def test_public_constructor_rejects_negative_degrees():
    for kind in (EntirePoly, IntervalPoly):
        with pytest.raises(ValueError):
            kind({-1: 1})


def test_scale_aut_rejects_other_kinds():
    with pytest.raises(TypeError):
        ScaleAut(q_of(2)).apply(IntervalPoly({1: 1}), 1)


@pytest.mark.parametrize(
    "left, right",
    [(a, b) for a, b in itertools.product(KINDS, KINDS) if a is not b],
    ids=lambda k: k.__name__,
)
@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_mixing_kinds_raises(left, right, op):
    a = left.one() + left.monomial(2, (0,) if left is FreeSeries else 1)
    b = right.one()
    with pytest.raises(MismatchedBaseError):
        {"add": lambda: a + b, "sub": lambda: a - b, "mul": lambda: a * b}[op]()


# -- scalars with other operands ----------------------------------------------


def test_scalar_times_element_from_either_side():
    # the scalar leaves an operand it does not know to the element's __rmul__
    g = GaussianRational(2)
    for kind, key in ((EntirePoly, 1), (FreeSeries, (0,))):
        el = kind({key: 1})
        assert g * el == el * g == kind({key: 2})
        assert_clean(g * el, kind)


def test_scalar_operands():
    g = GaussianRational(2)
    assert g * 3 == 3 * g == GaussianRational(6)
    assert g * Fraction(1, 2) == Fraction(1, 2) * g == GaussianRational(1)
    assert g + 1 == 1 + g == GaussianRational(3)
    assert g - Fraction(1, 2) == GaussianRational(Fraction(3, 2))
    assert g * GaussianRational(0, 1) == GaussianRational(0, 2)


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__"])
def test_scalar_declines_unknown_operands(op):
    g = GaussianRational(2)
    for other in (EntirePoly({1: 1}), object(), "2"):
        assert getattr(g, op)(other) is NotImplemented
    with pytest.raises(TypeError):
        g + object()


# -- series -------------------------------------------------------------------

CAPS = dict(max_word_len=6, max_degree=8)


def assert_clean_series(r):
    if isinstance(r, LaurentOrePoly):
        rebuilt = LaurentOrePoly(r.spec, dict(r.terms), r.truncated)
        assert all(type(i) is int for i in r.terms)
    else:
        rebuilt = TwistedSeries(r.spec, dict(r.terms), r.max_word_len, r.max_degree, r.truncated)
    assert rebuilt == r
    assert rebuilt.truncated == r.truncated
    assert all(not a.is_zero() for a in r.terms.values())


def test_series_arithmetic_builds_clean_series(scale2_spec):
    one = TwistedSeries(scale2_spec, {(): scale2_spec.one()}, **CAPS)
    x1 = TwistedSeries(scale2_spec, {(1,): scale2_spec.one()}, **CAPS)
    s = TwistedSeries(scale2_spec, {(): EntirePoly({0: 1, 1: 2}), (1, 2): EntirePoly({3: -1})}, **CAPS)
    zero = TwistedSeries(scale2_spec, {(): EntirePoly({0: 0})}, **CAPS)
    half = TwistedSeries(scale2_spec, {(): EntirePoly({0: Fraction(1, 2)})}, **CAPS)
    for r in (s - s, mul(s, zero), -s, s + s, mul(s, half), mul(half, s)):
        assert_clean_series(r)
        assert (r.max_word_len, r.max_degree) == (6, 8)
    assert (s - s).is_zero() and mul(s, zero).is_zero()
    # (1 + x1)(1 - x1) = 1 - x1 x1: the two x1 terms cancel
    product = mul(one + x1, one - x1)
    assert_clean_series(product)
    assert set(product.terms) == {(), (1, 1)}
    # the Ore picture
    p = LaurentOrePoly(scale2_spec, {-1: EntirePoly({0: 1, 1: 2}), 2: EntirePoly({3: -1})})
    q = LaurentOrePoly(scale2_spec, {1: EntirePoly({1: 1}), 2: EntirePoly({3: 1})})
    three = LaurentOrePoly(scale2_spec, {0: EntirePoly({0: 3})})
    for r in (p + q, p - p, p - q, -p, ore_mul(p, three), ore_mul(p, q), ore_mul(q, p) - ore_mul(p, q)):
        assert_clean_series(r)


def test_series_results_keep_truncated_flag(scale2_spec):
    x1 = TwistedSeries(scale2_spec, {(1,): scale2_spec.one()}, max_word_len=2, max_degree=8)
    cut = mul(mul(x1, x1), x1)
    assert cut.truncated and cut.is_zero()
    three = TwistedSeries(scale2_spec, {(): EntirePoly({0: 3})}, max_word_len=2, max_degree=8)
    for r in (-cut, mul(cut, three), cut + x1, x1 + cut, cut - cut):
        assert r.truncated
        assert_clean_series(r)
