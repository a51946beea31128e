"""GaussianRational against a reference pair of Fractions (re, im)."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skewcalc import GaussianRational

BIG = 2**200

integers = st.one_of(
    st.integers(-12, 12),
    st.integers(-BIG - 3, BIG + 3),
    st.sampled_from((BIG - 1, BIG, BIG + 1, -BIG + 1, -BIG, -BIG - 1)),
)
denominators = st.one_of(
    st.integers(1, 12),
    st.integers(1, BIG + 3),
    st.sampled_from((BIG - 1, BIG, BIG + 1)),
)
fractions = st.one_of(st.just(Fraction(0)), st.builds(Fraction, integers, denominators))
pairs = st.tuples(fractions, fractions)
nonzero_pairs = pairs.filter(lambda p: p != (0, 0))


# -- the reference: exact complex arithmetic on (re, im) pairs of Fractions ---


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_pow(x, k):
    if k < 0:
        x, k = ref_inverse(x), -k
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = ref_mul(out, x)
    return out


def ref_str(re, im):
    """The printed form of the Fraction-pair scalar class this one replaced."""
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)}i"


def gr(p):
    return GaussianRational(*p)


def check(g, p):
    """g holds the value p in lowest terms."""
    assert (g.re, g.im) == p
    assert type(g.re) is Fraction and type(g.im) is Fraction
    a, b, d = g._a, g._b, g._d
    assert d > 0
    assert math.gcd(a, b, d) == 1


# -- arithmetic ---------------------------------------------------------------


@given(pairs)
def test_construction_is_normalized(p):
    check(gr(p), p)
    check(GaussianRational.of(p[0]), (p[0], Fraction(0)))


@given(pairs, pairs)
def test_add_sub_mul(p, q):
    x, y = gr(p), gr(q)
    check(x + y, (p[0] + q[0], p[1] + q[1]))
    check(x - y, (p[0] - q[0], p[1] - q[1]))
    check(x * y, ref_mul(p, q))
    check(-x, (-p[0], -p[1]))


@given(pairs, fractions, st.integers(-5, 5))
def test_mixed_operands(p, c, n):
    x = gr(p)
    check(x + c, (p[0] + c, p[1]))
    check(n + x, (p[0] + n, p[1]))
    check(x - n, (p[0] - n, p[1]))
    check(c - x, (c - p[0], -p[1]))
    check(x * c, (p[0] * c, p[1] * c))
    check(n * x, (p[0] * n, p[1] * n))


@given(pairs, nonzero_pairs)
def test_inverse_and_division(p, q):
    x, y = gr(p), gr(q)
    check(y.inverse(), ref_inverse(q))
    check(x / y, ref_mul(p, ref_inverse(q)))
    check(1 / y, ref_inverse(q))
    check(Fraction(1, 3) / y, ref_mul((Fraction(1, 3), Fraction(0)), ref_inverse(q)))


# 1 + i and (1 + i)/2, whose powers need the final gcd ((1 + i)^2 / 4 = i/2),
# and the units i and -1
gaussian_units = st.sampled_from([(Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1, 2)),
                                  (Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))])


@given(st.one_of(nonzero_pairs, gaussian_units), st.integers(-12, 12))
def test_power(p, k):
    check(gr(p) ** k, ref_pow(p, k))


@given(pairs)
def test_abs2_and_abs(p):
    x = gr(p)
    n = p[0] * p[0] + p[1] * p[1]
    assert x.abs2() == n and type(x.abs2()) is Fraction
    assert abs(x) == math.sqrt(float(n))


def test_abs_outside_the_squared_float_range():
    # where |c|^2 overflows or is subnormal, |c| is hypot(a/d, b/d)
    assert abs(GaussianRational(10**200)) == 1e200
    assert abs(GaussianRational(Fraction(1, 10**300))) == 1e-300
    tiny = GaussianRational(Fraction(3, 10**170), Fraction(-4, 10**170))
    assert abs(tiny) == math.hypot(3e-170, -4e-170)
    assert abs(GaussianRational(10**300, 10**300)) == math.hypot(1e300, 1e300)
    with pytest.raises(OverflowError):
        abs(GaussianRational(10**400))


def test_zero_has_no_inverse():
    for zero in (GaussianRational(), GaussianRational(Fraction(0), Fraction(0))):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            zero ** -1
        assert not zero and zero.is_zero()


def test_zero_real_or_imaginary_part():
    big = Fraction(BIG + 1, BIG - 1)
    for p in ((big, Fraction(0)), (Fraction(0), big), (Fraction(0), -big)):
        x = gr(p)
        check(x * x, ref_mul(p, p))
        check(x.inverse(), ref_inverse(p))
        check(x + gr((p[1], p[0])), (p[0] + p[1], p[0] + p[1]))
        assert x and not x.is_zero()


# -- equality, hashing, printing, immutability ---------------------------------


@given(pairs, pairs)
def test_equal_values_are_equal_and_hash_equal(p, q):
    x, y = gr(p), gr(q)
    assert (x == y) == (p == q)
    assert (x + y) - y == x
    assert hash((x + y) - y) == hash(x)
    assert x * y == y * x and hash(x * y) == hash(y * x)


def test_equal_values_built_different_ways():
    half = GaussianRational(Fraction(1, 2))
    for other in (GaussianRational(Fraction(2, 4)), GaussianRational.of(Fraction(1, 2)),
                  GaussianRational(Fraction(3, 2)) - 1, GaussianRational(1) / 2,
                  GaussianRational(Fraction(1, 2), Fraction(1, 3)) - GaussianRational(0, Fraction(2, 6)),
                  # a float, read exactly through Fraction
                  GaussianRational(0.5)):
        assert other == half and hash(other) == hash(half)
    # arithmetic leaves its operands as they were
    assert half * 2 == GaussianRational(1) and -half + half == GaussianRational()
    assert (half.re, half.im) == (Fraction(1, 2), Fraction(0))


def test_not_equal_to_plain_numbers():
    assert GaussianRational(1) != 1
    assert GaussianRational(1) != Fraction(1)
    assert GaussianRational(1) == GaussianRational.of(1)
    assert GaussianRational() == GaussianRational(0, 0)


@given(pairs)
def test_str_and_repr_match_the_pair_format(p):
    x = gr(p)
    assert str(x) == ref_str(*p)
    assert repr(x) == f"GaussianRational({p[0]!r}, {p[1]!r})"


def test_str_spot_values():
    assert str(GaussianRational(Fraction(3, 2))) == "3/2"
    assert str(GaussianRational(0, -2)) == "-2i"
    assert str(GaussianRational(1, Fraction(-1, 3))) == "1-1/3i"
    assert repr(GaussianRational(2)) == "GaussianRational(Fraction(2, 1), Fraction(0, 1))"


def test_attribute_assignment_raises():
    x = GaussianRational(Fraction(1, 2), 3)
    for name in ("re", "im", "value"):
        with pytest.raises(AttributeError):
            setattr(x, name, Fraction(1))
    with pytest.raises(AttributeError):
        del x.re
    assert x == GaussianRational(Fraction(1, 2), 3)


@given(pairs)
def test_pickle_and_copy_round_trip(p):
    x = gr(p)
    for y in (pickle.loads(pickle.dumps(x)), pickle.loads(pickle.dumps(x, 0)),
              copy.deepcopy(x), copy.copy(x)):
        check(y, p)
