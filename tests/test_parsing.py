import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewcalc import (
    BaseSpec,
    ConfigError,
    DiagonalAut,
    EntirePoly,
    GaussianRational,
    LaurentOrePoly,
    ParseError,
    ScaleAut,
    ShiftAut,
    TwistedSeries,
    format_element,
    mul,
    ore_mul,
    parse_config_text,
    parse_expr,
    parse_scalar,
)
from skewcalc.parsing import _Parser, _tokenize

from conftest import rand_series

CAPS = dict(max_word_len=16, max_degree=32)


# -- parsing -----------------------------------------------------------------


def test_parse_series_basic(scale2_spec):
    f = parse_expr("2*z*x1 + x2^2 - 1/2", scale2_spec, CAPS)
    assert isinstance(f, TwistedSeries)
    assert f.terms == {
        (1,): EntirePoly({1: 2}),
        (2, 2): EntirePoly.one(),
        (): EntirePoly({0: Fraction(-1, 2)}),
    }


def test_parse_juxtaposition_and_parens(scale2_spec):
    assert parse_expr("(z+1)x1", scale2_spec, CAPS) == parse_expr(
        "z*x1 + x1", scale2_spec, CAPS
    )


def test_parse_complex_scalars(scale2_spec):
    f = parse_expr("(1+1i)*z", scale2_spec, CAPS)
    assert f.terms == {(): EntirePoly({1: GaussianRational(Fraction(1), Fraction(1))})}
    g = parse_expr("i*x1 - 2i", scale2_spec, CAPS)
    assert g.terms[(1,)] == EntirePoly({0: GaussianRational(Fraction(0), Fraction(1))})


def test_parse_ore_with_negative_power(scale2_spec):
    p = parse_expr("z*t^2 + t^-1", scale2_spec)
    assert isinstance(p, LaurentOrePoly)
    assert p.terms == {2: EntirePoly({1: 1}), -1: EntirePoly.one()}


def test_parse_free_generators(free_diag_spec):
    f = parse_expr("g1*g2*x1", free_diag_spec, CAPS)
    coeff = f.terms[(1,)]
    assert coeff.coeffs == {(0, 1): GaussianRational.of(1)}
    with pytest.raises(ParseError):
        parse_expr("g3", free_diag_spec, CAPS)


def test_parse_errors(scale2_spec, interval_shift_spec):
    def column(source, spec=scale2_spec, caps=CAPS):
        with pytest.raises(ParseError) as info:
            parse_expr(source, spec, caps)
        return info.value.column

    # cannot mix the two pictures: the column of the second picture's first token
    assert column("t*x1", caps=None) == 3
    assert column("x1 * t", caps=None) == 6
    assert column("z @ x1") == 3  # bad character
    # a token after whitespace is reported at the token, not at the space
    assert column("z + w1") == 5  # unknown generator
    assert column("z  +  x3") == 7
    assert column("z ^ x1") == 5  # integer exponent expected
    only_t = "negative exponents are only allowed on t"
    with pytest.raises(ParseError, match=only_t):
        parse_expr("x1^-1", scale2_spec, CAPS)
    assert column("x1^-1") == 3  # the '^'
    with pytest.raises(ParseError, match=only_t):
        parse_expr("(z*t)^-1", scale2_spec)
    # no complex scalars on the interval base: the column of the literal
    assert column("1i*x1", interval_shift_spec) == 1
    assert column("z + 2i*x1", interval_shift_spec) == 5
    with pytest.raises(ParseError):
        parse_expr("z*(x1", scale2_spec, CAPS)  # unbalanced parenthesis
    with pytest.raises(ParseError):
        parse_expr("z x1 +", scale2_spec, CAPS)  # dangling operator
    with pytest.raises(ParseError):
        parse_expr("3/0*x1", scale2_spec, CAPS)  # zero denominator


def test_parse_error_at_end_of_input(scale2_spec):
    # the end of input used to be reported as "unexpected token None"
    for source in ("", "x1 +", "("):
        with pytest.raises(ParseError, match="unexpected end of input") as info:
            parse_expr(source, scale2_spec, CAPS)
        assert info.value.column == len(source) + 1


def test_trailing_input_is_an_error(scale2_spec):
    with pytest.raises(ParseError, match="trailing input starting at '\\)'") as info:
        parse_expr("z*x1)", scale2_spec, CAPS)
    assert info.value.column == 5


def test_sign_applies_to_the_factor_after_it(scale2_spec):
    # a leading sign and a sign after '*' are one rule: both stop at the second '^'
    for source, column in (("-2^2^3", 5), ("1*-2^2^3", 7), ("-t^3^3", 5), ("1*-t^3^3", 7)):
        with pytest.raises(ParseError, match="trailing input starting at '\\^'") as info:
            parse_expr(source, scale2_spec, CAPS)
        assert info.value.column == column
    minus_four = parse_expr("-4", scale2_spec, CAPS)
    for source in ("-2^2", "1*-2^2", "-(2^2)", "(-1)*2^2", "--(-4)"):
        assert parse_expr(source, scale2_spec, CAPS) == minus_four
    assert parse_expr("(-2)^2", scale2_spec, CAPS) == -minus_four
    assert parse_expr("-t^2", scale2_spec) == parse_expr("(-1)*t^2", scale2_spec)
    assert parse_scalar("-2^2") == GaussianRational(-4)


def _expressions(atoms):
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.builds("{}{}{}".format, inner,
                      st.sampled_from([" + ", " - ", "*", " ", "*-", " - -", "*+"]), inner),
            st.builds("-{}".format, inner),
            st.builds("({})".format, inner),
            st.builds("({})^{}".format, inner, st.integers(0, 3)),
        ),
        max_leaves=6,
    )


_EXPRESSIONS = _expressions(["2", "3/2", "i", "z", "z^3", "x1", "x2", "x1^2"])


@settings(max_examples=200, deadline=None)
@given(_EXPRESSIONS)
def test_leading_minus_is_times_minus_one(source):
    spec = BaseSpec("entire", ScaleAut(2))
    assert parse_expr("-" + source, spec, CAPS) == parse_expr("(-1)*" + source, spec, CAPS)


def test_power_equals_repeated_product(scale2_spec, identity_entire_spec):
    cases = (
        ("(z*x1 + 2*x2 - 1/2)", scale2_spec,
         TwistedSeries(scale2_spec, {(): scale2_spec.one()}, **CAPS)),
        ("(z*t - 1 + 2*t^-1)", scale2_spec, LaurentOrePoly(scale2_spec, {0: scale2_spec.one()})),
        ("(z*t + 1)", identity_entire_spec,
         LaurentOrePoly(identity_entire_spec, {0: identity_entire_spec.one()})),
    )
    for text, spec, expected in cases:
        value = parse_expr(text, spec, CAPS)
        for n in range(7):
            power = parse_expr(f"{text}^{n}", spec, CAPS)
            assert power == expected and not getattr(power, "truncated", False)
            expected = expected * value


def test_power_beyond_caps_is_truncated(scale2_spec):
    assert not parse_expr("x1^16", scale2_spec, CAPS).truncated
    assert parse_expr("x1^17", scale2_spec, CAPS).truncated
    huge = parse_expr("x1^100000", scale2_spec)
    assert huge.is_zero() and huge.truncated


def test_default_caps_are_the_cli_defaults(scale2_spec):
    # L = 16 and D = 32, for a library caller as for the CLI
    assert not parse_expr("x1^16", scale2_spec).truncated
    assert parse_expr("x1^17", scale2_spec).truncated


class _ReferenceRing:
    """A reference for parse_expr's values and flag: every atom a full series
    or Ore polynomial, every product mul or ore_mul, and every power square
    and multiply from a fresh 1."""

    def __init__(self, spec, caps, ore):
        self.spec = spec
        self.zero = LaurentOrePoly(spec) if ore else TwistedSeries(spec, **caps)
        self.unit = 0 if ore else ()
        self.gens = {"t": 1} if ore else {"x1": (1,), "x2": (2,)}
        self.mul = ore_mul if ore else mul

    def make(self, a, key=None):
        # an atom beyond the caps drops through the sum, flagged
        return self.zero + type(self.zero)(self.spec, {self.unit if key is None else key: a})

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def scalar(self, c):
        return self.make(self.spec.monomial(c.re if self.spec.kind == "interval" else c))

    def atom(self, name):
        if name in self.gens:
            return self.make(self.spec.one(), self.gens[name])
        if name == "z":
            return self.make(self.spec.monomial(1, 1))
        if name == "i":
            return self.scalar(GaussianRational(0, 1))
        return self.make(self.spec.monomial(1, (int(re.fullmatch(r"g(\d)", name)[1]) - 1,)))

    def power(self, value, exponent):
        if exponent < 0:
            assert value == self.atom("t")
            return self.make(self.spec.one(), exponent)
        result = self.make(self.spec.one())
        while True:
            if exponent & 1:
                result = self.mul(result, value)
            exponent >>= 1
            if not exponent:
                return result
            value = self.mul(value, value)


_SERIES_ATOMS = ["0", "2", "3/2", "x1", "x2", "x1^2"]
_PICTURES = {
    "scale": (BaseSpec("entire", ScaleAut(2)), _SERIES_ATOMS + ["i", "z", "z^3"]),
    "shift": (BaseSpec("entire", ShiftAut()), _SERIES_ATOMS + ["i", "z", "z^3"]),
    "free_diagonal": (BaseSpec("free", DiagonalAut((2, Fraction(1, 2))), ngens=2),
                      _SERIES_ATOMS + ["i", "g1", "g2", "g1^3"]),
    "interval": (BaseSpec("interval", ShiftAut()), _SERIES_ATOMS + ["z", "z^3"]),
    "ore": (BaseSpec("entire", ScaleAut(2)), ["0", "2", "3/2", "i", "z", "z^3", "t", "t^-1"]),
}


def _fields(value):
    # every field, the flag and the caps too: __eq__ reads only the spec and the terms
    return type(value), [getattr(value, f.name) for f in dataclasses.fields(value)]


@pytest.mark.parametrize("picture", sorted(_PICTURES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_equals_the_reference_ring(picture, data):
    spec, atoms = _PICTURES[picture]
    source = data.draw(_expressions(atoms))
    caps = dict(max_word_len=3, max_degree=4)  # small, so that the flag gets set
    reference = _Parser(_tokenize(source), _ReferenceRing(spec, caps, "t" in source)).parse()
    assert _fields(parse_expr(source, spec, caps)) == _fields(reference)


def test_parse_scalar_literals():
    assert parse_scalar("3/2") == GaussianRational(Fraction(3, 2))
    assert parse_scalar("1+1i") == GaussianRational(Fraction(1), Fraction(1))
    assert parse_scalar("-2i") == GaussianRational(Fraction(0), Fraction(-2))
    assert parse_scalar("i") == GaussianRational(0, 1)
    with pytest.raises(ParseError):
        parse_scalar("z")


# -- printing ----------------------------------------------------------------


def test_format_series_canonical(scale2_spec):
    f = parse_expr("x1*x1*x2 - 3*z^2*x1 + 1/2", scale2_spec, CAPS)
    text = format_element(f)
    assert text == "1/2 + (-3*z^2)*x1 + x1^2*x2"
    assert parse_expr(text, scale2_spec, CAPS) == f


def test_format_ore_canonical(scale2_spec):
    p = parse_expr("2*z*t^3 + t^-1 - 4", scale2_spec)
    text = format_element(p)
    assert text == "(2*z)*t^3 - 4 + t^-1"
    assert parse_expr(text, scale2_spec) == p


def test_format_complex_coefficients(scale2_spec):
    f = parse_expr("(1+1i)*x1", scale2_spec, CAPS)
    text = format_element(f)
    assert text == "((1+1i))*x1" or text == "(1+1i)*x1"
    assert parse_expr(text, scale2_spec, CAPS) == f


def test_round_trip_random_series(rng, scale2_spec, free_diag_spec,
                                  interval_shift_spec):
    for spec in (scale2_spec, free_diag_spec, interval_shift_spec):
        for _ in range(40):
            f = rand_series(rng, spec, 3, 4, 3, **CAPS)
            assert parse_expr(format_element(f), spec, CAPS) == f


def test_round_trip_random_ore(rng, scale2_spec):
    from conftest import rand_entire

    for _ in range(40):
        # at least one nonzero power of t, so the text stays in the Ore picture
        coeffs = {rng.choice((-3, -2, -1, 1, 2, 3)): rand_entire(rng)}
        coeffs[rng.randint(-3, 3)] = rand_entire(rng)
        p = LaurentOrePoly(scale2_spec, coeffs)
        assert parse_expr(format_element(p), scale2_spec) == p


def test_format_zero(scale2_spec):
    assert format_element(TwistedSeries(scale2_spec)) == "0"
    assert format_element(LaurentOrePoly(scale2_spec)) == "0"
    with pytest.raises(TypeError):
        format_element("nope")


# -- config files ------------------------------------------------------------


def test_parse_config_text():
    text = """
    # analytic quantum plane
    base = entire
    automorphism = scale
    q = 2  # expansion factor
    """
    assert parse_config_text(text) == {
        "base": "entire",
        "automorphism": "scale",
        "q": "2",
    }


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError):
        parse_config_text("base entire")
    # a repeated key used to keep its last value without a word
    with pytest.raises(ConfigError, match="line 3: repeated key 'q'"):
        parse_config_text("q = 2\nbase = entire\n q=3  # again\n")
