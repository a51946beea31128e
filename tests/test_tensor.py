import itertools
import math
from fractions import Fraction

import pytest

from skewcalc import (
    BaseSpec,
    DiagonalAut,
    EntirePoly,
    Exactness,
    FreeSeries,
    GaussianRational,
    LaurentOrePoly,
    ScaleAut,
    ShiftAut,
    TwistedSeries,
    i_w_apply,
    mul,
    twisted_norm,
)
from skewcalc.bases import MismatchedBaseError
from skewcalc.words import all_words, winding

from conftest import q_of, rand_entire, rand_series, rand_word

CAPS = dict(max_word_len=16, max_degree=32)


# -- construction and caps ---------------------------------------------------


def test_zero_coefficients_not_stored(scale2_spec):
    f = TwistedSeries(scale2_spec, {(1,): EntirePoly.zero(), (): EntirePoly.one()})
    assert f.words() == [()]


def test_caps_enforced_on_construction(scale2_spec):
    with pytest.raises(ValueError):
        TwistedSeries(scale2_spec, {(1, 1): EntirePoly.one()}, max_word_len=1)
    with pytest.raises(ValueError):
        TwistedSeries(scale2_spec, {(): EntirePoly({5: 1})}, max_degree=4)


def test_mul_sets_truncated_flag(scale2_spec):
    x1 = TwistedSeries(scale2_spec, {(1,): scale2_spec.one()}, max_word_len=1)
    product = mul(x1, x1)
    assert product.is_zero()
    assert product.truncated
    # the norm of what the caps left is not a clean value
    assert twisted_norm(product, 1, 1.0) == (0.0, Exactness.TRUNCATED)
    ok = mul(TwistedSeries(scale2_spec, {(): scale2_spec.one()}), x1)
    assert not ok.truncated
    assert twisted_norm(ok, 1, 1.0) == (1.0, Exactness.EXACT)


def test_sum_drops_terms_beyond_the_left_caps(scale2_spec):
    # the sum follows the product's rule: it keeps a's caps, and a term of
    # b beyond them is dropped with the flag set instead of raising
    a = TwistedSeries(scale2_spec, {(2,): EntirePoly({1: 1})}, max_word_len=2)
    b = TwistedSeries(scale2_spec, {(1, 1, 1): EntirePoly.one(), (2,): EntirePoly.one()},
                      max_word_len=8)
    total = a + b
    assert (total.max_word_len, total.max_degree) == (2, a.max_degree)
    assert total.terms == {(2,): EntirePoly({1: 1, 0: 1})}
    assert total.truncated
    # b's wider caps hold a's terms
    assert (b + a).terms.keys() == {(1, 1, 1), (2,)}
    assert not (b + a).truncated


def test_equal_series_hash_equal(scale2_spec):
    z = EntirePoly({1: 1})
    f = TwistedSeries(scale2_spec, {(1,): z, (): EntirePoly.one()})
    g = TwistedSeries(scale2_spec, {(): EntirePoly.one()}) + TwistedSeries(scale2_spec, {(1,): z})
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1


def test_word_validation(scale2_spec):
    with pytest.raises(ValueError):
        TwistedSeries(scale2_spec, {(3,): EntirePoly.one()})


# -- ring structure ----------------------------------------------------------


def test_concatenation_with_twist(scale2_spec):
    z = EntirePoly({1: 1})
    f = TwistedSeries(scale2_spec, {(1,): z}, **CAPS)
    g = TwistedSeries(scale2_spec, {(2,): z}, **CAPS)
    # (z x1)(z x2): right coefficient twisted by alpha^{c(1)} = alpha
    assert mul(f, g).terms == {(1, 2): EntirePoly({2: 2})}
    # (z x2)(z x1): twisted by alpha^{-1}
    assert mul(g, f).terms == {(2, 1): EntirePoly({2: Fraction(1, 2)})}


def test_mul_associative(rng, scale2_spec):
    for _ in range(40):
        f, g, h = (rand_series(rng, scale2_spec, 2, 3, 3, **CAPS) for _ in range(3))
        assert mul(mul(f, g), h) == mul(f, mul(g, h))


def test_mul_distributes(rng, scale2_spec):
    for _ in range(30):
        f, g, h = (rand_series(rng, scale2_spec, 2, 3, 3, **CAPS) for _ in range(3))
        assert mul(f, g + h) == mul(f, g) + mul(f, h)


def test_unit_laws(rng, scale2_spec):
    one = TwistedSeries(scale2_spec, {(): scale2_spec.one()}, **CAPS)
    for _ in range(20):
        f = rand_series(rng, scale2_spec, 2, 3, 3, **CAPS)
        assert mul(one, f) == f == mul(f, one)


def test_grading(rng, scale2_spec):
    for _ in range(30):
        f = rand_series(rng, scale2_spec, 2, 3, 3, **CAPS)
        g = rand_series(rng, scale2_spec, 2, 3, 3, **CAPS)
        concatenations = {w1 + w2 for w1 in f.terms for w2 in g.terms}
        assert set(mul(f, g).terms) <= concatenations


def test_mismatched_specs_rejected(scale2_spec, scale_half_spec):
    f = TwistedSeries(scale2_spec, {(): scale2_spec.one()})
    g = TwistedSeries(scale_half_spec, {(): scale_half_spec.one()})
    # a series and a Laurent polynomial over one spec are different kinds
    p = LaurentOrePoly(scale2_spec, {0: scale2_spec.one()})
    for product in (lambda: mul(f, g), lambda: f * g, lambda: f * p):
        with pytest.raises(MismatchedBaseError):
            product()


def test_equal_distinct_specs_combine():
    # two equal but distinct spec objects combine; unequal ones still raise
    def spec(q):
        return BaseSpec("entire", ScaleAut(q_of(q)))

    for kind, key in ((TwistedSeries, (1,)), (LaurentOrePoly, 1)):
        f = kind(spec(2), {key: EntirePoly({1: 1})})
        g = kind(spec(2), {key: EntirePoly({0: 3})})
        assert f.spec == g.spec and f.spec is not g.spec
        assert (f + g).terms == {key: EntirePoly({0: 3, 1: 1})}
        assert f * g == kind(f.spec, {key + key: EntirePoly({1: 3})})
        h = kind(spec(3), {key: EntirePoly({0: 3})})
        for combine in (lambda: f + h, lambda: f * h):
            with pytest.raises(MismatchedBaseError):
                combine()


# -- slot products -----------------------------------------------------------


def test_commd_identity(rng, scale2_spec):
    # i_{w1 w2}(x (x) y) = i_{w1}(x) * alpha^{c(w1)}(i_{w2}(y))
    small_words = [w for w in all_words(3) if w]
    for w1, w2 in itertools.product(small_words, small_words):
        for _ in range(3):
            xs = tuple(rand_entire(rng, 3, 2) for _ in w1)
            ys = tuple(rand_entire(rng, 3, 2) for _ in w2)
            lhs = i_w_apply(scale2_spec, w1 + w2, xs + ys)
            rhs = i_w_apply(scale2_spec, w1, xs) * scale2_spec.aut.apply(
                i_w_apply(scale2_spec, w2, ys), winding(w1)
            )
            assert lhs == rhs


def test_i_w_balanced_at_sampled_slots(rng, scale2_spec):
    # moving r across adjacent slots through alpha^{w'(i)} leaves i_w fixed
    for _ in range(50):
        w = rand_word(rng, 5, min_len=2)
        factors = [rand_entire(rng, 3, 2) for _ in w]
        r = rand_entire(rng, 2, 2)
        slot = rng.randrange(len(w) - 1)
        wprime = 3 - 2 * w[slot]
        left = list(factors)
        left[slot] = factors[slot] * scale2_spec.aut.apply(r, wprime)
        right = list(factors)
        right[slot + 1] = r * factors[slot + 1]
        assert i_w_apply(scale2_spec, w, tuple(left)) == i_w_apply(
            scale2_spec, w, tuple(right)
        )


# -- weighted norms ----------------------------------------------------------


def test_twisted_norm_monomial(scale2_spec):
    z = EntirePoly({1: 1})
    f = TwistedSeries(scale2_spec, {(1, 1, 2, 2): z}, **CAPS)
    value, tag = twisted_norm(f, 1, 2.0)
    # ||z||^{(1122)}_1 = 1/4, times rho^4
    assert (value, tag) == (4.0, Exactness.EXACT)


def test_twisted_norm_rejects_bad_rho(scale2_spec):
    with pytest.raises(ValueError):
        twisted_norm(TwistedSeries(scale2_spec, {(): scale2_spec.one()}), 1, 0)


def test_twisted_norm_submultiplicative_interval_shift(rng, interval_shift_spec):
    # holds for supports on nonempty words (the per-word window absorbs
    # the twists of both factors once each side contributes a letter)
    for _ in range(100):
        f = rand_series(rng, interval_shift_spec, 2, 3, 3, min_len=1, **CAPS)
        g = rand_series(rng, interval_shift_spec, 2, 3, 3, min_len=1, **CAPS)
        product = mul(f, g)
        assert not product.truncated
        for lam, rho in ((1, 1), (2, 0.5)):
            pv, pt = twisted_norm(product, lam, rho)
            fv, _ = twisted_norm(f, lam, rho)
            gv, _ = twisted_norm(g, lam, rho)
            assert pv <= fv * gv + 1e-9


def test_twisted_norm_submultiplicative_scale(rng, scale2_spec, scale_half_spec):
    for spec in (scale2_spec, scale_half_spec):
        for _ in range(60):
            f = rand_series(rng, spec, 2, 3, 3, min_len=1, **CAPS)
            g = rand_series(rng, spec, 2, 3, 3, min_len=1, **CAPS)
            product = mul(f, g)
            assert not product.truncated
            for lam, rho in ((1, 1), (0.5, 2)):
                pv, _ = twisted_norm(product, lam, rho)
                fv, _ = twisted_norm(f, lam, rho)
                gv, _ = twisted_norm(g, lam, rho)
                assert pv <= fv * gv + 1e-9


def test_product_continuous_at_a_shifted_index(rng):
    # ||fg||_(lam, rho) <= ||f||_(lam', rho) ||g||_(lam', rho) on every
    # support: lam' = Q lam with Q = max(|q|, 1/|q|) on entire/scale, and
    # lam' = lam + |s| on interval/shift with step s
    cases = [(BaseSpec("entire", ScaleAut(q_of(q))), 100,
              lambda lam, q=Fraction(q): lam * max(q, 1 / q)) for q in ("2", "1/2", "3/2")]
    cases += [(BaseSpec("interval", ShiftAut(s)), 40, lambda lam, s=s: lam + abs(s))
              for s in (1, Fraction(-1, 2), 2)]
    for spec, pairs, shifted in cases:
        for _ in range(pairs):
            f = rand_series(rng, spec, 2, 3, 3, **CAPS)
            g = rand_series(rng, spec, 2, 3, 3, **CAPS)
            product = mul(f, g)
            assert not product.truncated
            for lam, rho in ((Fraction(1), 1.0), (Fraction(1, 2), 2.0)):
                pv, _ = twisted_norm(product, lam, rho)
                fv, _ = twisted_norm(f, shifted(lam), rho)
                gv, _ = twisted_norm(g, shifted(lam), rho)
                assert pv <= fv * gv * (1 + 1e-12), (spec, f, g, lam, rho)


def test_submultiplicativity_sharp_at_constant_right_factor(scale2_spec):
    # the per-word seminorm carries no twist for the final slot, so a
    # right factor with a constant-word term can defeat the product
    # bound: x1 * z = (2z) x1 has norm 2*lam*rho > lam*rho
    x1 = TwistedSeries(scale2_spec, {(1,): scale2_spec.one()}, **CAPS)
    z = TwistedSeries(scale2_spec, {(): EntirePoly({1: 1})}, **CAPS)
    pv, _ = twisted_norm(mul(x1, z), 1, 1.0)
    fv, _ = twisted_norm(x1, 1, 1.0)
    gv, _ = twisted_norm(z, 1, 1.0)
    assert pv == 2.0 and fv * gv == 1.0


def test_upper_bound_tag_propagates(free_diag_spec):
    from skewcalc import FreeSeries

    f = TwistedSeries(free_diag_spec, {(1, 2): FreeSeries({(0,): 1})}, **CAPS)
    _, tag = twisted_norm(f, 1, 1.0)
    assert tag is Exactness.UPPER_BOUND


def test_underflowed_upper_bound_is_not_exact(shift_entire_spec):
    # the slot bound of z^2 on x1 x2 at lambda = 1e-200 is 1e-400, which
    # reads 0.0 as a float: still only an upper bound, never a certificate
    f = TwistedSeries(shift_entire_spec, {(1, 2): EntirePoly({2: 1})}, **CAPS)
    lam = Fraction(10) ** -200
    assert shift_entire_spec.twisted_seminorm(f.terms[(1, 2)], (1, 2), lam) == (
        0.0, Exactness.UPPER_BOUND)
    assert twisted_norm(f, lam, 1.0) == (0.0, Exactness.UPPER_BOUND)


def test_zero_valued_upper_bounds_stay_exact(shift_entire_spec):
    f = TwistedSeries(shift_entire_spec, {(1,) * 6: EntirePoly({1: 1})}, **CAPS)
    value, tag = twisted_norm(f, 1, 2.0)
    assert (value, tag) == (0.0, Exactness.EXACT)


@pytest.mark.parametrize("q", [2, Fraction(1, 2), Fraction(3, 2), GaussianRational(1, 1)],
                         ids=["2", "1/2", "3/2", "1+i"])
def test_scale_is_the_diagonal_action_on_one_generator(rng, q):
    # z^m <-> g1^m carries entire/scale(q) onto free(1)/diagonal((q,)): the
    # per-word seminorms and the twisted norms agree (their tags do not yet)
    entire = BaseSpec("entire", ScaleAut(GaussianRational.of(q)))
    free = BaseSpec("free", DiagonalAut((GaussianRational.of(q),)), ngens=1)

    def on_free(a):
        return FreeSeries({(0,) * m: c for m, c in a.coeffs.items()})

    for _ in range(40):
        f = rand_series(rng, entire, 3, 4, 4, **CAPS)
        g = TwistedSeries(free, {w: on_free(a) for w, a in f.terms.items()}, **CAPS)
        a = rand_entire(rng)
        for lam in (Fraction(1, 2), 1, 2):
            for w in all_words(4):
                expected, _ = entire.twisted_seminorm(a, w, lam)
                value, _ = free.twisted_seminorm(on_free(a), w, lam)
                assert math.isclose(value, expected, rel_tol=1e-12), (w, lam)
            for rho in (0.5, 1.5):
                expected, _ = twisted_norm(f, lam, rho)
                value, _ = twisted_norm(g, lam, rho)
                assert math.isclose(value, expected, rel_tol=1e-12), (lam, rho)
