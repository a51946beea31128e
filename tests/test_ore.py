import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewcalc import (
    BaseSpec,
    EntirePoly,
    GaussianRational,
    LaurentOrePoly,
    localizability_probe,
    TwistedSeries,
    ore_mul,
    quotient_norm,
)
from skewcalc.bases import DiagonalAut, IdentityAut, MismatchedBaseError, ScaleAut, ShiftAut

from conftest import q_of, rand_entire


def rand_ore(rng, spec, lo=-3, hi=3):
    coeffs = {rng.randint(lo, hi): rand_entire(rng) for _ in range(rng.randint(1, 3))}
    return LaurentOrePoly(spec, coeffs)


# -- ring structure ----------------------------------------------------------


def test_commutation_rule_scale(scale2_spec):
    z = EntirePoly({1: 1})
    t = LaurentOrePoly(scale2_spec, {1: scale2_spec.one()})
    a = LaurentOrePoly(scale2_spec, {0: z})
    assert ore_mul(t, a) == LaurentOrePoly(scale2_spec, {1: EntirePoly({1: 2})})


def test_t_power_commutation(rng, scale2_spec):
    # t^k * a = alpha^k(a) * t^k for -5 <= k <= 5
    for _ in range(10):
        a = rand_entire(rng)
        for k in range(-5, 6):
            tk = LaurentOrePoly(scale2_spec, {k: scale2_spec.one()})
            lhs = ore_mul(tk, LaurentOrePoly(scale2_spec, {0: a}))
            rhs = LaurentOrePoly(scale2_spec, {k: scale2_spec.aut.apply(a, k)})
            assert lhs == rhs


def test_ore_mul_associative(rng, scale2_spec):
    for _ in range(40):
        f, g, h = (rand_ore(rng, scale2_spec) for _ in range(3))
        assert ore_mul(ore_mul(f, g), h) == ore_mul(f, ore_mul(g, h))


def test_unit_laws_and_distributivity(rng, scale2_spec):
    one = LaurentOrePoly(scale2_spec, {0: scale2_spec.one()})
    for _ in range(40):
        f, g, h = (rand_ore(rng, scale2_spec) for _ in range(3))
        assert ore_mul(one, f) == f == ore_mul(f, one)
        assert ore_mul(f, g + h) == ore_mul(f, g) + ore_mul(f, h)
        assert ore_mul(f + g, h) == ore_mul(f, h) + ore_mul(g, h)


def test_mismatched_specs_rejected(scale2_spec, scale_half_spec):
    f = LaurentOrePoly(scale2_spec, {0: scale2_spec.one()})
    g = LaurentOrePoly(scale_half_spec, {0: scale_half_spec.one()})
    # a Laurent polynomial and a series over one spec are different kinds
    s = TwistedSeries(scale2_spec, {(): scale2_spec.one()})
    for product in (lambda: ore_mul(f, g), lambda: f * g, lambda: s * f):
        with pytest.raises(MismatchedBaseError):
            product()


# -- the quotient seminorm of a class ----------------------------------------

ore_terms = st.dictionaries(
    st.integers(-3, 3),
    st.dictionaries(
        st.integers(0, 3),
        st.sampled_from([GaussianRational.of(Fraction(x)) for x in ("1", "-1", "2", "1/2", "-3/2")]
                        + [GaussianRational(1, -1)]),
        min_size=1, max_size=2,
    ).map(EntirePoly),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from((q_of(2), q_of("1/2"), q_of("3/2"), GaussianRational(1, 1))),
    f_terms=ore_terms,
    g_terms=ore_terms,
    lam=st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(2))),
    rho=st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))),
)
def test_quotient_norm_continuous_with_index_shift(q, f_terms, g_terms, lam, rho):
    # ||fg||_(lam, rho) <= ||f||_(Q lam, rho) ||g||_(Q lam, rho), Q = max(|q|, 1/|q|);
    # at the same index the bound fails: t^2*z has 8.0 at rho = 2, t^2 has 4.0, z 1.0
    spec = BaseSpec("entire", ScaleAut(q))
    f, g = LaurentOrePoly(spec, f_terms), LaurentOrePoly(spec, g_terms)
    big = math.sqrt(max(q.abs2(), 1 / q.abs2())) * lam
    lhs = quotient_norm(ore_mul(f, g), lam, rho)
    bound = quotient_norm(f, big, rho) * quotient_norm(g, big, rho)
    assert lhs <= bound * (1 + 1e-9)


# -- localizability probe ----------------------------------------------------


def test_probe_identity_is_bounded(identity_entire_spec):
    (report,) = localizability_probe(identity_entire_spec, [1], 6)
    assert report.forward.verdict == "bounded"
    assert report.backward.verdict == "bounded"
    assert report.family_bounded


def test_probe_scale_direction_split(scale2_spec):
    (report,) = localizability_probe(scale2_spec, [1], 6)
    # q = 2 grows forward on monomials and shrinks backward
    assert report.forward.verdict == "growing"
    assert report.backward.verdict == "bounded"
    assert not report.family_bounded


def test_probe_contracting_factors_bounded_forward():
    # every |q_i| <= 1: alpha is bounded and alpha^-1 grows
    half = Fraction(1, 2)
    for spec, cap in ((BaseSpec("entire", ScaleAut(half)), 6),
                      (BaseSpec("free", DiagonalAut((half, Fraction(1, 3)))), 4)):
        (report,) = localizability_probe(spec, [1], cap)
        assert report.forward.verdict == "bounded"
        assert report.backward.verdict == "growing"
        assert not report.family_bounded


def test_probe_diagonal_mixed(free_diag_spec):
    (report,) = localizability_probe(free_diag_spec, [1], 4)
    # factors 2 and 1/2 grow in both directions on the canonical family
    assert report.forward.verdict == "growing"
    assert report.backward.verdict == "growing"


@pytest.mark.parametrize("spec, lam, verdicts", [
    # a shift by 0 is the identity map
    (BaseSpec("entire", ShiftAut(0)), 1, ("bounded", "bounded")),
    (BaseSpec("interval", ShiftAut(0)), 1, ("bounded", "bounded")),
    # |q| = 1 + 2^-45: q^m stays within 1 + 2^-42 of 1 up to degree 8
    (BaseSpec("entire", ScaleAut(Fraction(2**45 + 1, 2**45))), 1, ("growing", "bounded")),
    (BaseSpec("entire", ScaleAut(Fraction(2**45, 2**45 + 1))), 1, ("bounded", "growing")),
    (BaseSpec("free", DiagonalAut((Fraction(1), Fraction(-1)))), 1, ("bounded", "bounded")),
    # ((lam + 1) / lam)^m is 1 + 8e-13 at most: a shift grows both ways
    (BaseSpec("entire", ShiftAut()), Fraction(10**13), ("growing", "growing")),
    (BaseSpec("interval", ShiftAut()), Fraction(10**13), ("growing", "growing")),
    (BaseSpec("interval", ShiftAut(Fraction(-1, 3))), 1, ("growing", "growing")),
])
def test_probe_verdicts_are_exact(spec, lam, verdicts):
    (report,) = localizability_probe(spec, [lam], 8 if spec.kind != "free" else 3)
    assert (report.forward.verdict, report.backward.verdict) == verdicts
    assert report.family_bounded == (verdicts == ("bounded", "bounded"))
    # the sup ratio is max(1, g)^depth: 1 for the identity, and never below 1
    assert min(report.forward.sup_ratio, report.backward.sup_ratio) >= 1.0


def _measured_sup_ratio(spec, lam, depth, direction):
    """sup ||alpha^direction e|| / ||e|| over every basis monomial e of degree <= depth."""
    if spec.kind == "free":
        keys = [v for n in range(depth + 1) for v in itertools.product(range(spec.ngens), repeat=n)]
    else:
        keys = range(depth + 1)
    return max(spec.seminorm(spec.aut.apply(e, direction), lam) / spec.seminorm(e, lam)
               for e in (spec.monomial(1, k) for k in keys))


REFERENCE_SPECS = [
    *(BaseSpec("entire", ScaleAut(q)) for q in
      (q_of(2), q_of("1/2"), GaussianRational(1, 1),
       GaussianRational(Fraction(3, 5), Fraction(4, 5)))),
    BaseSpec("entire", IdentityAut()),
    *(BaseSpec(kind, ShiftAut(s)) for kind in ("entire", "interval")
      for s in (Fraction(1), Fraction(-1, 3))),
    BaseSpec("interval", IdentityAut()),
    BaseSpec("free", DiagonalAut((Fraction(3, 2), Fraction(1, 3), GaussianRational(1, 1))), 3),
    BaseSpec("free", IdentityAut(), 3),
]


@pytest.mark.parametrize("spec", REFERENCE_SPECS)
def test_probe_ratio_matches_the_basis_measurement(spec):
    # the probe's closed form max(1, g)^depth against the sup over the basis
    for lam in (Fraction(1, 3), Fraction(1), Fraction(5, 2)):
        for depth in range(1, (3 if spec.kind == "free" else 6) + 1):
            (report,) = localizability_probe(spec, [lam], depth)
            for direction, got in ((1, report.forward), (-1, report.backward)):
                measured = _measured_sup_ratio(spec, lam, depth, direction)
                assert got.sup_ratio == pytest.approx(measured, rel=1e-12), (lam, depth)
                assert got.verdict == ("growing" if measured > 1 else "bounded")


def test_probe_rejects_bad_cap(scale2_spec):
    with pytest.raises(ValueError):
        localizability_probe(scale2_spec, [1], 0)
