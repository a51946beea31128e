import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewcalc import (
    BaseSpec,
    CannotCertifyError,
    EntirePoly,
    FreeSeries,
    GaussianRational,
    IntervalPoly,
    LaurentOrePoly,
    ScaleAut,
    TwistedSeries,
    UnsupportedAutomorphism,
    Verdict,
    canonical_representative,
    ideal_member,
    mul,
    phi,
    quotient_norm,
    reduce_to_ore,
    relators,
    twisted_norm,
    vanishing_test,
)
from skewcalc.parsing import format_element
from skewcalc.quotient import phi_table
from skewcalc.words import all_words, winding

from conftest import q_of, rand_series

CAPS = dict(max_word_len=24, max_degree=32)


def series(spec, terms):
    return TwistedSeries(spec, terms, **CAPS)


def rand_monomial_series(rng, spec):
    letters = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 3)))
    from conftest import rand_gauss

    coeff = spec.monomial(rand_gauss(rng, allow_zero=False), rng.randint(0, 2))
    return series(spec, {letters: coeff})


def rand_ideal_element(rng, spec):
    r12, r21 = relators(spec, **CAPS)
    u = rand_monomial_series(rng, spec)
    v = rand_monomial_series(rng, spec)
    rel = r12 if rng.random() < 0.5 else r21
    return mul(mul(u, rel), v)


# -- winding functionals -----------------------------------------------------


def test_phi_sums_over_winding_classes(scale2_spec):
    z = EntirePoly({1: 1})
    f = series(scale2_spec, {(1, 2, 1): z, (1,): z, (2,): EntirePoly.one()})
    assert phi(f, 1, 1) == GaussianRational.of(2)
    assert phi(f, 0, -1) == GaussianRational.of(1)
    assert phi(f, 3, 1) == GaussianRational()
    assert sorted(phi_table(f)) == [(0, -1), (1, 1)]


def test_phi_requires_entire_base(interval_shift_spec):
    f = series(interval_shift_spec, {(1,): IntervalPoly.one()})
    with pytest.raises(UnsupportedAutomorphism):
        phi(f, 0, 1)


def test_phi_vanishes_on_ideal_slice(rng, scale2_spec):
    for _ in range(50):
        g = rand_ideal_element(rng, scale2_spec)
        assert not phi_table(g)
        assert ideal_member(g)


def test_phi_invariant_under_ideal_shift(rng, scale2_spec):
    for _ in range(30):
        f = rand_series(rng, scale2_spec, 3, 4, 3, **CAPS)
        g = rand_ideal_element(rng, scale2_spec)
        for m, n in sorted(phi_table(f)):
            assert phi(f, m, n) == phi(f + g, m, n)


def _phi_by_words(f):
    """Direct sum over words of the z^m coefficients, by winding."""
    out = {}
    for w, a in f.terms.items():
        for m, c in a.coeffs.items():
            key = (m, winding(w))
            out[key] = out.get(key, GaussianRational()) + c
    return {key: c for key, c in out.items() if c}


def test_phi_table_matches_sum_over_words(rng, scale2_spec, shift_entire_spec):
    for spec in (scale2_spec, shift_entire_spec):
        for _ in range(40):
            f = rand_series(rng, spec, 4, 4, 3, **CAPS)
            # reversed words keep their winding, so the mirror cancels f's functionals
            mirror = series(spec, {tuple(reversed(w)): -a for w, a in f.terms.items()})
            g = rand_series(rng, spec, 2, 4, 3, **CAPS)
            for h in (f, f + mirror, f + mirror + g, f + g):
                table = _phi_by_words(h)
                assert phi_table(h) == table
                assert sorted(phi_table(h)) == sorted(table)
                assert ideal_member(h) == (not table)
            assert not phi_table(f + mirror)


def test_ideal_member_rejects_nonmembers(scale2_spec):
    x1 = series(scale2_spec, {(1,): EntirePoly.one()})
    x2 = series(scale2_spec, {(2,): EntirePoly.one()})
    assert not ideal_member(x1)
    assert not ideal_member(x2)
    r12, r21 = relators(scale2_spec, **CAPS)
    assert ideal_member(r12) and ideal_member(r21)


# -- canonical representatives and quotient norms ----------------------------


def test_canonical_representative_three_cases(scale2_spec):
    z = EntirePoly({1: 1})
    f = series(scale2_spec, {(1,): z})  # class (m=1, n=1), |q|^m = 2
    # |q|^m <= rho: plain winding word
    rep = canonical_representative(f, 4.0)
    assert rep.series.terms == {(1,): z} and not rep.dropped
    # rho < |q|^m <= rho^2: winding word padded by one x2
    rep = canonical_representative(f, 1.5)
    assert rep.series.terms == {(1, 1, 2): z} and not rep.dropped
    # rho^2 < |q|^m: the class is annihilated
    rep = canonical_representative(f, 1.0)
    assert rep.series.is_zero() and rep.dropped == frozenset({(1, 1)})


def test_canonical_representative_nonpositive_winding(scale2_spec):
    z = EntirePoly({1: 1})
    f = series(scale2_spec, {(2,): z})  # class (m=1, n=-1)
    rep = canonical_representative(f, 1.5)
    assert rep.series.terms == {(2,): z}


def test_canonical_representative_rejects_unit_scale_and_interval(interval_shift_spec):
    unit = BaseSpec("entire", ScaleAut(GaussianRational(Fraction(3, 5), Fraction(4, 5))))
    f = series(unit, {(1,): EntirePoly.one()})
    with pytest.raises(UnsupportedAutomorphism, match="\\|q\\| = 1"):
        canonical_representative(f, 2.0)
    g = TwistedSeries(interval_shift_spec, {(1,): IntervalPoly.one()}, **CAPS)
    with pytest.raises(UnsupportedAutomorphism):
        canonical_representative(g, 2.0)


def test_canonical_representative_contracting_scale_mirrors(scale_half_spec):
    # over q = 1/2 the x2-side mirrors the x1-side of q = 2, padded by one x1
    z = EntirePoly({1: 1})
    f = series(scale_half_spec, {(2,): z})  # class (m=1, n=-1)
    rep = canonical_representative(f, 4.0)
    assert rep.series.terms == {(2,): z} and not rep.dropped
    rep = canonical_representative(f, 1.5)
    assert rep.series.terms == {(2, 2, 1): z} and not rep.dropped
    assert rep.series.spec == scale_half_spec
    rep = canonical_representative(f, 1.0)
    assert rep.series.is_zero() and rep.dropped == frozenset({(1, -1)})


def test_canonical_representative_norm_is_quotient_norm_contracting(rng, scale_half_spec):
    for _ in range(30):
        f = rand_series(rng, scale_half_spec, 2, 3, 3, **CAPS)
        for rho in (1.0, 1.5, 2.0, 4.0):
            rep = canonical_representative(f, rho)
            value, _ = twisted_norm(rep.series, 1, rho)
            assert value == quotient_norm(f, 1, rho)


def test_quotient_norm_spot_values(scale2_spec):
    z = EntirePoly({1: 1})
    f = series(scale2_spec, {(1,): z})
    assert quotient_norm(f, 1, 4.0) == pytest.approx(4.0, abs=1e-12)
    assert quotient_norm(f, 1, 1.5) == pytest.approx(0.84375, abs=1e-12)
    assert quotient_norm(f, 1, 1.0) == 0.0
    # a plain class with n < 0 weighs rho^|n|
    g = series(scale2_spec, {(2,): z})
    assert quotient_norm(g, 1, 4.0) == 4.0


def test_quotient_norm_swap_symmetry(scale_half_spec):
    # over q = 1/2 the x2-side mirrors the x1-side of q = 2
    z = EntirePoly({1: 1})
    f = series(scale_half_spec, {(2,): z})
    assert quotient_norm(f, 1, 4.0) == pytest.approx(4.0, abs=1e-12)
    assert quotient_norm(f, 1, 1.5) == pytest.approx(0.84375, abs=1e-12)
    assert quotient_norm(f, 1, 1.0) == 0.0


def test_quotient_norm_rejects_nonpositive_rho(scale2_spec, scale_half_spec):
    for spec in (scale2_spec, scale_half_spec):
        f = series(spec, {(1,): EntirePoly({1: 1})})
        with pytest.raises(ValueError, match="rho must be positive"):
            quotient_norm(f, 1, -2.0)


def test_quotient_norm_vanishes_on_ideal(rng, scale2_spec):
    for _ in range(20):
        g = rand_ideal_element(rng, scale2_spec)
        assert quotient_norm(g, 1, 1.5) == 0.0


def test_quotient_norm_is_a_lower_bound(rng, scale2_spec):
    for _ in range(50):
        f = rand_series(rng, scale2_spec, 2, 3, 3, **CAPS)
        g = rand_ideal_element(rng, scale2_spec)
        candidate, _ = twisted_norm(f + g, 1, 1.5)
        assert candidate >= quotient_norm(f, 1, 1.5) - 1e-9


def _least_weights(seminorms, words, rho, top_len):
    """least[L]: the least seminorm * rho^|w| over the given words of length <= L."""
    least = [math.inf] * (top_len + 1)
    for w in words:
        least[len(w)] = min(least[len(w)], seminorms[w] * float(rho) ** len(w))
    for length in range(1, top_len + 1):
        least[length] = min(least[length], least[length - 1])
    return least


def test_quotient_norm_is_the_least_weight_over_words():
    # a brute force over every word up to length 10, without the canonical
    # representative: z^m on its plain winding word has, as quotient norm,
    # the least rho^|w| ||z^m||^(w) over the words w of its winding, which
    # no longer word lowers; a dropped class's least weight still falls at
    # the top length
    top_len = 10
    by_winding = {}
    for w in all_words(top_len):
        by_winding.setdefault(winding(w), []).append(w)
    for q in (q_of(2), q_of("1/2"), q_of("3/2"), GaussianRational(1, 1), q_of("2/3")):
        spec = BaseSpec("entire", ScaleAut(q))
        for m in range(4):
            z_m = EntirePoly({m: 1})
            seminorms = {}
            for n in range(-3, 4):
                for w in by_winding[n]:
                    seminorms[w] = spec.twisted_seminorm(z_m, w, 1)[0]
            for rho in (1, Fraction(3, 2), 2, 3):
                for n in range(-3, 4):
                    plain = (1,) * n if n >= 0 else (2,) * -n
                    value = quotient_norm(series(spec, {plain: z_m}), 1, rho)
                    least = _least_weights(seminorms, by_winding[n], rho, top_len)
                    if value:
                        assert value == pytest.approx(least[top_len], rel=1e-12), (q, m, rho, n)
                        assert all(value <= bound * (1 + 1e-12) for bound in least)
                    else:
                        assert least[top_len] < least[top_len - 2] * (1 - 1e-12), (q, m, rho, n)


# -- reduction to the skew Laurent ring --------------------------------------


def test_reduce_to_ore_collapses_windings(scale2_spec):
    z = EntirePoly({1: 1})
    f = series(scale2_spec, {(1, 2, 1): z, (1,): z, (1, 2): EntirePoly.one()})
    reduced = reduce_to_ore(f)
    assert reduced == LaurentOrePoly(
        scale2_spec, {1: EntirePoly({1: 2}), 0: EntirePoly.one()}
    )


def test_reduce_kills_relators(scale2_spec):
    for rel in relators(scale2_spec, **CAPS):
        assert reduce_to_ore(rel).is_zero()


def test_reduce_is_multiplicative_spot(rng, scale2_spec):
    for _ in range(30):
        f = rand_series(rng, scale2_spec, 2, 3, 3, **CAPS)
        g = rand_series(rng, scale2_spec, 2, 3, 3, **CAPS)
        assert reduce_to_ore(mul(f, g)) == reduce_to_ore(f) * reduce_to_ore(g)


# -- quotient classes --------------------------------------------------------


def test_quotient_class_printing(scale2_spec):
    # a class prints as its reduction, the Laurent polynomial on the scaling base
    z = EntirePoly({1: 1})
    f = series(scale2_spec, {(1,): z.scale(2), (2, 2): EntirePoly.one()})
    assert format_element(reduce_to_ore(f)) == "(2*z)*t + t^-2"
    r12, _ = relators(scale2_spec, **CAPS)
    assert format_element(reduce_to_ore(r12)) == "0"


# -- vanishing diagnostics ---------------------------------------------------


def test_vanishing_interval_shift_collapse(interval_shift_spec):
    report = vanishing_test(interval_shift_spec, IntervalPoly.one(), [1, 2], [1], 12)
    assert report.verdict is Verdict.COLLAPSE_CERTIFIED
    assert report.r_invertible


def test_vanishing_entire_shift_zero_certificate(shift_entire_spec):
    report = vanishing_test(shift_entire_spec, EntirePoly.one(), [1], [1, 2], 12)
    assert report.verdict is Verdict.COLLAPSE_CERTIFIED


def test_vanishing_scale_no_decay(scale2_spec):
    report = vanishing_test(scale2_spec, EntirePoly.one(), [1], [1, 2], 10)
    assert report.verdict is Verdict.NO_DECAY


def test_vanishing_noninvertible_r_downgrades(interval_shift_spec):
    report = vanishing_test(interval_shift_spec, IntervalPoly({1: 1}), [1], [1], 12)
    assert report.verdict is Verdict.RAPID_DECAY_OBSERVED
    assert not report.r_invertible


def test_vanishing_rapid_decay_without_zero_tail(scale2_spec):
    report = vanishing_test(scale2_spec, EntirePoly.one(), [1], [Fraction(1, 10)], 12)
    assert report.verdict is Verdict.RAPID_DECAY_OBSERVED


def test_vanishing_underflow_is_not_a_certificate(scale2_spec):
    # |1|^{(w_k)} = 1 exactly; only the factor rho^(2k) underflows to 0.0
    report = vanishing_test(scale2_spec, EntirePoly.one(), [1], [1e-200], 4)
    assert report.verdict is Verdict.RAPID_DECAY_OBSERVED
    assert all(value == 0.0 for *_, value in report.rows)


def test_vanishing_upper_bounds_cannot_certify(free_diag_spec):
    with pytest.raises(CannotCertifyError):
        vanishing_test(free_diag_spec, FreeSeries({(0,): 1}), [1], [1], 12)


def test_vanishing_report_csv(interval_shift_spec):
    # the rows `vanishing --format csv` prints: one (lam, rho, k, value) per k,
    # all under the report's one verdict
    report = vanishing_test(interval_shift_spec, IntervalPoly.one(), [1], [1], 4)
    assert [(lam, rho, k) for lam, rho, k, _ in report.rows] == [
        (1, 1, k) for k in range(1, 5)
    ]
    assert report.verdict is Verdict.COLLAPSE_CERTIFIED
    assert report.verdict.value == "CollapseCertified"


def test_vanishing_rejects_nonpositive_rho(scale2_spec):
    # rho^(2k) = 0 would make every term "decay", and rho = -1 would read as 1
    for rhos in ([0], [1, -1]):
        with pytest.raises(ValueError, match="rho must be positive"):
            vanishing_test(scale2_spec, EntirePoly.one(), [1], rhos, 4)


# -- the two pictures ----------------------------------------------------------

coefficients = st.dictionaries(
    st.integers(0, 3),
    st.sampled_from([Fraction(x) for x in ("1", "-1", "2", "1/2", "-3/2")]),
    min_size=1, max_size=2,
).map(EntirePoly)
words = st.lists(st.sampled_from((1, 2)), max_size=3).map(tuple)


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from(("2", "1/2", "3/2")),
    terms=st.dictionaries(words, coefficients, max_size=4),
    in_ideal=st.booleans(),
    lam=st.sampled_from((1, 2)),
    rho=st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0, 4.0)),
)
def test_quotient_reads_only_the_ore_class(q, terms, in_ideal, lam, rho):
    spec = BaseSpec("entire", ScaleAut(q_of(q)))
    f = series(spec, terms)
    if in_ideal:
        f = mul(f, relators(spec, **CAPS)[0])
    ore = reduce_to_ore(f)
    assert quotient_norm(f, lam, rho) == quotient_norm(ore, lam, rho)
    rep, rep_ore = canonical_representative(f, rho), canonical_representative(ore, rho)
    assert rep.series == rep_ore.series and rep.dropped == rep_ore.dropped
    assert phi_table(f) == phi_table(ore)
    assert ideal_member(f) == ideal_member(ore)
    if in_ideal:
        assert ideal_member(ore)


def test_truncated_input_has_no_class(scale2_spec, scale_half_spec):
    for spec in (scale2_spec, scale_half_spec):
        x1 = TwistedSeries(spec, {(1,): spec.one()}, max_word_len=1, max_degree=8)
        cut = mul(x1, x1) + x1
        assert cut.truncated and reduce_to_ore(cut).truncated
        for read in (phi_table, ideal_member, lambda f: canonical_representative(f, 2.0),
                     lambda f: quotient_norm(f, 1, 2.0)):
            with pytest.raises(ValueError):
                read(cut)
