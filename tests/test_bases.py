import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewcalc import (
    BaseSpec,
    DiagonalAut,
    EntirePoly,
    Exactness,
    FreeSeries,
    GaussianRational,
    IdentityAut,
    IntervalPoly,
    ScaleAut,
    SearchBudget,
    ShiftAut,
    UnsupportedAutomorphism,
    bruteforce_twisted_norm,
    generic_twisted_upper_bound,
    interval_seminorm,
    weighted_seminorm,
)
from skewcalc import bases
from skewcalc.bases import InvalidDecompositionError, i_w_apply
from skewcalc.words import all_words, interval, partial_sums

from conftest import (
    q_of,
    rand_entire,
    rand_free,
    rand_gauss,
    rand_interval_poly,
    rand_word,
)

REL_TOL = 1e-9


# -- element arithmetic ------------------------------------------------------


def test_entire_poly_arithmetic_is_exact():
    f = EntirePoly({0: Fraction(1, 3), 2: 1})
    g = EntirePoly({1: Fraction(-1, 2)})
    assert (f * g).coeffs == {1: GaussianRational.of(Fraction(-1, 6)),
                              3: GaussianRational.of(Fraction(-1, 2))}
    assert f + (-f) == EntirePoly.zero()
    assert f.degree() == 2
    with pytest.raises(ValueError):
        EntirePoly({-1: 1})
    with pytest.raises(ValueError):
        IntervalPoly({-1: 1})
    # the kinds share one element type but never compare equal
    assert EntirePoly({0: 1}) != IntervalPoly({0: 1})


def test_equal_elements_hash_equal():
    # the same terms in another order, and coefficients written another way
    for a, b in ((EntirePoly({2: 1, 0: Fraction(1, 2)}), EntirePoly({0: q_of("2/4"), 2: 1})),
                 (FreeSeries({(0, 1): 3, (): 1}), FreeSeries({(): 1, (0, 1): Fraction(6, 2)}))):
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


def _value(f: IntervalPoly, x: Fraction) -> Fraction:
    return sum(c * x**m for m, c in f.coeffs.items())


def test_interval_poly_evaluate():
    f = IntervalPoly({2: 1, 0: -1})
    assert _value(f, Fraction(3, 2)) == Fraction(5, 4)


def test_interval_poly_keeps_rational_coefficients():
    # the Sturm code does Fraction arithmetic on these coefficients
    f = IntervalPoly({2: Fraction(1, 3), 0: -1})
    g = IntervalPoly({1: 2})
    for result in (f + g, f * g, f.scale(Fraction(3, 2)),
                   f.shift_argument(Fraction(1, 2))):
        assert result.coeffs
        assert all(type(c) is Fraction for c in result.coeffs.values())


# Element products against a convolution written here: every pair of terms,
# summed per key, zeros dropped.  The key order is the loop's (left term
# first), which the one-term shortcut keeps: float seminorms sum in it.
def ref_product(f, g):
    out = {}
    for k1, c1 in f.coeffs.items():
        for k2, c2 in g.coeffs.items():
            k = k1 + k2
            out[k] = out[k] + c1 * c2 if k in out else c1 * c2
    return {k: c for k, c in out.items() if c}


product_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
gaussian = st.builds(GaussianRational, product_fractions, product_fractions)
PRODUCT_KINDS = {
    # kind: (its keys, its scalars, its key type, its scalar type)
    EntirePoly: (st.integers(0, 6), gaussian, int, GaussianRational),
    IntervalPoly: (st.integers(0, 6), product_fractions, int, Fraction),
    FreeSeries: (st.lists(st.integers(0, 1), max_size=3).map(tuple), gaussian, tuple,
                 GaussianRational),
}


def product_operand(kind, terms):
    keys, scalars = PRODUCT_KINDS[kind][:2]
    one = st.builds(lambda k, c: kind({k: c}), keys, scalars.filter(bool))
    if terms == 1:
        return one
    many = st.dictionaries(keys, scalars, min_size=2, max_size=5).map(kind)
    return many.filter(lambda el: len(el.coeffs) >= 2) if terms == 2 else st.one_of(one, many)


def cancelling_pair(kind):
    """(a e + b p)(c p - (b c / a) p p): the two products on p p cancel."""
    keys, scalars = PRODUCT_KINDS[kind][:2]
    unit = kind._key()
    nonzero = scalars.filter(bool)

    def build(p, a, b, c):
        return kind({unit: a, p: b}), kind({p: c, p + p: -(b * c) / a})

    return st.builds(build, keys.filter(lambda p: p != unit), nonzero, nonzero, nonzero)


@pytest.mark.parametrize("kind", PRODUCT_KINDS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("shape", ("one_left", "one_right", "one_both", "multi", "cancel"))
@given(data=st.data())
def test_element_product_matches_reference_convolution(kind, shape, data):
    terms = {"one_left": (1, None), "one_right": (None, 1), "one_both": (1, 1),
             "multi": (2, 2)}
    if shape == "cancel":
        f, g = data.draw(cancelling_pair(kind))
    else:
        f, g = (data.draw(product_operand(kind, n)) for n in terms[shape])
    product = f * g
    expected = ref_product(f, g)
    assert product.coeffs == expected
    assert list(product.coeffs) == list(expected)
    _, _, key_type, scalar_type = PRODUCT_KINDS[kind]
    for k, c in product.coeffs.items():
        assert type(k) is key_type
        assert type(c) is scalar_type and c
    if shape == "cancel":
        assert len(product.coeffs) < len(f.coeffs) * len(g.coeffs)


def test_free_series_concatenation():
    a = FreeSeries({(0,): 1})
    b = FreeSeries({(1,): 2})
    assert (a * b).coeffs == {(0, 1): GaussianRational.of(2)}
    assert (b * a).coeffs == {(1, 0): GaussianRational.of(2)}
    assert FreeSeries({(0, 1): 1}).degree() == 2


def test_shift_argument_is_substitution():
    f = IntervalPoly({2: 1})  # z^2
    shifted = f.shift_argument(Fraction(1))  # (z - 1)^2
    assert shifted == IntervalPoly({2: 1, 1: -2, 0: 1})


def ref_shift(coeffs, s):
    """f(z - s) by the binomial expansion sum_m c_m sum_j C(m, j) (-s)^(m-j) z^j."""
    out = {}
    for m, c in coeffs.items():
        for j in range(m + 1):
            out[j] = out.get(j, 0) + c * (math.comb(m, j) * (-s) ** (m - j))
    return {j: c for j, c in out.items() if c}


shift_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
SHIFT_SCALARS = {
    EntirePoly: st.builds(GaussianRational, shift_fractions, shift_fractions),
    IntervalPoly: shift_fractions,
}


def shift_inputs(kind):
    values = SHIFT_SCALARS[kind]
    sparse = st.dictionaries(st.integers(0, 12), values, max_size=5)
    dense = st.integers(0, 12).flatmap(
        lambda n: st.lists(values, min_size=n + 1, max_size=n + 1)).map(lambda cs: dict(enumerate(cs)))
    return st.one_of(sparse, dense).map(kind)


@pytest.mark.parametrize("kind", (EntirePoly, IntervalPoly), ids=lambda k: k.__name__)
@given(data=st.data())
def test_shift_argument_matches_binomial_expansion(kind, data):
    f = data.draw(shift_inputs(kind))
    s = data.draw(st.sampled_from([Fraction(x) for x in ("0", "1", "-1", "1/2", "-1/2", "7/3")]))
    shifted = f.shift_argument(s)
    assert shifted == kind(ref_shift(f.coeffs, s))
    scalar_type = GaussianRational if kind is EntirePoly else Fraction
    for c in shifted.coeffs.values():
        assert type(c) is scalar_type and c


@pytest.mark.parametrize("kind", (EntirePoly, IntervalPoly), ids=lambda k: k.__name__)
@pytest.mark.parametrize("n", (64, 200))
@pytest.mark.parametrize("s", (Fraction(1), Fraction(-1, 3), Fraction(5, 2)), ids=str)
def test_shift_argument_matches_binomial_expansion_at_high_degree(kind, n, s):
    # sparse inputs: the integer Taylor shift fills every lower degree
    c = GaussianRational(Fraction(3, 2), Fraction(-1, 5)) if kind is EntirePoly else Fraction(3, 2)
    scalar_type = GaussianRational if kind is EntirePoly else Fraction
    for f in (kind({n: 1}), kind({n: c, 3: Fraction(-7, 4), 0: 2})):
        shifted = f.shift_argument(s)
        assert shifted == kind(ref_shift(f.coeffs, s))
        assert list(shifted.coeffs) == sorted(shifted.coeffs)
        assert all(type(c) is scalar_type and c for c in shifted.coeffs.values())


# -- plain seminorms ---------------------------------------------------------


def test_entire_seminorm_values():
    f = EntirePoly({0: 1, 2: Fraction(-3, 2)})
    assert weighted_seminorm(f, 2.0) == 1 + 1.5 * 4
    with pytest.raises(ValueError):
        weighted_seminorm(f, 0)


def test_free_seminorm_values():
    a = FreeSeries({(): 1, (0, 1): -2})
    assert weighted_seminorm(a, 3.0) == 1 + 2 * 9


def test_interval_seminorm_endpoint_maximum():
    f = IntervalPoly({2: 1, 0: -1})  # z^2 - 1
    assert interval_seminorm(f, (-2, 2)) == 3.0


def test_interval_seminorm_interior_critical_point():
    f = IntervalPoly({3: 1, 1: -1})  # z^3 - z, critical points +-1/sqrt(3)
    expected = 2 / (3 * math.sqrt(3))
    assert interval_seminorm(f, (-1, 1)) == pytest.approx(expected, abs=1e-9)


def test_interval_seminorm_repeated_derivative_roots():
    f = IntervalPoly({4: 1, 2: -2, 0: 1})  # (z^2 - 1)^2
    assert interval_seminorm(f, (-2, 2)) == pytest.approx(9.0, abs=1e-9)
    assert interval_seminorm(f, (-1, 1)) == pytest.approx(1.0, abs=1e-9)


def test_interval_seminorm_repeated_critical_point_at_an_endpoint():
    # f' = (z + 2)^2 (z - 3/2): every member of the signed remainder sequence
    # of f' vanishes at -2, so only the sequence divided by their gcd z + 2
    # still counts the root at 3/2
    f = IntervalPoly({4: Fraction(1, 4), 3: Fraction(5, 6), 2: -1, 1: -6})
    assert _value(f, Fraction(3, 2)) == Fraction(-459, 64)
    assert interval_seminorm(f, (-2, 2)) == pytest.approx(459 / 64, abs=1e-9)


def _sup_bracket(f: IntervalPoly, lo: Fraction, hi: Fraction, points: int = 256):
    """(lower, upper) bounds on sup |f| over [lo, hi], without root isolation.

    lower is the largest |f| on a uniform grid of step h.  The sup is at an
    endpoint or at a critical point x*, within h/2 of a grid point, where
    Taylor's theorem gives |f(x*)| <= lower + M2 h^2 / 8 with
    M2 = sum |c_m| m (m-1) R^(m-2) >= |f''| on [-R, R].
    """
    h = (hi - lo) / points
    lower = max(abs(_value(f, lo + j * h)) for j in range(points + 1))
    radius = max(abs(lo), abs(hi))
    m2 = sum(abs(c) * m * (m - 1) * radius ** (m - 2) for m, c in f.coeffs.items() if m > 1)
    return lower, lower + m2 * h * h / 8


def _antiderivative(roots: dict, scale: Fraction, constant: Fraction) -> IntervalPoly:
    """The f with f(0) = constant and f' = scale * prod (z - r)^e over roots {r: e}."""
    deriv = IntervalPoly({0: scale})
    for r, e in roots.items():
        for _ in range(e):
            deriv = deriv * IntervalPoly({1: 1, 0: -r})
    terms = {m + 1: c / (m + 1) for m, c in deriv.coeffs.items()}
    return IntervalPoly({**terms, 0: constant})


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
dyadics = st.builds(lambda n, k: Fraction(n, 2**k), st.integers(-12, 12), st.integers(0, 3))
random_polys = st.dictionaries(st.integers(0, 7), small_fractions, max_size=8).map(IntervalPoly)
repeated_root_polys = st.builds(
    _antiderivative,
    st.dictionaries(dyadics, st.integers(1, 3), min_size=1, max_size=3),
    small_fractions.filter(bool),
    small_fractions,
)


@settings(max_examples=60, deadline=None)
@given(f=st.one_of(random_polys, repeated_root_polys),
       n=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]),
       shift=st.integers(-3, 3).map(lambda k: Fraction(k, 2)))
def test_interval_seminorm_within_grid_bracket(f, n, shift):
    # the shifted windows [-n - s, n - s] of the shift twist
    lo, hi = -n - shift, n - shift
    lower, upper = _sup_bracket(f, lo, hi)
    value = interval_seminorm(f, (lo, hi))
    assert float(lower) * (1 - 1e-12) <= value <= float(upper) * (1 + 1e-12)


@pytest.mark.parametrize("coeffs, lo, hi, distinct_critical", [
    ({4: 1, 2: -2}, -2, 2, 3),  # f' = 4z(z - 1)(z + 1)
    ({3: 1}, -1, 1, 1),  # f' = 3z^2: one distinct root, twice
    ({4: 1, 2: -2, 0: 1}, -1, 1, 2),  # (z^2 - 1)^2: 0 and 1 lie in (-1, 1]
    ({5: 1, 3: Fraction(-25, 3), 1: 20}, Fraction(-5, 2), Fraction(3, 2), 3),  # -2, -1, 1
])
def test_interval_seminorm_sturm_count_once_per_point(monkeypatch, coeffs, lo, hi,
                                                      distinct_critical):
    # one Sturm count at each endpoint, then at most one per bisection level
    # of each distinct critical point in (lo, hi]
    calls = []
    original = bases._sign_changes

    def counted(chain, x):
        calls.append(x)
        return original(chain, x)

    monkeypatch.setattr(bases, "_sign_changes", counted)
    interval_seminorm(IntervalPoly(coeffs), (lo, hi))
    levels, width = 0, Fraction(hi - lo)  # ceil(log2((hi - lo) / _ROOT_WIDTH))
    while width > bases._ROOT_WIDTH:
        levels, width = levels + 1, width / 2
    assert len(calls) <= 2 + distinct_critical * levels


def test_interval_seminorm_empty_window_is_zero():
    f = IntervalPoly({0: 5})
    assert interval_seminorm(f, None) == 0.0


def test_interval_seminorm_rejects_an_inverted_window():
    # a supremum over an empty set; the empty window is None
    with pytest.raises(ValueError, match="inverted window"):
        interval_seminorm(IntervalPoly({3: 1, 1: -3}), (2, 1))


def ref_interval_seminorm(f: IntervalPoly, window) -> float:
    """The all-chain bisection: a Sturm count at every level of every root."""
    if window is None:
        return 0.0
    dense = bases._dense(f)
    lo, hi = Fraction(window[0]), Fraction(window[1])
    candidates = [lo, hi]
    if len(dense) > 2:
        chain = bases._sturm_chain(bases._poly_deriv(dense))

        def count(x):
            signs = [v > 0 for v in (bases._poly_eval(p, x) for p in chain) if v]
            return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

        stack = [(lo, count(lo), hi, count(hi))]
        while stack:
            a, va, b, vb = stack.pop()
            if va == vb:
                continue
            mid = (a + b) / 2
            if b - a <= bases._ROOT_WIDTH:
                candidates.append(mid)
            else:
                vm = count(mid)
                stack += [(a, va, mid, vm), (mid, vm, b, vb)]
    return float(max(abs(bases._poly_eval(dense, x)) for x in candidates))


def _levels(width: Fraction) -> int:
    """ceil(log2(width / _ROOT_WIDTH)): the halvings down to a final cell."""
    levels = 0
    while width > bases._ROOT_WIDTH:
        levels, width = levels + 1, width / 2
    return levels


@st.composite
def critical_point_cases(draw):
    """(f, window) with f's critical points where the refinement can go wrong."""
    lo = Fraction(draw(st.integers(-4, 3)), draw(st.sampled_from([1, 2, 3])))
    width = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3),
                                  Fraction(4)]))
    hi = lo + width
    dyadic = st.integers(1, 20).flatmap(  # the bisection midpoints of level k
        lambda k: st.integers(1, 2**k - 1).map(lambda j: lo + width * Fraction(j, 2**k)))
    ends = st.sampled_from([lo, hi])
    inside = st.fractions(min_value=lo, max_value=hi, max_denominator=97)
    gaps = st.sampled_from([Fraction(1, 10**e) for e in (11, 12, 13, 14)])
    # two roots a third of a final cell apart share that cell
    final = width / 2 ** _levels(width)
    same_cell = st.integers(0, 2 ** _levels(width) - 1).map(
        lambda j: [lo + final * (j + Fraction(1, 3)), lo + final * (j + Fraction(2, 3))])
    root_lists = st.one_of(
        st.lists(dyadic, min_size=1, max_size=3),
        st.lists(st.one_of(ends, dyadic), min_size=1, max_size=3),
        st.builds(lambda r, pair: [r, r + pair], inside, gaps),
        same_cell,
    )
    roots = {}
    for r in draw(root_lists):
        roots[r] = roots.get(r, 0) + draw(st.integers(1, 3))  # repeated roots
    return _antiderivative(roots, draw(small_fractions.filter(bool)),
                           draw(small_fractions)), (lo, hi)


low_degree_cases = st.tuples(
    st.dictionaries(st.integers(0, 2), small_fractions, max_size=3).map(IntervalPoly),
    st.one_of(
        st.none(),
        small_fractions.map(lambda x: (x, x)),
        st.tuples(small_fractions, small_fractions).map(lambda ab: tuple(sorted(ab))),
    ),
)


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(critical_point_cases(), low_degree_cases,
                      st.tuples(random_polys, st.tuples(small_fractions, small_fractions)
                                .map(lambda ab: tuple(sorted(ab))))))
def test_interval_seminorm_matches_all_chain_bisection(case):
    # refining a one-root cell by the sign of chain[0] picks the cells the
    # Sturm counts would, so the value is repr-identical
    f, window = case
    assert repr(interval_seminorm(f, window)) == repr(ref_interval_seminorm(f, window))


@pytest.mark.parametrize("coeffs, lo, hi, distinct_critical", [
    ({2: 1}, -1, 2, 1),  # one root, so the isolating cell is the whole window
    ({4: 1, 2: -2}, -2, 2, 3),  # f' = 4z(z - 1)(z + 1)
    ({3: 1, 1: -3}, -2, 2, 2),  # f' = 3(z - 1)(z + 1): +-1 are bisection midpoints
    ({3: 1}, -1, 1, 1),  # f' = 3z^2: one distinct root, twice
    ({5: 1, 3: Fraction(-25, 3), 1: 20}, Fraction(-5, 2), Fraction(3, 2), 3),  # -2, -1, 1
])
def test_interval_seminorm_refines_on_one_evaluation_per_level(monkeypatch, coeffs, lo, hi,
                                                               distinct_critical):
    # after isolation, each root costs at most one evaluation of chain[0]
    # (the squarefree part of f') per level, and none of the rest of the chain
    chains, refine_evals, counting = [], [], []
    sturm_chain, sign_changes, poly_eval = (bases._sturm_chain, bases._sign_changes,
                                            bases._poly_eval)

    def captured_chain(dense):
        chains.append(sturm_chain(dense))
        return chains[-1]

    def counted_changes(chain, x):
        counting.append(x)
        try:
            return sign_changes(chain, x)
        finally:
            counting.pop()

    def counted_eval(dense, x):
        if chains and not counting:
            assert dense is chains[0][0] or dense == bases._dense(IntervalPoly(coeffs))
            if dense is chains[0][0]:
                refine_evals.append(x)
        return poly_eval(dense, x)

    monkeypatch.setattr(bases, "_sturm_chain", captured_chain)
    monkeypatch.setattr(bases, "_sign_changes", counted_changes)
    monkeypatch.setattr(bases, "_poly_eval", counted_eval)
    interval_seminorm(IntervalPoly(coeffs), (lo, hi))
    assert 0 < len(refine_evals) <= distinct_critical * _levels(Fraction(hi - lo))


def test_unit_has_norm_one(scale2_spec, interval_shift_spec, free_diag_spec):
    for spec, lam in ((scale2_spec, 2), (interval_shift_spec, 3), (free_diag_spec, 0.5)):
        assert spec.seminorm(spec.one(), lam) == 1.0


# -- submultiplicativity on random pairs -------------------------------------


def _check_submultiplicative(spec, pairs, lam):
    for a, b in pairs:
        lhs = spec.seminorm(a * b, lam)
        bound = spec.seminorm(a, lam) * spec.seminorm(b, lam)
        assert lhs <= bound * (1 + REL_TOL) + REL_TOL


def test_entire_seminorm_submultiplicative(rng, scale2_spec):
    pairs = [(rand_entire(rng), rand_entire(rng)) for _ in range(500)]
    for lam in (0.5, 1, 3):
        _check_submultiplicative(scale2_spec, pairs, lam)


def test_interval_seminorm_submultiplicative(rng, interval_shift_spec):
    pairs = [(rand_interval_poly(rng), rand_interval_poly(rng)) for _ in range(500)]
    _check_submultiplicative(interval_shift_spec, pairs, 2)


def test_free_seminorm_submultiplicative(rng, free_diag_spec):
    pairs = [(rand_free(rng), rand_free(rng)) for _ in range(500)]
    for lam in (0.5, 2):
        _check_submultiplicative(free_diag_spec, pairs, lam)


# -- automorphisms -----------------------------------------------------------


def test_aut_apply_inverse_round_trip(rng, scale2_spec, shift_entire_spec,
                                      interval_shift_spec, free_diag_spec):
    for spec, make in (
        (scale2_spec, rand_entire),
        (shift_entire_spec, rand_entire),
        (free_diag_spec, rand_free),
    ):
        for _ in range(20):
            el = make(rng)
            for k in (-3, -1, 1, 4):
                assert spec.aut.apply(spec.aut.apply(el, k), -k) == el
    el = rand_interval_poly(rng)
    assert interval_shift_spec.aut.apply(interval_shift_spec.aut.apply(el, 2), -2) == el


def test_scale_aut_norm_identity(rng, scale2_spec):
    # ||alpha^k(f)||_rho = ||f||_{|q|^k rho}
    for _ in range(50):
        f = rand_entire(rng)
        for k in (-2, -1, 1, 2):
            for rho in (0.5, 1, 2):
                lhs = weighted_seminorm(scale2_spec.aut.apply(f, k), rho)
                rhs = weighted_seminorm(f, 2.0**k * rho)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_shift_aut_norm_identity(rng):
    # sup of f(x - k) over [a, b] equals sup of f over [a - k, b - k]
    aut = ShiftAut()
    for _ in range(30):
        f = rand_interval_poly(rng)
        for k in (-2, 1, 3):
            lhs = interval_seminorm(aut.apply(f, k), (-2, 2))
            rhs = interval_seminorm(f, (-2 - k, 2 - k))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_diagonal_aut_weights_monomials(free_diag_spec):
    # generator 0 is scaled by 2, generator 1 by 1/2
    mono = FreeSeries({(0, 0, 1): 1})
    moved = free_diag_spec.aut.apply(mono, 1)
    assert moved.coeffs[(0, 0, 1)] == GaussianRational.of(2)
    back = free_diag_spec.aut.apply(mono, -1)
    assert back.coeffs[(0, 0, 1)] == GaussianRational.of(Fraction(1, 2))


def test_diagonal_aut_isometric_for_unit_modulus():
    unit = GaussianRational(Fraction(0), Fraction(1))
    spec = BaseSpec("free", DiagonalAut((unit, unit)), ngens=2)
    a = FreeSeries({(0, 1, 0): Fraction(5, 3)})
    for k in (-2, 1, 3):
        assert weighted_seminorm(spec.aut.apply(a, k), 2.0) == weighted_seminorm(a, 2.0)


def test_power_tables_equal_direct_powers():
    q = GaussianRational(Fraction(3, 2), Fraction(-1, 3))
    scale = ScaleAut(q)
    poly = EntirePoly({0: 2, 1: GaussianRational(1, 1), 3: Fraction(-1, 2), 7: 5})
    qs = (q_of(2), GaussianRational(Fraction(1, 2), 1), q_of("-2/3"))
    diagonal = DiagonalAut(qs)
    series = FreeSeries({(): 1, (0,): 3, (1, 2): GaussianRational(0, 1),
                         (2, 2, 0): Fraction(1, 3)})
    for k in range(-6, 7):
        expected = {}
        for v, c in series.coeffs.items():
            for i in v:
                c = c * qs[i] ** k
            expected[v] = c
        for _ in range(2):  # a table miss, then a hit
            assert scale.apply(poly, k).coeffs == {m: q ** (k * m) * c
                                                   for m, c in poly.coeffs.items()}
            assert diagonal.apply(series, k).coeffs == expected
    for step in (Fraction(1), Fraction(-1, 2)):
        shift = ShiftAut(step)
        for el in (EntirePoly({0: 2, 1: GaussianRational(1, 1), 3: Fraction(-1, 2)}),
                   IntervalPoly({0: 1, 2: Fraction(-3, 4), 4: 2})):
            for k in range(-6, 7):
                for _ in range(2):
                    assert shift.apply(el, k) == el.shift_argument(k * step)


def test_power_tables_leave_equality_and_hash_alone():
    for make, el in ((lambda: ScaleAut(q_of(2)), EntirePoly({5: 1, 2: 3})),
                     (lambda: DiagonalAut((q_of(2), q_of("1/2"))), FreeSeries({(0, 1): 1})),
                     (lambda: ShiftAut(Fraction(-1, 2)), EntirePoly({5: 1, 2: 3}))):
        filled, fresh = make(), make()
        for k in (-3, 2, 5):
            filled.apply(el, k)
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)


def test_power_tables_stay_bounded():
    span = bases._POWER_SPAN
    aut = ScaleAut(q_of(2))
    high = EntirePoly({5000: 1, **{m: 1 for m in range(0, 100, 3)}})
    for k in range(-40, 41):
        aut.apply(high, k)
    assert aut.apply(high, 7).coeffs[5000] == q_of(2) ** 35000
    assert 0 < len(aut._powers) <= 2 * span + 1
    assert all(abs(e) <= span for e in aut._powers)
    diagonal = DiagonalAut((q_of(2), q_of(3)))
    for k in range(-2 * span, 2 * span):
        diagonal.apply(FreeSeries({(0, 1): 1}), k)
    assert len(diagonal._powers) == 2 * span  # k = 0 never reaches the table
    shift = ShiftAut(Fraction(-1, 2))
    z = IntervalPoly({1: 1})
    for k in range(-2 * span, 2 * span):
        shift.apply(z, k)
    assert shift.apply(z, 2 * span - 1) == z.shift_argument((2 * span - 1) * Fraction(-1, 2))
    assert len(shift._offsets) == 2 * span
    assert all(abs(k) <= span for k in shift._offsets)


def test_scale_aut_rejects_zero():
    with pytest.raises(ValueError):
        ScaleAut(GaussianRational())


def test_aut_kind_is_not_an_argument():
    # BaseSpec dispatches on kind: a shift passed as "identity" used to
    # answer the plain seminorm instead of the shift zero certificate
    for make in (lambda: ShiftAut(1, "identity"), lambda: IdentityAut("scale"),
                 lambda: ScaleAut(q_of(2), kind="shift"),
                 lambda: DiagonalAut((q_of(2), q_of(3)), "identity")):
        with pytest.raises(TypeError):
            make()
    assert (IdentityAut().kind, ShiftAut(2).kind) == ("identity", "shift")


# -- base spec wiring --------------------------------------------------------


def test_base_spec_rejects_mismatched_automorphism():
    with pytest.raises(UnsupportedAutomorphism):
        BaseSpec("interval", ScaleAut(q_of(2)))
    with pytest.raises(UnsupportedAutomorphism):
        BaseSpec("free", ShiftAut())
    with pytest.raises(ValueError, match="one factor per generator"):
        BaseSpec("free", DiagonalAut((q_of(2), q_of("1/2"))), ngens=3)


def test_base_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown base kind 'lattice'"):
        BaseSpec("lattice", IdentityAut())


@pytest.mark.parametrize("spec, rand", [
    (BaseSpec("entire", IdentityAut()), rand_entire),
    (BaseSpec("entire", ShiftAut(Fraction(-3, 2))), rand_entire),
    (BaseSpec("interval", ShiftAut(2)), rand_interval_poly),
    (BaseSpec("free", DiagonalAut((q_of(2), GaussianRational(Fraction(1, 2), Fraction(1)),
                                   q_of(-3))), ngens=3),
     lambda rng: rand_free(rng, ngens=3)),
])
def test_base_spec_inverse_undoes_the_automorphism(rng, spec, rand):
    # alpha^-k is apply(., -k) for every automorphism kind
    for _ in range(30):
        a = rand(rng)
        for k in (1, 2, -1):
            assert spec.aut.apply(spec.aut.apply(a, k), -k) == a


def test_identity_map_is_one_predicate():
    # alpha keeps every seminorm: the identity, a shift by 0, or factors of
    # modulus 1; both the twisted seminorm and the probe read it
    unit = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    assert BaseSpec("entire", IdentityAut()).aut_is_isometry
    assert BaseSpec("entire", ShiftAut(0)).aut_is_isometry
    assert BaseSpec("interval", ShiftAut(0)).aut_is_isometry
    assert BaseSpec("entire", ScaleAut(unit)).aut_is_isometry
    assert BaseSpec("free", DiagonalAut((unit, q_of(-1))), ngens=2).aut_is_isometry
    assert not BaseSpec("interval", ShiftAut(Fraction(1, 10**30))).aut_is_isometry
    assert not BaseSpec("entire", ScaleAut(q_of(2))).aut_is_isometry
    assert not BaseSpec("free", DiagonalAut((unit, q_of(2))), ngens=2).aut_is_isometry


def test_is_invertible(scale2_spec, free_diag_spec):
    assert scale2_spec.is_invertible(EntirePoly({0: 3}))
    assert not scale2_spec.is_invertible(EntirePoly({1: 1}))
    assert not scale2_spec.is_invertible(EntirePoly.zero())
    assert free_diag_spec.is_invertible(FreeSeries({(): 1}))
    assert not free_diag_spec.is_invertible(FreeSeries({(0,): 1}))


# -- twisted seminorms -------------------------------------------------------


def test_twisted_seminorm_short_words_equal_base(rng, scale2_spec):
    for _ in range(20):
        f = rand_entire(rng)
        for w in ((), (1,), (2,)):
            value, tag = scale2_spec.twisted_seminorm(f, w, 1.5)
            assert tag is Exactness.EXACT
            assert value == scale2_spec.seminorm(f, 1.5)


def test_twisted_seminorm_of_zero_is_an_exact_float_zero(
        scale2_spec, shift_entire_spec, interval_shift_spec, free_diag_spec, identity_entire_spec):
    for spec in (scale2_spec, shift_entire_spec, interval_shift_spec, free_diag_spec,
                 identity_entire_spec):
        for w in ((1, 2), (2, 1, 1)):
            value = spec.twisted_seminorm(spec.zero(), w, 1)
            assert value == (0.0, Exactness.EXACT) and type(value[0]) is float


def test_twisted_seminorm_scale_closed_form(scale2_spec, scale_half_spec):
    z = EntirePoly({1: 1})
    # |q| > 1 rescales by |q|^{-k_max}; k_max(1122) = 2
    value, tag = scale2_spec.twisted_seminorm(z, (1, 1, 2, 2), 1)
    assert (value, tag) == (0.25, Exactness.EXACT)
    # |q| < 1 rescales by |q|^{-k_min}; k_min(2211) = -2
    value, tag = scale_half_spec.twisted_seminorm(z, (2, 2, 1, 1), 1)
    assert (value, tag) == (0.25, Exactness.EXACT)


def test_twisted_seminorm_scale_constant_survives_an_underflowed_radius(scale2_spec):
    # k_max(1^1100 2^1100) = 1100, and lambda * 2^-1100 underflows to 0.0
    w = (1,) * 1100 + (2,) * 1100
    assert 1.0 * 2.0 ** -1100 == 0.0
    for c, value in ((3, 3.0), (GaussianRational(Fraction(3), Fraction(4)), 5.0)):
        assert scale2_spec.twisted_seminorm(EntirePoly({0: c}), w, 1) == (value, Exactness.EXACT)
    with pytest.raises(ArithmeticError, match="underflows") as caught:
        scale2_spec.twisted_seminorm(EntirePoly({1: 1}), w, 1)
    assert not isinstance(caught.value, (OverflowError, ValueError))


def test_twisted_seminorm_unit_modulus_is_plain_seminorm(rng):
    # alpha is an isometry: f in slot 0 is optimal on every word, and no
    # sampled decomposition beats it
    unit = GaussianRational(Fraction(3, 5), Fraction(4, 5))
    scale = BaseSpec("entire", ScaleAut(unit))
    diagonal = BaseSpec("free", DiagonalAut((unit, GaussianRational(0, 1))), ngens=2)
    budget = SearchBudget(max_samples=20, seed=3)
    for _ in range(20):
        w = rand_word(rng, 6, min_len=2)
        for spec, el in ((scale, rand_entire(rng)), (diagonal, rand_free(rng, 2, 3))):
            for lam in (1, Fraction(3, 2)):
                value = spec.seminorm(el, lam)
                assert spec.twisted_seminorm(el, w, lam) == (value, Exactness.EXACT)
        monomial = EntirePoly({rng.randint(0, 4): rand_gauss(rng, allow_zero=False)})
        sampled = bruteforce_twisted_norm(scale, monomial, w, 1, budget)
        assert sampled >= scale.seminorm(monomial, 1) * (1 - 1e-12)


def test_twisted_seminorm_interval_shift_exact(interval_shift_spec):
    one = IntervalPoly.one()
    # window [-1 + k_max, 1 + k_min]; empty for 1^3 2^3 at n=1
    value, tag = interval_shift_spec.twisted_seminorm(one, (1, 1, 1, 2, 2, 2), 1)
    assert (value, tag) == (0.0, Exactness.EXACT)
    # 1^2 2^2 at n=1 leaves the singleton window [1, 1]
    value, tag = interval_shift_spec.twisted_seminorm(one, (1, 1, 2, 2), 1)
    assert (value, tag) == (1.0, Exactness.EXACT)
    value, tag = interval_shift_spec.twisted_seminorm(one, (1, 2), 1)
    assert (value, tag) == (1.0, Exactness.EXACT)


def test_shift_window_matches_slot_intersection():
    # the window is [-n, n] shifted by p * step for every slot twist p
    # (slots 0 .. |w|-1, slot 0 kept for the empty word), intersected
    for step in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)):
        spec = BaseSpec("interval", ShiftAut(step))
        for n in (Fraction(1, 2), Fraction(1), Fraction(5, 2)):
            for w in all_words(6):
                shifts = [p * step for p in partial_sums(w)[: max(len(w), 1)]]
                lo, hi = -n + max(shifts), n + min(shifts)
                expected = None if lo > hi else (lo, hi)
                assert interval(w, n, step=spec.aut.step) == expected, (step, n, w)
        with pytest.raises(ValueError):
            interval((1, 2), 0, step=spec.aut.step)


def test_twisted_seminorm_entire_shift_zero_certificate(shift_entire_spec):
    f = EntirePoly({1: 1})
    # leading 1-block of length floor(2*lam)+3 forces an exact zero
    value, tag = shift_entire_spec.twisted_seminorm(f, (1,) * 5 + (2,), 1)
    assert (value, tag) == (0.0, Exactness.EXACT)
    value, tag = shift_entire_spec.twisted_seminorm(f, (1,) * 4, 1)
    assert tag is Exactness.UPPER_BOUND


def test_shift_zero_certificate_reads_the_step():
    # z -> s z maps the shift-by-s base at lam onto the shift-by-1 base at
    # lam/|s|: at step 1/2 a 1-block of 5 at lam = 1 certifies nothing.  The
    # value is 1 (the trivial decomposition from above, evaluation at c = 1
    # from below).  Step 0 is the identity map: the plain seminorm, exact.
    for step, tag in ((Fraction(1, 2), Exactness.UPPER_BOUND), (Fraction(0), Exactness.EXACT)):
        spec = BaseSpec("entire", ShiftAut(step))
        assert spec.twisted_seminorm(spec.one(), (1,) * 5, 1) == (1.0, tag), step
    identity = BaseSpec("entire", IdentityAut())
    assert identity.twisted_seminorm(EntirePoly.one(), (1,) * 5, 1) == (1.0, Exactness.EXACT)
    f = EntirePoly({2: Fraction(3, 2), 0: 1})
    for spec in (identity, BaseSpec("entire", ShiftAut(0))):
        assert spec.twisted_seminorm(f, (1, 2, 2), 2) == (7.0, Exactness.EXACT)
    # at |step| = 1/2 the block must satisfy (ones - 2)/2 > 2 lam
    spec = BaseSpec("entire", ShiftAut(Fraction(-1, 2)))
    assert spec.twisted_seminorm(spec.one(), (1,) * 6, 1)[1] is Exactness.UPPER_BOUND
    assert spec.twisted_seminorm(spec.one(), (1,) * 7, 1) == (0.0, Exactness.EXACT)


def test_twisted_seminorm_free_diagonal_upper_bound(free_diag_spec):
    a = FreeSeries({(0,): 1})
    value, tag = free_diag_spec.twisted_seminorm(a, (1, 2), 1)
    assert tag is Exactness.UPPER_BOUND
    # best slot twists by -p over p in {0, 1}: min(1, 1/2)
    assert value == 0.5


def test_identity_twisted_seminorm_is_plain(identity_entire_spec):
    f = EntirePoly({2: 3})
    value, tag = identity_entire_spec.twisted_seminorm(f, (1, 2, 2), 2)
    assert (value, tag) == (12.0, Exactness.EXACT)


# -- slot products and decomposition bounds ----------------------------------


def test_i_w_apply_length_mismatch(scale2_spec):
    with pytest.raises(ValueError):
        i_w_apply(scale2_spec, (1, 2), (EntirePoly.one(),))
    with pytest.raises(ValueError):
        i_w_apply(scale2_spec, (), ())


def test_i_w_apply_twists_later_slots(scale2_spec):
    z = EntirePoly({1: 1})
    # w = (1, 2): second slot twisted by p(w, 1) = 1
    out = i_w_apply(scale2_spec, (1, 2), (EntirePoly.one(), z))
    assert out == EntirePoly({1: 2})


def test_generic_upper_bound_matches_closed_form(scale2_spec):
    z2 = EntirePoly({2: 1})
    quarter = EntirePoly({2: Fraction(1, 4)})
    value = generic_twisted_upper_bound(
        scale2_spec, z2, (1, 2), 1, [(EntirePoly.one(), quarter)]
    )
    assert value == pytest.approx(0.25, abs=1e-12)
    exact, _ = scale2_spec.twisted_seminorm(z2, (1, 2), 1)
    assert exact == pytest.approx(0.25, abs=1e-12)
    # two terms whose slot products z^2/2 + z^2/2 sum to f: the value is the
    # sum of the two products of seminorms, 1 * 1/8 + 1/2 * 1
    value = generic_twisted_upper_bound(
        scale2_spec, z2, (1, 2), 1,
        [(EntirePoly.one(), EntirePoly({2: Fraction(1, 8)})),
         (EntirePoly({2: Fraction(1, 2)}), EntirePoly.one())],
    )
    assert value == pytest.approx(1 / 8 + 1 / 2, abs=1e-12)


def test_generic_upper_bound_rejects_bad_decomposition(scale2_spec):
    z2 = EntirePoly({2: 1})
    with pytest.raises(InvalidDecompositionError):
        generic_twisted_upper_bound(
            scale2_spec, z2, (1, 2), 1, [(EntirePoly.one(), EntirePoly.one())]
        )
    with pytest.raises(InvalidDecompositionError):
        generic_twisted_upper_bound(scale2_spec, z2, (1, 2), 1, [(EntirePoly.one(),)])
    # two terms whose slot products sum to z^2/2 + z^2/4, not to f
    with pytest.raises(InvalidDecompositionError):
        generic_twisted_upper_bound(
            scale2_spec, z2, (1, 2), 1,
            [(EntirePoly.one(), EntirePoly({2: Fraction(1, 8)})),
             (EntirePoly({2: Fraction(1, 4)}), EntirePoly.one())],
        )


def test_generic_twisted_upper_bound_error_paths(scale2_spec):
    z2 = EntirePoly({2: 1})
    one = EntirePoly.one()
    # a factor tuple of another kind meets the sum and raises
    for decomposition in ([(FreeSeries({(0,): 1}),)], [(FreeSeries({(0,): 1}),)] * 2):
        with pytest.raises(bases.MismatchedBaseError):
            generic_twisted_upper_bound(scale2_spec, z2, (1,), 1, decomposition)
    # no tuples sum to zero, which misses a nonzero f
    with pytest.raises(InvalidDecompositionError):
        generic_twisted_upper_bound(scale2_spec, z2, (1, 2), 1, [])
    # ... and reconstructs the zero on the empty word
    value = generic_twisted_upper_bound(scale2_spec, EntirePoly.zero(), (), 1, [])
    assert repr(value) == "0.0"
    # the empty word admits no factor tuple, not even the empty one
    with pytest.raises(ValueError) as raised:
        generic_twisted_upper_bound(scale2_spec, EntirePoly.zero(), (), 1, [()])
    assert type(raised.value) is ValueError
    # a tuple of the wrong length, after a valid one
    with pytest.raises(InvalidDecompositionError):
        generic_twisted_upper_bound(scale2_spec, z2, (1, 2), 1, [(one, z2), (one,)])
    # two tuples whose slot products sum to 2 z^2, not to f
    with pytest.raises(InvalidDecompositionError):
        generic_twisted_upper_bound(
            scale2_spec, z2, (1, 2), 1,
            [(z2, one), (one, EntirePoly({2: Fraction(1, 4)}))],
        )


def test_exactness_ordering_on_sampled_decompositions(rng, scale2_spec):
    # any valid decomposition bound dominates the exact closed form
    from skewcalc.words import partial_sums

    for _ in range(60):
        m = rng.randint(0, 4)
        f = EntirePoly({m: rand_gauss(rng, allow_zero=False)})
        w = rand_word(rng, 4, min_len=1)
        exact, _ = scale2_spec.twisted_seminorm(f, w, 1)
        sums = partial_sums(w)
        for slot in range(len(w)):
            factors = [EntirePoly.one()] * len(w)
            factors[slot] = scale2_spec.aut.apply(f, -sums[slot])
            value = generic_twisted_upper_bound(
                scale2_spec, f, w, 1, [tuple(factors)]
            )
            assert value >= exact - REL_TOL
