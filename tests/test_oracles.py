import itertools
import random
from fractions import Fraction

import pytest

from skewcalc import (
    BaseSpec,
    EntirePoly,
    GaussianRational,
    IdentityAut,
    ScaleAut,
    SearchBudget,
    ShiftAut,
    TwistedSeries,
    bruteforce_twisted_norm,
    mul,
    quotient_norm,
    slice_quotient_norm,
    twisted_norm,
)
from skewcalc.bases import i_w_apply
from skewcalc.oracles import COEFF_GRID, _monomial_gamma, _random_monomial_decompositions
from skewcalc.quotient import relators
from skewcalc.words import all_words, partial_sums

from conftest import q_of, rand_entire, rand_interval_poly, rand_series, rand_word

CAPS = dict(max_word_len=24, max_degree=32)


def test_bruteforce_upper_bounds_closed_form(rng, scale2_spec):
    budget = SearchBudget(max_samples=120, seed=7)
    for _ in range(60):
        w = rand_word(rng, 4, min_len=1)
        f = EntirePoly({rng.randint(0, 4): 1})
        for lam in (0.5, 1, 2):
            exact, _ = scale2_spec.twisted_seminorm(f, w, lam)
            bf = bruteforce_twisted_norm(scale2_spec, f, w, lam, budget)
            assert bf >= exact - 1e-9
            # a slot placement at the maximal partial sum is optimal, so
            # the search always finds the closed-form value
            assert bf == pytest.approx(exact, abs=1e-9)


def test_bruteforce_empty_word_is_base_norm(scale2_spec):
    f = EntirePoly({2: 3})
    value = bruteforce_twisted_norm(scale2_spec, f, (), 1, SearchBudget())
    assert value == scale2_spec.seminorm(f, 1)


def test_bruteforce_on_shift_base_is_the_slot_bound(shift_entire_spec):
    # sampled monomial factors cannot reconstruct a monomial under a shift;
    # the search keeps the slot placements, the same bound the base gives
    budget = SearchBudget(max_samples=40, seed=5)
    for f in (EntirePoly({1: 1}), EntirePoly({3: -2})):
        for w in ((1, 2), (2, 1, 1), (1, 1, 2, 2)):
            bound, _ = shift_entire_spec.twisted_seminorm(f, w, 1)
            assert bruteforce_twisted_norm(shift_entire_spec, f, w, 1, budget) == bound


def test_bruteforce_deterministic(rng, scale2_spec, shift_entire_spec):
    budget = SearchBudget(max_samples=80, seed=11)
    for spec in (scale2_spec, shift_entire_spec):
        for _ in range(10):
            w = rand_word(rng, 4, min_len=1)
            f = rand_entire(rng)
            a = bruteforce_twisted_norm(spec, f, w, 1, budget)
            b = bruteforce_twisted_norm(spec, f, w, 1, budget)
            assert a == b


def _scale_specs():
    qs = (q_of(2), q_of("1/2"), q_of("3/2"), GaussianRational(1, 1))
    return [BaseSpec("entire", ScaleAut(q)) for q in qs]


def test_gamma_from_exponents_equals_probe(shift_entire_spec, identity_entire_spec):
    # the top coefficient of the slot product of monomials, read off the
    # exponents, against the slot product itself
    grid = [GaussianRational(*c) for c in ((1, 0), (-1, 0), (Fraction(1, 2), 0), (3, 0), (0, 1), (1, -2))]
    for spec in _scale_specs() + [shift_entire_spec, identity_entire_spec]:
        for w in all_words(4):
            if not w:
                continue
            sums = partial_sums(w)
            for degree in range(5):
                for cut in itertools.combinations(range(degree + len(w) - 1), len(w) - 1):
                    # the exponents of one composition of degree into |w| parts
                    bounds = (-1,) + cut + (degree + len(w) - 1,)
                    exponents = [b - a - 1 for a, b in zip(bounds, bounds[1:])]
                    coeffs = [grid[(i + degree + len(cut)) % len(grid)] for i in range(len(w))]
                    factors = tuple(EntirePoly({e: c}) for c, e in zip(coeffs, exponents))
                    probe = i_w_apply(spec, w, factors).coeffs[degree]
                    assert _monomial_gamma(spec, sums, coeffs, exponents) == probe, (spec, w, exponents)


def _probe_decompositions(spec, f, w, budget):
    """The sampled decompositions with gamma probed by a slot product."""
    rng = random.Random(budget.seed)
    (degree, coeff), = f.coeffs.items()
    out = []
    for _ in range(budget.max_samples):
        exponents = [0] * len(w)
        remaining = degree
        for i in range(len(w) - 1):
            exponents[i] = rng.randint(0, remaining)
            remaining -= exponents[i]
        exponents[-1] = remaining
        factors = [spec.monomial(rng.choice(COEFF_GRID), e) for e in exponents]
        gamma = i_w_apply(spec, w, tuple(factors)).coeffs[degree]
        factors[-1] = factors[-1].scale(coeff / gamma)
        out.append([tuple(factors)])
    return out


def test_sampled_decompositions_match_probe(rng, identity_entire_spec):
    # the same random draws in the same order as with gamma probed
    for spec in _scale_specs() + [identity_entire_spec]:
        for seed in range(6):
            budget = SearchBudget(max_samples=30, seed=seed)
            w = rand_word(rng, 4, min_len=1)
            f = EntirePoly({rng.randint(0, 4): GaussianRational(*rng.choice(((1, 0), (Fraction(-1, 3), 2))))})
            expected = _probe_decompositions(spec, f, w, budget)
            assert _random_monomial_decompositions(spec, f, w, budget) == expected


def test_slice_quotient_norm_upper_bounds_quotient(rng, scale2_spec):
    budget = SearchBudget(max_samples=60, seed=3)
    for _ in range(25):
        f = rand_series(rng, scale2_spec, 2, 3, 3, **CAPS)
        for lam, rho in ((1, 1.5), (1, 4.0), (2, 1.0)):
            sliced = slice_quotient_norm(f, lam, rho, 6, budget)
            assert sliced >= quotient_norm(f, lam, rho) - 1e-9


def test_slice_quotient_norm_improves_on_raw_norm(scale2_spec):
    # z * x1 at rho = 1: the quotient kills the class, and padding by
    # (x1 x2)^l already drives the slice bound toward zero
    f = TwistedSeries(scale2_spec, {(1,): EntirePoly({1: 1})}, **CAPS)
    raw, _ = twisted_norm(f, 1, 0.5)
    sliced = slice_quotient_norm(f, 1, 0.5, 10, SearchBudget(max_samples=20))
    assert sliced < raw
    assert sliced < 1e-3


def _reference_slice_norm(f, lam, rho, cap, budget):
    """The slice bound with every sample built apart: monomials through the
    public constructors from a Fraction, the sum of c * (u * r * v) kept in
    a separate g, each product scaled term by term, and f + g at the end."""
    spec = f.spec
    caps = dict(max_word_len=max(f.max_word_len, 2 * cap + 4), max_degree=f.max_degree)
    wide = TwistedSeries(spec, f.terms, **caps)
    best, _ = twisted_norm(wide, lam, rho)
    pad = TwistedSeries(spec, {(1, 2): spec.one()}, **caps)
    padded = wide
    for _ in range(cap):
        padded = mul(padded, pad)
        if padded.truncated:
            break
        best = min(best, twisted_norm(padded, lam, rho)[0])
    rng = random.Random(budget.seed)
    r12, r21 = relators(spec, **caps)

    def random_monomial_series():
        letters = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, max(1, cap // 2))))
        coeff = spec.monomial(rng.choice(COEFF_GRID), rng.randint(0, 2))
        return TwistedSeries(spec, {letters: coeff}, **caps)

    def scaled(p, c):
        return TwistedSeries(spec, {k: a.scale(c) for k, a in p.terms.items()},
                             truncated=p.truncated, **caps)

    for _ in range(budget.max_samples):
        g = TwistedSeries(spec, **caps)
        for _ in range(rng.randint(1, 3)):
            u, v = random_monomial_series(), random_monomial_series()
            rel = r12 if rng.random() < 0.5 else r21
            g = g + scaled(mul(mul(u, rel), v), rng.choice(COEFF_GRID))
        candidate = wide + g
        if not candidate.truncated:
            best = min(best, twisted_norm(candidate, lam, rho)[0])
    return best


def test_slice_samples_match_reference(rng, interval_shift_spec):
    # the same random draws in the same order as with every sample built apart
    specs = _scale_specs() + [BaseSpec("entire", ShiftAut()), BaseSpec("entire", IdentityAut())]
    for spec in specs + [interval_shift_spec]:
        for seed in range(4):
            budget = SearchBudget(max_samples=15, seed=seed)
            if spec.kind == "interval":
                terms = {rand_word(rng, 2): rand_interval_poly(rng, 3) for _ in range(2)}
                f = TwistedSeries(spec, terms, max_word_len=8, max_degree=8)
            else:
                f = rand_series(rng, spec, 3, 2, 3, max_word_len=8, max_degree=rng.choice((4, 64)))
            cap = rng.randint(1, 5)
            for lam, rho in ((1, 1.5), (1, 4.0), (2, 1.0)):
                expected = _reference_slice_norm(f, lam, rho, cap, budget)
                assert slice_quotient_norm(f, lam, rho, cap, budget) == expected, (spec, seed, cap)
