"""Independent brute-force references for the acceptance tests.

These deliberately avoid the closed forms they are checked against:
twisted seminorms are bounded by direct minimization over sampled
decompositions, and quotient seminorms by minimization over a finite
slice of the relator ideal.  Both only ever certify upper bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bases import BaseSpec, generic_twisted_upper_bound
from .scalars import GaussianRational
from .tensor import TwistedSeries, mul, twisted_norm
from .words import Word, partial_sums


# the coefficients the oracles draw; none is 0, so every sampled product reaches f
COEFF_GRID = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(3))
_GRID_SCALARS = tuple(GaussianRational.of(c) for c in COEFF_GRID)
# q^e memoized here, so that the oracle reads no table of the automorphism
_q_power = lru_cache(maxsize=256)(lambda q, e: q ** e)


@dataclass(frozen=True)
class SearchBudget:
    max_samples: int = 200
    seed: int = 0


def _slot_decompositions(spec: BaseSpec, f, w: Word):
    """One-term decompositions placing a twisted copy of f in each slot."""
    out = []
    sums = partial_sums(w)
    for slot in range(len(w)):
        factors = [spec.one()] * len(w)
        factors[slot] = spec.aut.apply(f, -sums[slot])
        out.append([tuple(factors)])
    return out


def _monomial_gamma(spec: BaseSpec, sums: list, coeffs, exponents) -> GaussianRational:
    """Top coefficient of the slot product of monomials c_i z^(e_i).

    alpha^p maps c z^e to c q^(p e) z^e under scaling, and to c (z - p s)^e,
    whose top coefficient is c, under a shift or the identity; so the
    product's z^(sum e_i) coefficient is prod c_i, times q^(sum p_i e_i)
    under scaling, where p_i = sums[i] is the twist of slot i.
    """
    gamma = coeffs[0]
    for c in coeffs[1:]:
        gamma = gamma * c
    if spec.aut.kind == "scale":
        gamma = gamma * _q_power(spec.aut.q, sum(p * e for p, e in zip(sums, exponents)))
    return gamma


def _random_monomial_decompositions(spec: BaseSpec, f, w: Word, budget: SearchBudget):
    # a product of monomial factors is a monomial only where the
    # automorphism keeps monomials monomials: a shift spreads c z^e over
    # lower degrees, which the top coefficient alone cannot cancel
    if spec.kind != "entire" or spec.aut.kind == "shift" or len(f.coeffs) != 1:
        return []
    rng = random.Random(budget.seed)
    (degree, coeff), = f.coeffs.items()
    monomial = spec.element_type._trusted
    sums = partial_sums(w)
    out = []
    for _ in range(budget.max_samples):
        exponents = [0] * len(w)
        remaining = degree
        for i in range(len(w) - 1):
            exponents[i] = rng.randint(0, remaining)
            remaining -= exponents[i]
        exponents[-1] = remaining
        coeffs = [rng.choice(_GRID_SCALARS) for _ in exponents]
        gamma = _monomial_gamma(spec, sums, coeffs, exponents)
        coeffs[-1] = coeffs[-1] * (coeff / gamma)
        factors = [monomial({e: c}) for c, e in zip(coeffs, exponents)]
        out.append([tuple(factors)])
    return out


def bruteforce_twisted_norm(spec: BaseSpec, f, w: Word, lam, budget: SearchBudget) -> float:
    """Minimum factorized-seminorm sum over sampled valid decompositions.

    Always includes the trivial decomposition and every slot placement,
    which covers the constructed optimum of the scaling closed form.
    The result is an upper bound on the true infimum.
    """
    if not w:
        return spec.seminorm(f, lam)
    candidates = _slot_decompositions(spec, f, w)
    candidates += _random_monomial_decompositions(spec, f, w, budget)
    return min(generic_twisted_upper_bound(spec, f, w, lam, decomposition)
               for decomposition in candidates)


def slice_quotient_norm(
    f: TwistedSeries, lam, rho: float, cap: int, budget: SearchBudget
) -> float:
    """Minimize ||f + g|| over a finite slice of the relator ideal.

    The slice contains random sums of c * u * relator * v, u and v monomials
    with c folded into u's coefficient, and the structured family
    f * ((x1 x2)^l - 1).  An upper bound on the true quotient seminorm.
    """
    from .quotient import relators

    spec = f.spec
    caps = dict(max_word_len=max(f.max_word_len, 2 * cap + 4), max_degree=f.max_degree)
    wide = TwistedSeries(spec, f.terms, **caps)
    best, _ = twisted_norm(wide, lam, rho)

    # structured family: replace f by f * (x1 x2)^l
    pad = TwistedSeries(spec, {(1, 2): spec.one()}, **caps)
    padded = wide
    for _ in range(cap):
        padded = mul(padded, pad)
        if padded.truncated:
            break
        best = min(best, twisted_norm(padded, lam, rho)[0])

    rng = random.Random(budget.seed)
    r12, r21 = relators(spec, **caps)
    # COEFF_GRID in the base's scalar field, drawn by the same index
    grid = COEFF_GRID if spec.kind == "interval" else _GRID_SCALARS

    def draw():  # a monomial's letters, coefficient and degree
        letters = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, max(1, cap // 2))))
        return letters, rng.choice(grid), rng.randint(0, 2)

    def series(letters, coeff, degree):
        return TwistedSeries(spec, {letters: spec.element_type._trusted({degree: coeff})}, **caps)

    for _ in range(budget.max_samples):
        candidate = wide
        for _ in range(rng.randint(1, 3)):
            (letters, coeff, degree), v = draw(), draw()
            rel = r12 if rng.random() < 0.5 else r21
            u = series(letters, rng.choice(grid) * coeff, degree)  # (c u) r v = c (u r v)
            candidate = candidate + mul(mul(u, rel), series(*v))
        if not candidate.truncated:
            best = min(best, twisted_norm(candidate, lam, rho)[0])
    return best
