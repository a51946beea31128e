"""The analytic Laurent algebra as a quotient of the twisted series algebra.

Over the entire base the quotient by the ideal generated by
``x1*x2 - 1`` and ``x2*x1 - 1`` is the Laurent skew algebra, and the
class of f there, ``reduce_to_ore(f)`` (x^w -> t^{c(w)}), is the one
normal form this module reads; so each invariant takes a series or its
Ore class alike, and refuses a truncated input.  The winding functional
phi(m, n) is the z^m coefficient of the t^n coefficient of the class.
On the scaling base the module also builds the canonical coset
representative, whose weighted norm is the one quotient seminorm it
evaluates, and runs the collapse-to-zero diagnostics.  The scale closed
form reads the slots of one letter u (x1 when |q| > 1, x2 when |q| < 1),
so each class picks its word by two exact comparisons on u's side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .bases import BaseSpec, Exactness, UnsupportedAutomorphism
from .scalars import GaussianRational
from .tensor import TwistedSeries, twisted_norm
from .words import canonical_word, winding
from .ore import LaurentOrePoly


def _ore_class(f) -> LaurentOrePoly:
    """The class of f (a series or already its class) on the entire base."""
    if f.spec.kind != "entire":
        raise UnsupportedAutomorphism("winding functionals need z-monomial coefficients"
                                      " (entire base)")
    ore = reduce_to_ore(f)
    if ore.truncated:
        raise ValueError("the caps dropped terms of the input, so its class is unknown")
    return ore


def phi_table(f) -> dict:
    """Nonzero functional values keyed by (m, n), read off f's Ore class."""
    return {(m, n): c for n, a in _ore_class(f).terms.items() for m, c in a.coeffs.items()}


def phi(f, m: int, n: int) -> GaussianRational:
    """Sum of the z^m coefficients of f over all words of winding n."""
    return phi_table(f).get((m, n), GaussianRational())


def ideal_member(f) -> bool:
    """True iff every winding functional vanishes on f (exact)."""
    return _ore_class(f).is_zero()


def relators(spec: BaseSpec, **caps) -> tuple[TwistedSeries, TwistedSeries]:
    """The two defining relators x1*x2 - 1 and x2*x1 - 1."""
    one = spec.one()
    r12 = TwistedSeries(spec, {(1, 2): one, (): -one}, **caps)
    r21 = TwistedSeries(spec, {(2, 1): one, (): -one}, **caps)
    return r12, r21


# ---------------------------------------------------------------------------
# canonical representatives and quotient norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalRep:
    series: TwistedSeries
    dropped: frozenset  # (m, n) classes annihilated by the quotient seminorm


def canonical_representative(f, rho: Fraction | float) -> CanonicalRep:
    """The coset representative whose weighted norm is the quotient seminorm.

    Requires the scaling base with |q| != 1; f is a series or its Ore
    class.  Let u be the letter whose slots the scale closed form reads
    (x1 when |q| > 1, x2 when |q| < 1) and Q = max(|q|, 1/|q|): z^m on a
    word w weighs rho^|w| (lam Q^-K)^m, K its farthest slot twist towards
    u.  Each pair "u, then the other letter" after a word of u's adds 2
    to |w| and 1 to K, scaling the weight by rho^2 / Q^m; so class (m, n)
    is dropped iff Q^(2m) > rho^4, and otherwise sits on its winding
    word, which gets that one pair iff it is a nonempty word of u's and
    Q^(2m) > rho^2 (there the first pair adds 2 to K).  Both comparisons
    are exact.  The representative's caps are the least that hold its terms.
    """
    spec = f.spec
    if spec.kind != "entire" or spec.aut.kind != "scale":
        raise UnsupportedAutomorphism("quotient machinery needs the scaling base")
    q2 = spec.aut.q.abs2()
    if q2 == 1:
        raise UnsupportedAutomorphism("|q| = 1 is excluded")
    if rho <= 0:
        raise ValueError("rho must be positive")
    u, big_q2 = (1, q2) if q2 > 1 else (2, 1 / q2)
    rho2 = Fraction(rho) ** 2
    terms, dropped = {}, set()
    max_len = max_degree = 0
    for (m, n), c in phi_table(f).items():
        qm2 = big_q2**m
        if qm2 > rho2**2:
            dropped.add((m, n))
            continue
        w = (1,) * n if n >= 0 else (2,) * -n
        if qm2 > rho2 and w[:1] == (u,):
            w += (u, 3 - u)
        max_len = max(max_len, len(w))
        max_degree = max(max_degree, m)
        coeff = spec.monomial(c, m)
        terms[w] = terms[w] + coeff if w in terms else coeff
    series = TwistedSeries(spec, terms, max_word_len=max_len, max_degree=max_degree)
    return CanonicalRep(series, frozenset(dropped))


def quotient_norm(f, lam, rho: Fraction | float) -> float:
    """The quotient seminorm of f's coset, via its canonical representative.

    f is a series or its Ore class.  The value is the weighted norm of
    ``canonical_representative(f, rho)``, the one value the quotient
    inequalities certify; ``twisted_norm`` checks lam before any word, so
    an invalid lam gets no answer even when every class is dropped.
    """
    return twisted_norm(canonical_representative(f, rho).series, lam, rho)[0]


def reduce_to_ore(f) -> LaurentOrePoly:
    """Ring homomorphism onto the Laurent skew extension: x^w -> t^{c(w)}.

    The result keeps f's ``truncated`` flag; an Ore class maps to itself.
    """
    if isinstance(f, LaurentOrePoly):
        return f
    coeffs: dict = {}
    for w, a in f.terms.items():
        n = winding(w)
        coeffs[n] = coeffs[n] + a if n in coeffs else a
    return LaurentOrePoly(f.spec)._derived(coeffs, f.truncated)


# ---------------------------------------------------------------------------
# collapse diagnostics
# ---------------------------------------------------------------------------


class Verdict(enum.Enum):
    COLLAPSE_CERTIFIED = "CollapseCertified"
    RAPID_DECAY_OBSERVED = "RapidDecayObserved"
    NO_DECAY = "NoDecay"


class CannotCertifyError(RuntimeError):
    """Only nonzero upper bounds were available; no verdict is provable."""


_DECAY_TOL = 1e-12


@dataclass(frozen=True)
class VanishingReport:
    verdict: Verdict
    r_invertible: bool
    rows: tuple  # (lam, rho, k, value)


def vanishing_test(spec: BaseSpec, r, lams, rhos, depth: int) -> VanishingReport:
    """Evaluate the collapse criterion sequence over a (lam, rho) grid.

    For each grid point the values ||r||^{(w_k)} * rho^{2k} are computed
    for k = 1..depth over the one word family w_k = 1^k 2^k; every rho
    must be positive.  A certified collapse needs an invertible r and, at
    every grid point, a zero tail: the seminorm ||r||^{(w_depth)} itself,
    read before the rho^{2k} factor, must be 0.0 and tagged Exact, since a
    product that underflows to 0.0 certifies nothing.  Otherwise rapid
    decay below 1e-12 everywhere is reported as observed, and anything
    else as no decay.  Nonzero upper-bound values cannot support a
    NoDecay verdict.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if any(rho <= 0 for rho in rhos):
        raise ValueError("rho must be positive")
    invertible = spec.is_invertible(r)
    rows = []
    zero_tail_everywhere = True
    decay_everywhere = True
    saw_upper_bound = False
    for lam in lams:
        # the seminorms ||r||^{(w_k)} do not depend on rho
        column = [spec.twisted_seminorm(r, canonical_word(k, k), lam)
                  for k in range(1, depth + 1)]
        for rho in rhos:
            rho = float(rho)
            values = []
            for k, (value, tag) in enumerate(column, start=1):
                seq = value * rho ** (2 * k)
                values.append(seq)
                rows.append((lam, rho, k, seq))
                if tag is Exactness.UPPER_BOUND and seq != 0.0:
                    saw_upper_bound = True
            if not (value == 0.0 and tag is Exactness.EXACT):
                zero_tail_everywhere = False
            if min(values) >= _DECAY_TOL:
                decay_everywhere = False
    if zero_tail_everywhere:
        verdict = Verdict.COLLAPSE_CERTIFIED if invertible else Verdict.RAPID_DECAY_OBSERVED
    elif decay_everywhere:
        verdict = Verdict.RAPID_DECAY_OBSERVED
    else:
        if saw_upper_bound:
            raise CannotCertifyError(
                "nonzero upper-bound seminorm values cannot certify a verdict"
            )
        verdict = Verdict.NO_DECAY
    return VanishingReport(verdict, invertible, tuple(rows))
