"""Twisted sparse maps, and the skew Laurent polynomials among them.

A twisted map sends keys to base elements over a fixed BaseSpec.  Keys
form a monoid under ``+``, so one loop, ``*``, multiplies every kind:
(fg)_k = sum over k1 + k2 = k of f_{k1} * alpha^{twist(k1)}(g_{k2}).
:class:`LaurentOrePoly` has exponents of t for keys (twist = exponent, no
caps); ``TwistedSeries`` has two-letter words (twist = winding, capped).
Arithmetic results skip the public constructor's checks through the
private ``_derived``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bases import BaseSpec, MismatchedBaseError

_new = object.__new__
_setattr = object.__setattr__  # past the frozen __setattr__


class _TwistedMap:
    """The fields ``spec``, ``terms`` and ``truncated``, and the ring operations.

    Each kind is a frozen slotted dataclass that declares its key type
    (``_key``), the key of 1 (``_unit``) and the twist of a key
    (``_twist``); a kind with caps names their fields in ``_caps`` and
    overrides ``_fits``.  The constructor, ``Kind(spec, terms, *caps)``, is
    the one way to build a map; with no terms it is the zero.
    """

    __slots__ = ()
    _caps = ()

    def __post_init__(self):
        cleaned = {}
        for k, a in self.terms.items():
            k = self._key(k)
            if a.is_zero():
                continue
            if not self._fits(k, a):
                raise ValueError(f"term on word {k} exceeds the caps")
            cleaned[k] = a
        _setattr(self, "terms", cleaned)

    def _derived(self, terms: dict, truncated: bool):
        """This map's kind, spec and caps with other terms, skipping
        ``__post_init__``: each key is checked and each term fits."""
        out = _new(type(self))
        _setattr(out, "spec", self.spec)
        for name in self._caps:
            _setattr(out, name, getattr(self, name))
        _setattr(out, "terms", {k: a for k, a in terms.items() if a.coeffs})
        _setattr(out, "truncated", truncated)
        return out

    def _fits(self, k, a) -> bool:  # the term a on key k meets the caps
        return True

    def _check(self, other):
        if type(other) is not type(self) or (other.spec is not self.spec
                                             and other.spec != self.spec):
            raise MismatchedBaseError("operands live over different base specs")

    def __add__(self, other):
        """The sum under this map's caps; a term that does not fit is dropped, setting the flag."""
        self._check(other)
        fits = self._fits
        out = dict(self.terms)
        truncated = self.truncated or other.truncated
        for k, a in other.terms.items():
            if not fits(k, a):
                truncated = True
                continue
            out[k] = out[k] + a if k in out else a
        return self._derived(out, truncated)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._derived({k: -a for k, a in self.terms.items()}, self.truncated)

    def _row(self, k1, a, terms: dict, out: dict) -> bool:
        """Add the term a at k1 times each term b at k2 of terms into out:
        a * alpha^{twist(k1)}(b) at k1 + k2, the rule x a = alpha(a) x.

        A product beyond the caps is dropped; the result says whether a
        nonzero one was (a zero coefficient never sets the flag).
        """
        apply = self.spec.aut.apply
        fits = self._fits
        twist = self._twist(k1)
        dropped = False
        for k2, b in terms.items():
            k = k1 + k2
            term = a * apply(b, twist)
            if not fits(k, term):
                if term.coeffs:
                    dropped = True
                continue
            out[k] = out[k] + term if k in out else term
        return dropped

    def __mul__(self, other):
        """The twisted product; a term that does not fit is dropped, setting the flag."""
        self._check(other)
        row = self._row
        out: dict = {}
        truncated = self.truncated or other.truncated
        for k1, a in self.terms.items():
            if row(k1, a, other.terms, out):
                truncated = True
        return self._derived(out, truncated)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.spec == other.spec
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True, slots=True, eq=False)
class LaurentOrePoly(_TwistedMap):
    spec: BaseSpec
    terms: dict = field(default_factory=dict)
    truncated: bool = False

    _key = int
    _unit = 0
    _twist = int  # t^i twists by alpha^i


def ore_mul(f: LaurentOrePoly, g: LaurentOrePoly) -> LaurentOrePoly:
    """Exact product under the skew rewriting rule t a = alpha(a) t."""
    return f * g


# ---------------------------------------------------------------------------
# localizability probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionReport:
    verdict: str  # "bounded" | "growing"
    sup_ratio: float


@dataclass(frozen=True)
class ProbeReport:
    lam: object
    forward: DirectionReport
    backward: DirectionReport

    @property
    def family_bounded(self) -> bool:
        return self.forward.verdict == "bounded" and self.backward.verdict == "bounded"


def _direction_report(spec: BaseSpec, lam, degree_cap: int, direction: int) -> DirectionReport:
    """The growth of alpha^direction on the seminorm at index lam.

    Over the basis monomials e of degree n, the sup of
    ||alpha^direction e|| / ||e|| is g^n, where g = 1 for an isometry;
    (lam + |s|) / lam for a shift by s, since ||(z - s)^n|| = (lam + |s|)^n
    at radius lam and on [-lam, lam] alike; and max_i |q_i|^direction for
    scale and diagonal, where a power of one letter attains it.  The
    verdict is read exactly off the rational g^2, and the sup ratio over
    degrees up to degree_cap is max(1, g)^degree_cap.
    """
    aut = spec.aut
    if spec.aut_is_isometry:
        g2 = Fraction(1)
    elif aut.kind == "shift":
        g2 = (1 + abs(aut.step) / Fraction(lam)) ** 2
    else:
        qs = (aut.q,) if aut.kind == "scale" else aut.qs
        g2 = max(q.abs2() ** direction for q in qs)
    if g2 <= 1:
        return DirectionReport("bounded", 1.0)
    # g to 64 bits, rounded once to a float: it overflows only where g does
    g = math.isqrt((g2.numerator << 128) // g2.denominator) / (1 << 64)
    return DirectionReport("growing", g**degree_cap)


def localizability_probe(spec: BaseSpec, lams, degree_cap: int) -> list[ProbeReport]:
    """Per-seminorm growth of alpha and alpha^-1.

    Both the verdict and the sup ratio over the basis monomials of degree
    at most degree_cap come from one exact factor per degree
    (:func:`_direction_report`).  Reports growth of the given family only;
    a growing verdict is not a negative certificate of localizability.
    """
    if degree_cap < 1:
        raise ValueError("degree cap must be at least 1")
    reports = []
    for lam in lams:
        spec.check_index(lam)
        reports.append(
            ProbeReport(
                lam,
                _direction_report(spec, lam, degree_cap, +1),
                _direction_report(spec, lam, degree_cap, -1),
            )
        )
    return reports
