"""Skew (Laurent) polynomial arithmetic and its weighted norms.

Elements are finitely supported maps exponent -> base element over a
fixed :class:`~skewcalc.bases.BaseSpec`.  Multiplication rewrites
``t a -> alpha(a) t + delta(a)`` (and ``t^-1 a -> alpha^-1(a) t^-1``
when there is no derivation).  A derivation is only accepted on
nonnegative supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .bases import BaseSpec, MismatchedBaseError


class DerivationSupportError(ValueError):
    """A derivation was combined with negative exponents."""


@dataclass(frozen=True)
class LaurentOrePoly:
    spec: BaseSpec
    coeffs: dict = field(default_factory=dict)
    delta: object = None  # optional derivation, e.g. PolyDerivation

    def __post_init__(self):
        cleaned = {int(i): a for i, a in self.coeffs.items() if not a.is_zero()}
        object.__setattr__(self, "coeffs", cleaned)
        if self.delta is not None and any(i < 0 for i in cleaned):
            raise DerivationSupportError(
                "a nonzero derivation requires nonnegative exponents"
            )

    @staticmethod
    def zero(spec: BaseSpec, delta=None) -> "LaurentOrePoly":
        return LaurentOrePoly(spec, {}, delta)

    @staticmethod
    def one(spec: BaseSpec, delta=None) -> "LaurentOrePoly":
        return LaurentOrePoly(spec, {0: spec.one()}, delta)

    @staticmethod
    def term(spec: BaseSpec, a, i: int = 0, delta=None) -> "LaurentOrePoly":
        return LaurentOrePoly(spec, {i: a}, delta)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for i, a in other.coeffs.items():
            out[i] = out[i] + a if i in out else a
        return LaurentOrePoly(self.spec, out, self.delta)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentOrePoly(self.spec, {i: -a for i, a in self.coeffs.items()}, self.delta)

    def __mul__(self, other):
        return ore_mul(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentOrePoly)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, frozenset(self.coeffs.items())))

    def _check(self, other):
        if not isinstance(other, LaurentOrePoly) or other.spec != self.spec:
            raise MismatchedBaseError("operands live over different base specs")
        if (self.delta is None) != (other.delta is None):
            raise MismatchedBaseError("operands disagree on the derivation")


def _t_power_times(spec: BaseSpec, delta, b, i: int) -> dict:
    """Expand t^i * b as a map exponent -> base element."""
    if delta is None:
        return {i: spec.aut_apply(b, i)}
    if i < 0:
        raise DerivationSupportError("negative exponent with a nonzero derivation")
    out = {0: b}
    for _ in range(i):
        nxt: dict = {}
        for j, a in out.items():
            moved = spec.aut_apply(a, 1)
            nxt[j + 1] = nxt[j + 1] + moved if j + 1 in nxt else moved
            d = delta.apply(a)
            if not d.is_zero():
                nxt[j] = nxt[j] + d if j in nxt else d
        out = nxt
    return out


def ore_mul(f: LaurentOrePoly, g: LaurentOrePoly) -> LaurentOrePoly:
    """Exact product under the skew rewriting rule."""
    f._check(g)
    spec = f.spec
    out: dict = {}
    for i, a in f.coeffs.items():
        for j, b in g.coeffs.items():
            for k, moved in _t_power_times(spec, f.delta, b, i).items():
                term = a * moved
                key = k + j
                out[key] = out[key] + term if key in out else term
    return LaurentOrePoly(spec, out, f.delta)


@dataclass(frozen=True)
class DerivationReport:
    passed: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.passed


def alpha_derivation_check(spec: BaseSpec, delta, samples) -> DerivationReport:
    """Verify delta(ab) = alpha(a) delta(b) + delta(a) b on sample pairs."""
    for a, b in samples:
        lhs = delta.apply(a * b)
        rhs = spec.aut_apply(a, 1) * delta.apply(b) + delta.apply(a) * b
        if lhs != rhs:
            return DerivationReport(False, (a, b))
    return DerivationReport(True)


def laurent_series_norm(f: LaurentOrePoly, lam, rho: float) -> float:
    """sum ||a_i||_lam rho^i over the support."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    rho = float(rho)
    return sum(f.spec.seminorm(a, lam) * rho**i for i, a in f.coeffs.items())


# ---------------------------------------------------------------------------
# localizability probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionReport:
    verdict: str  # "bounded" | "growing" | "inconclusive"
    sup_ratio: float
    constant: float | None = None  # set for "bounded"


@dataclass(frozen=True)
class ProbeReport:
    lam: object
    forward: DirectionReport
    backward: DirectionReport

    @property
    def family_bounded(self) -> bool:
        return self.forward.verdict == "bounded" and self.backward.verdict == "bounded"


def _basis_elements(spec: BaseSpec, cap: int):
    """(degree, monomial) for every basis monomial of degree at most cap."""
    if spec.kind == "free":
        for length in range(cap + 1):
            for v in product(range(spec.ngens), repeat=length):
                yield length, spec.monomial(1, v)
    else:
        for m in range(cap + 1):
            yield m, spec.monomial(1, m)


def _direction_report(spec: BaseSpec, lam, basis: list, cap: int,
                      direction: int) -> DirectionReport:
    """basis holds (degree, monomial, its seminorm), every seminorm nonzero."""
    ratios = [(degree, spec.seminorm(spec.aut_apply(e, direction), lam) / denom)
              for degree, e, denom in basis]
    sup_ratio = max(ratio for _, ratio in ratios)
    aut = spec.aut
    # closed-form bounds only where the instance provides them
    if aut.kind == "identity":
        return DirectionReport("bounded", sup_ratio, 1.0)
    if aut.kind in ("scale", "diagonal"):
        # alpha^direction multiplies each monomial by a product of the
        # factors q_i^direction: no factor grows when every |q_i| <= 1
        # forward, or every |q_i| >= 1 backward
        qs = (aut.q,) if aut.kind == "scale" else aut.qs
        if all(q.abs2() <= 1 if direction > 0 else q.abs2() >= 1 for q in qs):
            return DirectionReport("bounded", sup_ratio, max(1.0, sup_ratio))
    # empirical only: growth across degrees, never a negative certificate
    half_cap = max(1, cap // 2)
    half = max(ratio for degree, ratio in ratios if degree <= half_cap)
    if sup_ratio > half * (1 + 1e-12) or sup_ratio > 1 + 1e-9:
        return DirectionReport("growing", sup_ratio)
    return DirectionReport("inconclusive", sup_ratio)


def localizability_probe(spec: BaseSpec, lams, degree_cap: int) -> list[ProbeReport]:
    """Per-seminorm growth of alpha and alpha^-1 over basis monomials.

    Reports growth of the given family only; a growing verdict is not a
    negative certificate of localizability.
    """
    if degree_cap < 1:
        raise ValueError("degree cap must be at least 1")
    reports = []
    for lam in lams:
        # each monomial's seminorm is the denominator of both directions' ratios
        basis = [(degree, e, spec.seminorm(e, lam))
                 for degree, e in _basis_elements(spec, degree_cap)]
        basis = [entry for entry in basis if entry[2] != 0]
        reports.append(
            ProbeReport(
                lam,
                _direction_report(spec, lam, basis, degree_cap, +1),
                _direction_report(spec, lam, basis, degree_cap, -1),
            )
        )
    return reports
