"""Concrete seminormed base algebras with automorphism actions.

Elements of every base are one type, :class:`SparseElement`: a finitely
supported map from keys to nonzero exact scalars, with one implementation
of the ring arithmetic.  It comes in three kinds, each fixing its scalar
field and its key type:

* :class:`EntirePoly` — polynomials in one variable z (non-negative int
  degrees) with Gaussian-rational coefficients;
* :class:`IntervalPoly` — real polynomials (non-negative int degrees) with
  rational coefficients, seminorm sup over a closed interval [-n, n];
* :class:`FreeSeries` — finitely supported series over free generators
  (keys are tuples of generator indices).

Each kind also declares the weight of a key (z^m weighs m, a word v
weighs |v|); the entire and free bases share the weighted seminorm
sum(|c_k| rho^weight(k)) of :func:`weighted_seminorm`.

Elements are built in one of two ways.  The public constructor validates
its input: it coerces every key and coefficient to the kind's types, drops
zero coefficients and, for polynomials, rejects negative degrees.  Results
of arithmetic (``+ - *``, negation, ``scale``, the automorphisms and
``shift_argument``) are already clean, so they are
wrapped by the private ``SparseElement._trusted`` without another pass;
each such operation drops the zeros its sums produce itself.  Combining
elements of two different kinds raises :class:`MismatchedBaseError`.

A :class:`BaseSpec` bundles an element kind with an automorphism and
exposes seminorms and per-word twisted seminorms.  Closed forms (exact)
are used where available; everywhere else a certified upper bound is
returned, tagged via :class:`Exactness`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import ClassVar

from .scalars import GaussianRational, _reduced
from .words import Word, extremal_twists, interval, partial_sums


class Exactness(enum.Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper_bound"
    TRUNCATED = "truncated"  # the caps dropped terms of the input


class UnsupportedAutomorphism(ValueError):
    """Raised when a closed form excludes the given automorphism parameters."""


class MismatchedBaseError(ValueError):
    """Raised when elements of different base specs are combined."""


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SparseElement:
    """A finitely supported map from keys to nonzero exact scalars.

    Each kind declares its scalar field (``_scalar`` coerces one
    coefficient), its key type (``_key``) and the weight of a key
    (``_weight``).  Keys form a monoid under ``+`` whose unit is
    ``_key()``: int degrees add and tuples of generator indices
    concatenate, so one product loop serves every kind.  Elements of
    different kinds never compare equal, and combining them raises
    :class:`MismatchedBaseError`.
    """

    coeffs: dict = field(default_factory=dict)

    _scalar = staticmethod(GaussianRational.of)
    _key = int
    _weight = staticmethod(int)

    def __post_init__(self):
        scalar, key = self._scalar, self._key
        cleaned = {}
        for k, c in self.coeffs.items():
            c = scalar(c)
            if c:
                cleaned[key(k)] = c
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def _trusted(cls, coeffs: dict):
        """Wrap a dict that is already clean, skipping ``__post_init__``.

        The caller guarantees that every key has the kind's key type and
        every value is a nonzero scalar of the kind's field; the dict is
        kept, not copied.
        """
        el = _new(cls)
        _set_coeffs(el, coeffs)
        return el

    @classmethod
    def monomial(cls, c, key=None):
        return cls({cls._key() if key is None else key: c})

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({cls._key(): 1})

    def _check_kind(self, other):
        if isinstance(other, SparseElement):
            raise MismatchedBaseError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )

    def __add__(self, other):
        if type(other) is not type(self):
            self._check_kind(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            if k in out:
                c = out[k] + c
                if not c:
                    del out[k]
                    continue
            out[k] = c
        return self._trusted(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._trusted({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if type(other) is not type(self):
            self._check_kind(other)
            return self.scale(other)
        left, right = self.coeffs, other.coeffs
        # a one-term operand needs no sums: k2 -> k1 + k2 is injective, and
        # nonzero scalars have a nonzero product; the keys keep the loop's order
        if len(left) == 1 or len(right) == 1:
            return self._trusted({k1 + k2: c1 * c2 for k1, c1 in left.items()
                                  for k2, c2 in right.items()})
        out: dict = {}
        for k1, c1 in left.items():
            for k2, c2 in right.items():
                k = k1 + k2
                c = c1 * c2
                out[k] = out[k] + c if k in out else c
        # products of nonzero scalars are nonzero, but their sums can cancel
        return self._trusted({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def scale(self, c):
        c = self._scalar(c)
        if not c:
            return self._trusted({})
        return self._trusted({k: c * v for k, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))


_new = object.__new__
_set_coeffs = SparseElement.coeffs.__set__  # the slot, past the frozen __setattr__


class _Polynomial(SparseElement):
    """Integer-keyed kinds: polynomials in z with non-negative degrees.

    Each kind reads a coefficient as an integer triple (a, b, d) for
    (a + b i)/d (``_parts``) and builds one back from any triple with
    d > 0 (``_from_parts``).
    """

    __slots__ = ()

    def __post_init__(self):
        super().__post_init__()
        if self.coeffs and min(self.coeffs) < 0:
            raise ValueError("negative degrees are not allowed")

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def shift_argument(self, s: int | Fraction):
        """Exact substitution z -> z - s (an int or a Fraction), as an integer Taylor shift.

        Over one common denominator den, f = sum N_j z^j / den with Gaussian
        integer numerators N_j, and -s = u/v gives
        f(z + u/v) = sum_k P_k z^k / (den v^(n-k)), where P is the Taylor
        shift by the integer u of the integers N_j v^(n-j)
        (:func:`_taylor_shift`, on the real and imaginary numerators apart,
        since u is real).  Each output coefficient is normalized once.
        """
        n = self.degree()
        if not n:
            return self
        u, v = s.as_integer_ratio()
        u = -u
        parts = {j: self._parts(c) for j, c in self.coeffs.items()}
        den = math.lcm(*(d for _, _, d in parts.values()))
        vpow = [1]  # v^0 .. v^n
        for _ in range(n):
            vpow.append(vpow[-1] * v)
        re, im = [0] * (n + 1), [0] * (n + 1)
        for j, (a, b, d) in parts.items():
            scale = den // d * vpow[n - j]
            re[j], im[j] = a * scale, b * scale
        _taylor_shift(re, u)
        if any(im):
            _taylor_shift(im, u)
        make = self._from_parts
        # terms cancel across degrees, and s = 0 leaves every lower term zero
        return self._trusted({k: make(a, b, den * vpow[n - k])
                              for k, (a, b) in enumerate(zip(re, im)) if a or b})


def _taylor_shift(a: list, u: int) -> None:
    """Turn the dense integer coefficients of p(z) into those of p(z + u), in place.

    n passes of synthetic division ``a[j] += u * a[j + 1]`` (j = n-1 .. i on
    pass i), with no binomials and no powers of u (von zur Gathen & Gerhard,
    "Fast algorithms for Taylor shifts and certain difference equations",
    ISSAC 1997).
    """
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c = a[j + 1]
            if c:
                a[j] += u * c


class EntirePoly(_Polynomial):
    """Polynomial in z with exact Gaussian-rational coefficients."""

    __slots__ = ()
    _from_parts = staticmethod(_reduced)

    @staticmethod
    def _parts(c):
        return c._a, c._b, c._d


class IntervalPoly(_Polynomial):
    """Real polynomial with exact rational coefficients."""

    __slots__ = ()
    _scalar = Fraction

    @staticmethod
    def _parts(c):
        return c.numerator, 0, c.denominator

    @staticmethod
    def _from_parts(a, b, d):
        return Fraction(a, d)


class FreeSeries(SparseElement):
    """Finitely supported series over free generators g1..gn.

    Keys are tuples of generator indices (0-based); the empty tuple is
    the constant term.
    """

    __slots__ = ()
    _key = tuple
    _weight = staticmethod(len)

    def degree(self) -> int:
        return max((len(v) for v in self.coeffs), default=0)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


# alpha^k's data (powers of its parameters, or a shift's offset) is tabled
# for |e| <= _POWER_SPAN, L * D at the default caps: at most 2 * _POWER_SPAN + 1
# entries, however high the degrees and twists a config allows.
_POWER_SPAN = 512


class _Powers(dict):
    """power(e) by int exponent e, computed on a miss; tabled for |e| <= _POWER_SPAN."""

    __slots__ = ("power",)

    def __init__(self, power):
        super().__init__()
        self.power = power

    def __missing__(self, e):
        value = self.power(e)
        if -_POWER_SPAN <= e <= _POWER_SPAN:
            self[e] = value
        return value


@dataclass(frozen=True)
class IdentityAut:
    kind: ClassVar[str] = "identity"

    def apply(self, el, k: int):
        return el


@dataclass(frozen=True)
class ScaleAut:
    """z -> q z on coefficients of EntirePoly: c_m -> q^{km} c_m.

    q^e comes from a table keyed by e = km (:class:`_Powers`), which is no
    field: equality, hash and repr read q alone.
    """

    q: GaussianRational
    kind: ClassVar[str] = "scale"

    def __post_init__(self):
        q = GaussianRational.of(self.q)
        if q.is_zero():
            raise ValueError("scaling parameter must be nonzero")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_powers", _Powers(self._power))

    def _power(self, e: int) -> GaussianRational:
        return self.q ** e

    def apply(self, el: EntirePoly, k: int) -> EntirePoly:
        if k == 0:
            return el
        if type(el) is not EntirePoly:
            # only EntirePoly has degrees for keys and Gaussian coefficients
            raise TypeError(f"the scaling automorphism acts on EntirePoly, not {type(el).__name__}")
        powers = self._powers
        return el._trusted({m: powers[k * m] * c for m, c in el.coeffs.items()})


@dataclass(frozen=True)
class ShiftAut:
    """f(z) -> f(z - step); alpha^k shifts by k * step, for every integer k.

    The offset k * step comes from a table keyed by k, as in :class:`ScaleAut`.
    """

    step: Fraction = Fraction(1)
    kind: ClassVar[str] = "shift"

    def __post_init__(self):
        object.__setattr__(self, "step", Fraction(self.step))
        object.__setattr__(self, "_offsets", _Powers(self._offset))

    def _offset(self, k: int) -> Fraction:
        return k * self.step

    def apply(self, el, k: int):
        if k == 0:
            return el
        return el.shift_argument(self._offsets[k])


@dataclass(frozen=True)
class DiagonalAut:
    """Diagonal action on FreeSeries: generator i is scaled by qs[i].

    The factors q_i^k come from a table keyed by k, as in :class:`ScaleAut`.
    """

    qs: tuple
    kind: ClassVar[str] = "diagonal"

    def __post_init__(self):
        qs = tuple(GaussianRational.of(q) for q in self.qs)
        if any(q.is_zero() for q in qs):
            raise ValueError("diagonal factors must be nonzero")
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "_powers", _Powers(self._factors))

    def _factors(self, k: int) -> tuple:
        return tuple(q**k for q in self.qs)

    def apply(self, el: FreeSeries, k: int) -> FreeSeries:
        if k == 0:
            return el
        qk = self._powers[k]
        out = {}
        for v, c in el.coeffs.items():
            for i in v:
                c = c * qk[i]
            out[v] = c
        return el._trusted(out)


# ---------------------------------------------------------------------------
# interval sup-norm via Sturm isolation
# ---------------------------------------------------------------------------

_ROOT_WIDTH = Fraction(1, 10**12)


def _dense(p: IntervalPoly) -> list:
    deg = p.degree()
    return [p.coeffs.get(m, Fraction(0)) for m in range(deg + 1)]


def _poly_eval(dense: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(dense):
        acc = acc * x + c
    return acc


def _poly_deriv(dense: list) -> list:
    return [c * m for m, c in enumerate(dense)][1:]


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Dense quotient and remainder of a by b; a's and b's leading coefficients are nonzero.

    The remainder carries no trailing zeros, so the zero remainder is [].
    """
    quotient = [Fraction(0)] * (len(a) - len(b) + 1)
    a = list(a)
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        quotient[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        while a and a[-1] == 0:
            a.pop()
    return quotient, a


def _sturm_chain(dense: list) -> list:
    """A Sturm sequence of the squarefree part of dense (degree >= 1).

    The signed remainder sequence p, p', -rem(p, p'), ... ends in
    g = gcd(p, p'); every member divided by g is a Sturm sequence of p / g,
    also at the roots of g.  So V(a) - V(b) counts the distinct roots of p
    in (a, b].
    """
    chain = [dense, _poly_deriv(dense)]
    while rem := _poly_divmod(chain[-2], chain[-1])[1]:
        chain.append([-c for c in rem])
    g = chain[-1]
    return [_poly_divmod(p, g)[0] for p in chain] if len(g) > 1 else chain


def _sign_changes(chain: list, x: Fraction) -> tuple[int, Fraction]:
    """V(x), the sign changes of the chain's values at x, and chain[0](x)."""
    values = [_poly_eval(p, x) for p in chain]
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b), values[0]


def interval_seminorm(f: IntervalPoly, window) -> float:
    """sup of |f| over the closed window (lo, hi), or 0 over None (empty).

    |f| is evaluated at the endpoints and at f's critical points, the
    distinct real roots of f' in the window.  Counts V of a Sturm chain
    whose first member s = chain[0] is the squarefree part of f' isolate
    them: V(a) - V(b) roots lie in a cell (a, b].  One stack holds the
    cells (a, V(a), b, V(b), s(b)) and bisects each down to a cell at most
    _ROOT_WIDTH wide, whose midpoint is the candidate.  A cell with two or
    more roots splits on the count at its midpoint, which serves both
    halves.  A cell with one root keeps the half where s changes sign, at
    one evaluation of s: (mid, b] iff s(b) = 0 or s(mid) s(b) < 0, the half
    the counts would pick, since the root is simple.  Both ends are made
    Fractions first, so the bisection stays exact when a caller passes
    ints.  An inverted window (lo > hi) raises ValueError.
    """
    if window is None:
        return 0.0
    dense = _dense(f)
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if lo > hi:
        raise ValueError(f"inverted window ({lo}, {hi}); the empty window is None")
    candidates = [lo, hi]
    if len(dense) > 2:
        chain = _sturm_chain(_poly_deriv(dense))
        v_lo = _sign_changes(chain, lo)[0]
        stack = [(lo, v_lo, hi, *_sign_changes(chain, hi))]
        while stack:
            a, va, b, vb, sb = stack.pop()
            if va == vb:
                continue
            mid = (a + b) / 2
            if b - a <= _ROOT_WIDTH:
                candidates.append(mid)
            elif va - vb == 1:
                sm = _poly_eval(chain[0], mid)
                if not sb or sm < 0 < sb or sb < 0 < sm:
                    stack.append((mid, 1, b, 0, sb))
                else:
                    stack.append((a, 1, mid, 0, sm))
            else:
                vm, sm = _sign_changes(chain, mid)
                stack += [(a, va, mid, vm, sm), (mid, vm, b, vb, sb)]
    return float(max(abs(_poly_eval(dense, x)) for x in candidates))


# ---------------------------------------------------------------------------
# plain seminorms
# ---------------------------------------------------------------------------


def weighted_seminorm(el: SparseElement, rho: float) -> float:
    """sum(|c_k| rho^weight(k)): z^m weighs m, a free word v weighs |v|."""
    if rho <= 0:
        raise ValueError("radius must be positive")
    rho = float(rho)
    weight = el._weight
    total = 0.0
    for k, c in el.coeffs.items():
        total += abs(c) * rho ** weight(k)
    return total


# ---------------------------------------------------------------------------
# base spec
# ---------------------------------------------------------------------------

# each base kind: its element type, and the automorphism kinds it admits
# with the default (the CLI's, when a config names none) first
BASES = {
    "entire": (EntirePoly, ("scale", "identity", "shift")),
    "interval": (IntervalPoly, ("shift", "identity")),
    "free": (FreeSeries, ("diagonal", "identity")),
}


@dataclass(frozen=True)
class BaseSpec:
    """A concrete seminormed base algebra with an automorphism action.

    ``kind`` selects the element type; ``aut`` must act on it (:data:`BASES`).
    The seminorm index is a positive radius for entire/free elements and a
    positive half-width n (window [-n, n]) for interval elements.
    """

    kind: str
    aut: object
    ngens: int = 2  # only used by the free base

    def __post_init__(self):
        if self.kind not in BASES:
            raise ValueError(f"unknown base kind {self.kind!r}")
        if self.aut.kind not in BASES[self.kind][1]:
            raise UnsupportedAutomorphism(
                f"{self.aut.kind} automorphism is not supported on the {self.kind} base"
            )
        if self.kind == "free" and self.ngens < 1:
            raise ValueError("a free base needs at least one generator")
        if self.aut.kind == "diagonal" and len(self.aut.qs) != self.ngens:
            raise ValueError("diagonal needs one factor per generator")

    # -- constructors ------------------------------------------------------

    @property
    def element_type(self):
        return BASES[self.kind][0]

    def zero(self):
        return self.element_type.zero()

    def one(self):
        return self.element_type.one()

    def monomial(self, c, key=None):
        return self.element_type.monomial(c, key)

    # -- structure ---------------------------------------------------------

    @cached_property
    def aut_is_isometry(self) -> bool:
        """alpha keeps every seminorm: the identity, a shift by 0, or factors of modulus 1."""
        aut = self.aut
        if aut.kind == "shift":
            return not aut.step
        qs = () if aut.kind == "identity" else (aut.q,) if aut.kind == "scale" else aut.qs
        return all(q.abs2() == 1 for q in qs)

    @cached_property
    def _scale_modulus(self) -> tuple[bool, float]:
        """(|q| > 1, |q|) of a scaling automorphism, read once per spec."""
        q = self.aut.q
        return q.abs2() > 1, abs(q)

    def is_invertible(self, el) -> bool:
        """True for nonzero constants, the units among stored elements."""
        return el.coeffs.keys() == {el._key()}

    # -- seminorms ---------------------------------------------------------

    def check_index(self, lam):
        """Raise unless lam is a positive radius (half-width on the interval base)."""
        if lam <= 0:
            raise ValueError("half-width must be positive" if self.kind == "interval"
                             else "radius must be positive")

    def seminorm(self, el, lam) -> float:
        if self.kind != "interval":
            return weighted_seminorm(el, lam)
        self.check_index(lam)
        return interval_seminorm(el, (-lam, lam))

    def twisted_seminorm(self, el, w: Word, lam) -> tuple[float, Exactness]:
        """Per-word seminorm; exact closed forms where the base provides them."""
        self.check_index(lam)
        if el.is_zero():
            return 0.0, Exactness.EXACT
        # under an isometry, f in slot 0 gives the upper bound, and
        # submultiplicativity with the isometry gives it as the lower one
        if len(w) <= 1 or self.aut_is_isometry:
            return self.seminorm(el, lam), Exactness.EXACT
        if self.kind == "entire" and self.aut.kind == "scale":
            return self._twisted_entire_scale(el, w, lam)
        if self.kind == "interval" and self.aut.kind == "shift":
            window = interval(w, lam, step=self.aut.step)
            return interval_seminorm(el, window), Exactness.EXACT
        if self.kind == "entire" and self.aut.kind == "shift":
            return self._twisted_entire_shift(el, w, lam)
        # free/diagonal: best slot-placement upper bound
        return self._slot_upper_bound(el, w, lam), Exactness.UPPER_BOUND

    def _twisted_entire_scale(self, el, w, lam):
        if el.degree() == 0:  # |c| at every radius, also where lam_eff underflows
            return weighted_seminorm(el, lam), Exactness.EXACT
        k_min, k_max = extremal_twists(w)
        grows, modulus = self._scale_modulus
        k = k_max if grows else k_min
        lam_eff = float(lam) * modulus ** (-k)
        if not lam_eff:
            raise ArithmeticError(f"the effective radius lambda*|q|^({-k}) underflows"
                                  f" the float range")
        return weighted_seminorm(el, lam_eff), Exactness.EXACT

    def _twisted_entire_shift(self, el, w, lam):
        # zero certificate: a leading 1-block long enough forces the
        # single-variable seminorm to vanish, and padding on the right
        # can only shrink the value.  z -> s z maps the shift-by-s base at
        # index lam isometrically onto the shift-by-1 base at lam/|s|, so
        # the block must satisfy (ones - 2)|s| > 2 lam.
        ones = 0
        for letter in w:
            if letter != 1:
                break
            ones += 1
        if (ones - 2) * abs(self.aut.step) > 2 * Fraction(lam):
            return 0.0, Exactness.EXACT
        return self._slot_upper_bound(el, w, lam), Exactness.UPPER_BOUND

    def _slot_upper_bound(self, el, w, lam) -> float:
        # place alpha^{-p}(el) in the slot whose twist is p, ones elsewhere
        return min(self.seminorm(self.aut.apply(el, -p), lam)
                   for p in set(partial_sums(w)[:-1]))


# ---------------------------------------------------------------------------
# slot products and decomposition bounds
# ---------------------------------------------------------------------------


def i_w_apply(spec: BaseSpec, w: Word, factors):
    """Collapse a factor tuple along a word: x_1 * prod alpha^{p(w,i-1)}(x_i)."""
    if len(factors) != len(w):
        raise ValueError(f"expected {len(w)} factors, got {len(factors)}")
    if not w:
        raise ValueError("the empty word admits no factor tuple")
    sums = partial_sums(w)
    out = factors[0]
    for i in range(1, len(w)):
        out = out * spec.aut.apply(factors[i], sums[i])
    return out


class InvalidDecompositionError(ValueError):
    pass


def generic_twisted_upper_bound(
    spec: BaseSpec, f, w: Word, lam, decomposition
) -> float:
    """Upper bound sum_j prod_i ||r_ij|| over an explicitly given decomposition.

    The decomposition (a list of factor tuples of length |w|) must
    reconstruct f exactly through the slot product; otherwise an
    InvalidDecompositionError is raised.  Every tuple is still
    reconstructed and the sum compared with f, but the sum starts from the
    first reconstruction, not from a fresh zero.
    """
    total = None
    for factors in decomposition:
        if len(factors) != len(w):
            raise InvalidDecompositionError(
                f"factor tuple of length {len(factors)} for a word of length {len(w)}"
            )
        part = i_w_apply(spec, w, factors)
        if total is not None:
            total = total + part
        elif type(part) is spec.element_type:
            total = part
        else:  # raises on an element of another kind, as a sum with zero does
            total = spec.zero() + part
    if (spec.zero() if total is None else total) != f:
        raise InvalidDecompositionError("decomposition does not reconstruct the element")
    seminorm = spec.seminorm
    value = 0.0
    for factors in decomposition:
        term = 1.0
        for r in factors:
            term *= seminorm(r, lam)
        value += term
    return value
