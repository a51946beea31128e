"""Word-indexed twisted series and their weighted seminorms.

A :class:`TwistedSeries` is a finitely supported map from two-letter
words to base elements.  Multiplication concatenates words and twists
the right coefficient by the winding of the left word:

    (fg)_w = sum over w1 w2 = w of f_{w1} * alpha^{c(w1)}(g_{w2}).

Truncation caps (max word length L, max base degree D) are explicit;
products that overflow them drop terms and set the ``truncated`` flag
instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .bases import BaseSpec, Exactness, MismatchedBaseError
from .words import Word, check_word, winding

DEFAULT_MAX_WORD_LEN = 24
DEFAULT_MAX_DEGREE = 64


def word_sort_key(w: Word):
    return (len(w), w)


@dataclass(frozen=True, slots=True)
class TwistedSeries:
    spec: BaseSpec
    terms: dict = field(default_factory=dict)
    max_word_len: int = DEFAULT_MAX_WORD_LEN
    max_degree: int = DEFAULT_MAX_DEGREE
    truncated: bool = False

    def __post_init__(self):
        cleaned = {}
        for w, a in self.terms.items():
            w = check_word(w)
            if a.is_zero():
                continue
            if len(w) > self.max_word_len or a.degree() > self.max_degree:
                raise ValueError(f"term on word {w} exceeds the caps")
            cleaned[w] = a
        object.__setattr__(self, "terms", cleaned)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(spec: BaseSpec, **caps) -> "TwistedSeries":
        return TwistedSeries(spec, {}, **caps)

    @staticmethod
    def one(spec: BaseSpec, **caps) -> "TwistedSeries":
        return TwistedSeries(spec, {(): spec.one()}, **caps)

    @staticmethod
    def term(spec: BaseSpec, a, w: Word = (), **caps) -> "TwistedSeries":
        return TwistedSeries(spec, {tuple(w): a}, **caps)

    @staticmethod
    def generator(spec: BaseSpec, letter: int, **caps) -> "TwistedSeries":
        return TwistedSeries(spec, {(letter,): spec.one()}, **caps)

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, TwistedSeries) or other.spec != self.spec:
            raise MismatchedBaseError("operands live over different base specs")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, a in other.terms.items():
            out[w] = out[w] + a if w in out else a
        return replace(self, terms=out, truncated=self.truncated or other.truncated)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return replace(self, terms={w: -a for w, a in self.terms.items()})

    def scale(self, c) -> "TwistedSeries":
        return replace(self, terms={w: a.scale(c) for w, a in self.terms.items()})

    def __mul__(self, other):
        return mul(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, TwistedSeries)
            and self.spec == other.spec
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def words(self):
        return sorted(self.terms, key=word_sort_key)

    def coefficient(self, w: Word):
        return self.terms.get(tuple(w), self.spec.zero())


def mul(f: TwistedSeries, g: TwistedSeries) -> TwistedSeries:
    """Exact product; cap-exceeding terms are dropped with the flag set."""
    f._check(g)
    spec = f.spec
    out: dict = {}
    truncated = f.truncated or g.truncated
    for w1, a in f.terms.items():
        twist = winding(w1)
        for w2, b in g.terms.items():
            w = w1 + w2
            term = a * spec.aut_apply(b, twist)
            if len(w) > f.max_word_len or term.degree() > f.max_degree:
                if not term.is_zero():
                    truncated = True
                continue
            out[w] = out[w] + term if w in out else term
    return replace(f, terms=out, truncated=truncated)


def twisted_norm(f: TwistedSeries, lam, rho: float) -> tuple[float, Exactness]:
    """sum over words of the per-word seminorm times rho^|w|.

    The result is tagged Truncated when the caps dropped terms of f, and
    otherwise Exact only when every per-word seminorm was.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    rho = float(rho)
    total = 0.0
    exactness = Exactness.EXACT
    for w in f.words():
        value, tag = f.spec.twisted_seminorm(f.terms[w], w, lam)
        if tag is Exactness.UPPER_BOUND and value != 0.0:
            exactness = Exactness.UPPER_BOUND
        total += value * rho ** len(w)
    return total, Exactness.TRUNCATED if f.truncated else exactness


def single_variable_norm(f: TwistedSeries, lam, rho: float) -> tuple[float, Exactness]:
    """The one-variable view: f must be supported on words of 1s only."""
    for w in f.terms:
        if any(letter != 1 for letter in w):
            raise ValueError(f"word {w} is not a power of the first generator")
    return twisted_norm(f, lam, rho)


def embed_ore(p, which: str = "x1", **caps) -> TwistedSeries:
    """Embed a nonnegative-support skew polynomial, t^n -> x1^n or x2^n.

    The x2 embedding views p as living over the inverse automorphism, so
    the resulting series carries the inverse spec of p.
    """
    if which not in ("x1", "x2"):
        raise ValueError("which must be 'x1' or 'x2'")
    if any(i < 0 for i in p.coeffs):
        raise ValueError("only nonnegative supports embed")
    letter = 1 if which == "x1" else 2
    spec = p.spec if which == "x1" else p.spec.inverse()
    terms = {(letter,) * i: a for i, a in p.coeffs.items()}
    return TwistedSeries(spec, terms, **caps)
