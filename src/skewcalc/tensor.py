"""Word-indexed twisted series and their weighted seminorms.

A :class:`TwistedSeries` is a finitely supported map from two-letter
words to base elements.  Multiplication concatenates words and twists
the right coefficient by the winding of the left word:

    (fg)_w = sum over w1 w2 = w of f_{w1} * alpha^{c(w1)}(g_{w2}).

Truncation caps (max word length L, max base degree D) are explicit;
products that overflow them drop terms and set the ``truncated`` flag
instead of raising.

The public constructor checks every word and every term against the
caps.  Results of arithmetic (``+``, negation, ``scale`` and :func:`mul`)
meet the caps already and go through the private ``_derived`` instead,
which only drops the zero terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def _derived(self, terms: dict, truncated: bool) -> "TwistedSeries":
        """A series with this one's spec and caps, skipping ``__post_init__``.

        The caller guarantees that every word is checked and every term
        meets the caps; zero terms are dropped here.
        """
        out = _new(TwistedSeries)
        _set_spec(out, self.spec)
        _set_terms(out, {w: a for w, a in terms.items() if a.coeffs})
        _set_max_word_len(out, self.max_word_len)
        _set_max_degree(out, self.max_degree)
        _set_truncated(out, truncated)
        return out

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
        truncated = self.truncated or other.truncated
        if other.max_word_len > self.max_word_len or other.max_degree > self.max_degree:
            # the sum keeps this series' caps, which other's terms may exceed
            return TwistedSeries(self.spec, out, self.max_word_len, self.max_degree, truncated)
        return self._derived(out, truncated)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._derived({w: -a for w, a in self.terms.items()}, self.truncated)

    def scale(self, c) -> "TwistedSeries":
        return self._derived({w: a.scale(c) for w, a in self.terms.items()}, self.truncated)

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


_new = object.__new__
# the slots, past the frozen __setattr__
_set_spec = TwistedSeries.spec.__set__
_set_terms = TwistedSeries.terms.__set__
_set_max_word_len = TwistedSeries.max_word_len.__set__
_set_max_degree = TwistedSeries.max_degree.__set__
_set_truncated = TwistedSeries.truncated.__set__


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
    return f._derived(out, truncated)


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
