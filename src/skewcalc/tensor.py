"""Word-indexed twisted series and their weighted seminorms.

A :class:`TwistedSeries` is the word-keyed kind of the twisted map of
:mod:`skewcalc.ore`: a finitely supported map from two-letter words to
base elements.  Multiplication concatenates words and twists the right
coefficient by the winding of the left word:

    (fg)_w = sum over w1 w2 = w of f_{w1} * alpha^{c(w1)}(g_{w2}).

Truncation caps (max word length L, max base degree D) are explicit;
sums and products that overflow them drop terms and set the
``truncated`` flag instead of raising.  The public constructor checks
every word and every term against the caps; results of arithmetic meet
them already.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bases import BaseSpec, Exactness
from .ore import _TwistedMap
from .words import Word, check_word, winding

DEFAULT_MAX_WORD_LEN = 16
DEFAULT_MAX_DEGREE = 32


def word_sort_key(w: Word):
    return (len(w), w)


@dataclass(frozen=True, slots=True, eq=False)
class TwistedSeries(_TwistedMap):
    spec: BaseSpec
    terms: dict = field(default_factory=dict)
    max_word_len: int = DEFAULT_MAX_WORD_LEN
    max_degree: int = DEFAULT_MAX_DEGREE
    truncated: bool = False

    _key = staticmethod(check_word)
    _unit = ()
    _caps = ("max_word_len", "max_degree")
    _twist = staticmethod(winding)

    def _fits(self, w: Word, a) -> bool:
        return len(w) <= self.max_word_len and a.degree() <= self.max_degree

    def words(self):
        return sorted(self.terms, key=word_sort_key)

    def coefficient(self, w: Word):
        return self.terms.get(tuple(w), self.spec.zero())


def mul(f: TwistedSeries, g: TwistedSeries) -> TwistedSeries:
    """Exact product; cap-exceeding terms are dropped with the flag set."""
    return f * g


def twisted_norm(f: TwistedSeries, lam, rho: float) -> tuple[float, Exactness]:
    """sum over words of the per-word seminorm times rho^|w|.

    The result is tagged Truncated when the caps dropped terms of f, and
    otherwise Exact only when every per-word seminorm was.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    f.spec.check_index(lam)
    rho = float(rho)
    total = 0.0
    exactness = Exactness.EXACT
    for w in f.words():
        value, tag = f.spec.twisted_seminorm(f.terms[w], w, lam)
        if tag is Exactness.UPPER_BOUND:
            exactness = Exactness.UPPER_BOUND
        total += value * rho ** len(w)
    return total, Exactness.TRUNCATED if f.truncated else exactness
