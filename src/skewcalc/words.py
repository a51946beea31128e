"""Combinatorics of two-letter index words.

A word is a tuple over ``{1, 2}`` (the empty tuple is allowed).  Letter 1
carries a signed weight of +1 and letter 2 of -1; the running totals of
those weights drive every twisted-seminorm formula in the package.

By default the extremal running totals ``k_min`` / ``k_max`` are taken
over slot indices ``0 .. len(w)-1`` (the zero slot included), so both are
0 for words of length at most 1.  The narrower variant that skips the
zero slot is available via ``extended=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


class InvalidWordError(ValueError):
    pass


def check_word(w: Word) -> Word:
    if any(letter not in (1, 2) for letter in w):
        raise InvalidWordError(f"word letters must be 1 or 2, got {w!r}")
    return tuple(w)


def counts(w: Word) -> tuple[int, int, int]:
    """Return (number of 1s, number of 2s, their difference)."""
    c1 = sum(1 for letter in w if letter == 1)
    c2 = len(w) - c1
    return c1, c2, c1 - c2


def winding(w: Word) -> int:
    """Signed letter count: #1s minus #2s."""
    return counts(w)[2]


def partial_sum(w: Word, k: int) -> int:
    """Signed running sum of the first k letters (1 -> +1, 2 -> -1)."""
    if not 0 <= k <= len(w):
        raise IndexError(f"partial-sum index {k} out of range for |w|={len(w)}")
    return sum(3 - 2 * letter for letter in w[:k])


def partial_sums(w: Word) -> list[int]:
    """All running sums p(w, 0), ..., p(w, |w|)."""
    sums = [0]
    for letter in w:
        sums.append(sums[-1] + (3 - 2 * letter))
    return sums


def extremal_twists(w: Word, extended: bool = True) -> tuple[int, int]:
    """Extremal running sums (k_min, k_max) over slots 0 .. |w|-1.

    With ``extended=False`` the range is 1 .. |w|-1 instead, and both
    values are 0 for |w| <= 1 by convention.
    """
    if len(w) <= 1:
        return 0, 0
    sums = partial_sums(w)[:-1]
    if not extended:
        sums = sums[1:]
        if not sums:
            return 0, 0
    return min(sums), max(sums)


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


class _Empty:
    """Distinguished empty interval; every seminorm over it is 0."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Empty"


EMPTY_INTERVAL = _Empty()


def interval(w: Word, n, step=1):
    """[-n, n] shifted by p * step for each slot twist p, intersected.

    The intersection is [-n + s_max, n + s_min] over the extremal shifts
    s = k_min * step and k_max * step, or Empty when it inverts; a
    negative step swaps which extremal twist gives which end.  At step 1
    it is [-n + k_max(w), n + k_min(w)].
    """
    n = Fraction(n)
    if n <= 0:
        raise ValueError("half-width n must be positive")
    k_min, k_max = extremal_twists(w)
    s_min, s_max = sorted((k_min * step, k_max * step))
    lo, hi = -n + s_max, n + s_min
    if lo > hi:
        return EMPTY_INTERVAL
    return Interval(lo, hi)


def canonical_word(n1: int, n2: int) -> Word:
    """The block word with n1 ones followed by n2 twos."""
    if n1 < 0 or n2 < 0:
        raise ValueError("block lengths must be nonnegative")
    return (1,) * n1 + (2,) * n2


def all_words(max_len: int):
    """Yield every word of length 0 .. max_len."""
    for length in range(max_len + 1):
        for w in product((1, 2), repeat=length):
            yield w


def word_to_str(w: Word) -> str:
    return "".join(str(letter) for letter in w) if w else "e"


def word_from_str(s: str) -> Word:
    if s == "e":
        return EMPTY_WORD
    w = tuple(int(ch) for ch in s if not ch.isspace())
    return check_word(w)
