"""Combinatorics of two-letter index words.

A word is a tuple over ``{1, 2}`` (the empty tuple is allowed).  Letter 1
carries a signed weight of +1 and letter 2 of -1; the running totals of
those weights drive every twisted-seminorm formula in the package.

The extremal running totals ``k_min`` / ``k_max`` are taken over slot
indices ``0 .. len(w)-1`` (the zero slot included), so both are 0 for
words of length at most 1.  A window of the interval base is a pair
``(lo, hi)``, or ``None`` when the shifted windows do not meet.  The
collapse diagnostics read one word family, the block words 1^k 2^k of
``canonical_word(k, k)``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

Word = tuple[int, ...]


class InvalidWordError(ValueError):
    pass


def check_word(w: Word) -> Word:
    if any(letter not in (1, 2) for letter in w):
        raise InvalidWordError(f"word letters must be 1 or 2, got {w!r}")
    return tuple(w)


def winding(w: Word) -> int:
    """Signed letter count: #1s minus #2s."""
    return 2 * w.count(1) - len(w)


def partial_sums(w: Word) -> list[int]:
    """All running sums p(w, 0), ..., p(w, |w|) of the signed letter weights."""
    sums = [0]
    for letter in w:
        sums.append(sums[-1] + (3 - 2 * letter))
    return sums


def extremal_twists(w: Word) -> tuple[int, int]:
    """Extremal running sums (k_min, k_max) over slots 0 .. |w|-1."""
    if len(w) <= 1:
        return 0, 0
    sums = partial_sums(w)[:-1]
    return min(sums), max(sums)


def interval(w: Word, n, step=1):
    """[-n, n] shifted by p * step for each slot twist p, intersected.

    The intersection is [-n + s_max, n + s_min] over the extremal shifts
    s = k_min * step and k_max * step, or None when it inverts; a
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
        return None
    return lo, hi


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
