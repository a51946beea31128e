from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skewcalc import canonical_word, interval
from skewcalc.words import (
    InvalidWordError,
    all_words,
    check_word,
    extremal_twists,
    partial_sums,
    winding,
)

words = st.lists(st.sampled_from((1, 2)), max_size=10).map(tuple)


def test_check_word_rejects_bad_letters():
    with pytest.raises(InvalidWordError):
        check_word((1, 3))
    assert check_word(()) == ()


@given(words)
def test_counts_and_winding(w):
    assert winding(w) == w.count(1) - w.count(2)


@given(words)
def test_partial_sums_consistency(w):
    sums = partial_sums(w)
    assert sums[0] == 0
    assert sums[-1] == winding(w)
    for k in range(len(w) + 1):
        assert sums[k] == winding(w[:k])


@given(words)
def test_extremal_twists_bracket_zero(w):
    k_min, k_max = extremal_twists(w)
    assert k_min <= 0 <= k_max
    assert k_max - k_min <= len(w)


def test_extremal_twists_short_words():
    assert extremal_twists(()) == (0, 0)
    assert extremal_twists((1,)) == (0, 0)
    assert extremal_twists((2,)) == (0, 0)


def test_extremal_twists_blocks():
    assert extremal_twists((1, 1, 2, 2)) == (0, 2)
    assert extremal_twists((2, 2, 1, 1)) == (-2, 0)
    assert extremal_twists((1, 2, 1, 2)) == (0, 1)


def test_extremal_twists_narrow_variant():
    # the range includes the zero slot, so a pure 1-block starts at 0
    assert extremal_twists((1, 1, 1)) == (0, 2)


@given(words, st.integers(1, 5))
def test_interval_formula(w, n):
    win = interval(w, n)
    k_min, k_max = extremal_twists(w)
    if -n + k_max > n + k_min:
        assert win is None
    else:
        assert win == (Fraction(-n + k_max), Fraction(n + k_min))


def test_interval_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        interval((1,), 0)


@given(words, st.integers(1, 4))
def test_interval_contained_in_every_slot_window(w, n):
    win = interval(w, n)
    if win is None:
        return
    lo, hi = win
    for p in partial_sums(w)[:-1]:
        assert -n + p <= lo and hi <= n + p


def test_canonical_word():
    assert canonical_word(2, 3) == (1, 1, 2, 2, 2)
    assert canonical_word(0, 0) == ()
    with pytest.raises(ValueError):
        canonical_word(-1, 0)


@given(words)
def test_canonical_word_maximizes_k_max(w):
    assert extremal_twists(w)[1] <= extremal_twists(canonical_word(w.count(1), w.count(2)))[1]


def test_all_words_count():
    assert sum(1 for _ in all_words(3)) == 1 + 2 + 4 + 8
