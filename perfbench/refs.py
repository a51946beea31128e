"""Reference values the checks compare against, computed without skewcalc.

Everything here works from the inputs the benchmark generated, in exact
``Fraction`` arithmetic, from the definitions in the package docs: the
per-word windows of the interval base, the scaling closed form, the
winding functionals phi(m, n) and the regimes of the canonical
representative.  No value is ever recorded from a run of the code under
test.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

GRID_POINTS = 256


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def winding(word) -> int:
    return sum(1 if letter == 1 else -1 for letter in word)


def winding_word(n: int) -> tuple:
    return (1,) * n if n >= 0 else (2,) * (-n)


def slot_twists(word) -> list:
    """Running sums at slots 0 .. |w|-1 (letter 1 -> +1, letter 2 -> -1)."""
    sums, acc = [], 0
    for letter in word:
        sums.append(acc)
        acc += 1 if letter == 1 else -1
    return sums


def word_text(word) -> str:
    if not word:
        return ""
    blocks = []
    for letter in word:
        if blocks and blocks[-1][0] == letter:
            blocks[-1][1] += 1
        else:
            blocks.append([letter, 1])
    return "*".join(f"x{a}" if k == 1 else f"x{a}^{k}" for a, k in blocks)


# ---------------------------------------------------------------------------
# interval base: sup-norm bracket on a rational grid
# ---------------------------------------------------------------------------


def sup_bracket(coeffs: dict, lo: Fraction, hi: Fraction) -> tuple:
    """(lower, upper) bounds on sup |f| over [lo, hi].

    lower is the largest |f| on a uniform grid of GRID_POINTS intervals
    of width h.  The sup is at an endpoint or at an interior x* with
    f'(x*) = 0; from the grid point nearest x*, Taylor's theorem gives
    |f(x*)| <= lower + M2 h^2 / 8, with M2 = sum |c_m| m (m-1) R^(m-2)
    bounding |f''| on [-R, R] (the Lipschitz bound of f', one order up).
    The grid is evaluated in integers: with x_j = (a + j b) / c and
    f = F / den for an integer polynomial F, homogeneous Horner gives
    F(x_j) c^deg exactly.
    """
    h = (hi - lo) / GRID_POINTS
    c = math.lcm(lo.denominator, h.denominator)
    a, b = int(lo * c), int(h * c)
    den = math.lcm(*(v.denominator for v in coeffs.values()))
    deg = max(coeffs)
    scaled = [int(coeffs.get(m, 0) * den) * c ** (deg - m) for m in range(deg + 1)]
    best = 0
    for j in range(GRID_POINTS + 1):
        x, acc = a + j * b, 0
        for m in range(deg, -1, -1):
            acc = acc * x + scaled[m]
        best = max(best, abs(acc))
    lower = Fraction(best, den * c**deg)
    radius = max(abs(lo), abs(hi))
    m2 = sum(abs(v) * m * (m - 1) * radius ** (m - 2) for m, v in coeffs.items() if m > 1)
    return lower, lower + m2 * h * h / 8


def interval_window(word, n: Fraction):
    """Window of the shift-by-1 interval base, or None when it is empty."""
    if len(word) <= 1:
        return -n, n
    twists = slot_twists(word)
    lo, hi = -n + max(twists), n + min(twists)
    return (lo, hi) if lo <= hi else None


def interval_norm_bracket(terms, n: Fraction, rho: Fraction) -> tuple:
    """Bracket of sum_w rho^|w| sup_{window(w)} |a_w| for terms [(word, coeffs)]."""
    lower = upper = Fraction(0)
    for word, coeffs in terms:
        window = interval_window(word, n)
        if window is None:
            continue
        lo_w, hi_w = sup_bracket(coeffs, *window)
        lower += rho ** len(word) * lo_w
        upper += rho ** len(word) * hi_w
    return lower, upper


def within(value: float, lower, upper, rel: float = 1e-12) -> bool:
    return float(lower) * (1 - rel) <= value <= float(upper) * (1 + rel)


# ---------------------------------------------------------------------------
# scaling base, q real > 1
# ---------------------------------------------------------------------------


def binomial_power(a: Fraction, k: int) -> dict:
    """Coefficients of (a + z)^k."""
    return {m: math.comb(k, m) * a ** (k - m) for m in range(k + 1)}


def scale_power_norm(coeffs: dict, n: int, q: Fraction, lam: Fraction, rho: Fraction):
    """Twisted norm of c(z) * x1^n: the radius shrinks by q^(k_max) with k_max = n-1."""
    k_max = max(slot_twists((1,) * n)) if n >= 2 else 0
    lam_eff = lam / q ** k_max
    return sum(abs(c) * lam_eff**m for m, c in coeffs.items()) * rho**n


# ---------------------------------------------------------------------------
# winding functionals and the canonical representative
# ---------------------------------------------------------------------------


def phi_table(monomials) -> dict:
    """phi(m, n) for monomials [(coeff, m, word)], nonzero values only."""
    out: dict = {}
    for c, m, word in monomials:
        key = (m, winding(word))
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def canonical_rep(monomials, abs2_q: Fraction, rho: Fraction) -> tuple:
    """({(m, word): coeff}, dropped) for |q| > 1, decided exactly on |q|^2.

    A class (m, n) keeps its winding word when |q|^m <= rho, moves to
    1^(n+1) 2 when rho < |q|^m <= rho^2 and n > 0, and is dropped when
    |q|^m > rho^2.
    """
    rep: dict = {}
    dropped = set()
    for (m, n), c in phi_table(monomials).items():
        qm2 = abs2_q**m  # |q|^(2m)
        if qm2 <= rho**2:
            word = winding_word(n)
        elif qm2 <= rho**4:
            word = (1,) * (n + 1) + (2,) if n > 0 else winding_word(n)
        else:
            dropped.add((m, n))
            continue
        rep[(m, word)] = rep.get((m, word), 0) + c
    return {k: v for k, v in rep.items() if v}, dropped


def ore_product(a: dict, b: dict, q: Fraction) -> dict:
    """(sum a z^m t^i)(sum b z^k t^j) under t z = q z t; keys (m, i)."""
    out: dict = {}
    for (m, i), ca in a.items():
        for (k, j), cb in b.items():
            key = (m + k, i + j)
            out[key] = out.get(key, 0) + ca * cb * q ** (i * k)
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# reading printed elements back
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+(?:/\d+)?|x1|x2|z|t|[-+*^()])")


class TextError(ValueError):
    pass


def read_element(text: str) -> dict:
    """Read a printed element into {(m, t_exp, word): Fraction}.

    Only for canonical printer output, where every term is a base
    coefficient to the left of a word or power of t, so z can be moved
    freely without applying the automorphism.
    """
    tokens, pos = [], 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise TextError(f"unreadable output {text!r}")
        tokens.append(match.group(1))
        pos = match.end()
    tokens.append(None)
    index = 0

    def peek():
        return tokens[index]

    def take():
        nonlocal index
        index += 1
        return tokens[index - 1]

    def mul(a, b):
        out: dict = {}
        for (m1, t1, w1), c1 in a.items():
            for (m2, t2, w2), c2 in b.items():
                key = (m1 + m2, t1 + t2, w1 + w2)
                out[key] = out.get(key, 0) + c1 * c2
        return out

    def add(a, b, sign=1):
        out = dict(a)
        for key, c in b.items():
            out[key] = out.get(key, 0) + sign * c
        return out

    def atom():
        tok = take()
        if tok == "(":
            value = expr()
            if take() != ")":
                raise TextError(f"unbalanced output {text!r}")
            return value
        if tok == "z":
            return {(1, 0, ()): Fraction(1)}
        if tok == "t":
            return {(0, 1, ()): Fraction(1)}
        if tok in ("x1", "x2"):
            return {(0, 0, (int(tok[1]),)): Fraction(1)}
        if tok is not None and tok[0].isdigit():
            return {(0, 0, ()): Fraction(tok)}
        raise TextError(f"unexpected {tok!r} in {text!r}")

    def power():
        base = atom()
        if peek() != "^":
            return base
        take()
        sign = -1 if peek() == "-" else 1
        if sign < 0:
            take()
        k = sign * int(take())
        if k < 0:
            ((m, t, w), c), = base.items()
            if (m, w, c) != (0, (), 1) or t != 1:
                raise TextError("negative exponent off t")
            return {(0, k, ()): Fraction(1)}
        out = {(0, 0, ()): Fraction(1)}
        for _ in range(k):
            out = mul(out, base)
        return out

    def term():
        value = power()
        while peek() == "*":
            take()
            value = mul(value, power())
        return value

    def expr():
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        value = add({}, term(), sign)
        while peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
            value = add(value, term(), sign)
        return value

    value = expr()
    if peek() is not None:
        raise TextError(f"trailing output in {text!r}")
    return {k: v for k, v in value.items() if v}


def poly_text(coeffs: dict) -> str:
    """Input text for a polynomial in z, e.g. '(3/2)*z^2 + (-1)'."""
    parts = []
    for m in sorted(coeffs, reverse=True):
        c = coeffs[m]
        var = "" if m == 0 else ("z" if m == 1 else f"z^{m}")
        parts.append(f"({c})*{var}" if var else f"({c})")
    return " + ".join(parts) if parts else "0"
