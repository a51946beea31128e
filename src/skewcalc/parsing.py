"""Text forms for elements: parser, canonical printer, config files.

Grammar: an expression is a sum of terms; a term is a product (explicit
``*`` or juxtaposition) of factors; a factor is a powered atom, or a
sign and the factor after it (``-2^2`` is -4).  Atoms are rational numbers
(``3/2``), imaginary literals (``2i``, ``i``), the base variable ``z``,
free generators ``g1``, ``g2``, ..., the series generators ``x1``/``x2``,
the skew variable ``t``, or a parenthesized subexpression.  Only ``t``
may carry a negative exponent.

A term such as ``3/2*z^2*x1*x2`` is held as one coefficient and one key
(a word, or an exponent of t): (a at k1)(b at k2) is the term
a alpha^{twist(k1)}(b) at k1 + k2, by the twisted map's own pair rule.
A term becomes a series or a skew Laurent polynomial only where a sum, a
factor with several terms or the end of the input needs one.

Config files are flat ``key = value`` lines with exact rational literals.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .bases import BaseSpec
from .ore import LaurentOrePoly
from .scalars import GaussianRational, _make
from .tensor import TwistedSeries
from .words import Word


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 1, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class _RingError(ValueError):
    """A value the ring rejects; the parser reports it at its token's column."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?P<num>\d+)(?:/(?P<den>\d+))?(?P<imag>i)?)|(?P<ident>[A-Za-z]\w*)"
    r"|(?P<op>[()+\-*^]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if not match or match.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            column = len(source) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", 1, column)
        pos = match.end()
        if match.lastgroup == "number":
            num, den, imag = match.group("num", "den", "imag")
            try:
                value = Fraction(int(num), int(den) if den else 1)
            except ZeroDivisionError:
                message = f"zero denominator in {match.group('number')!r}"
                raise ParseError(message, 1, match.start("number") + 1) from None
            kind = "imag" if imag else "number"
        else:
            kind, value = match.lastgroup, match.group(match.lastgroup)
        # the column of the token itself, after the whitespace the regex skips
        tokens.append((kind, value, match.start(match.lastgroup)))
    tokens.append(("end", None, len(source)))
    return tokens


class _Parser:
    """Recursive-descent parser; the ring's methods do the arithmetic on its values."""

    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.index = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def error(self, message):
        _, _, pos = self.peek()
        raise ParseError(message, 1, pos + 1)

    def ring_call(self, pos, method, *args):
        """method(*args), with a ring's rejection reported at column pos + 1."""
        try:
            return method(*args)
        except _RingError as exc:
            raise ParseError(str(exc), 1, pos + 1) from None

    def parse(self):
        value = self.expression()
        if self.peek()[0] != "end":
            self.error(f"trailing input starting at {self.peek()[1]!r}")
        return value

    def expression(self):
        value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                value = self.ring.add(value, self.ring.neg(rhs) if text == "-" else rhs)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                value = self.ring.mul(value, self.factor())
            elif kind in ("number", "imag", "ident") or (kind == "op" and text == "("):
                value = self.ring.mul(value, self.factor())
            else:
                return value

    def factor(self):
        # the one place a sign is read: it applies to the factor after it
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.advance()
            value = self.factor()
            return self.ring.neg(value) if text == "-" else value
        return self.power()

    def power(self):
        value = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            value = self.ring_call(pos, self.ring.power, value, self.exponent())
        return value

    def exponent(self) -> int:
        sign = 1
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
        kind, value, _ = self.peek()
        if kind != "number" or value.denominator != 1:
            self.error("integer exponent expected")
        self.advance()
        return sign * int(value)

    def atom(self):
        kind, text, pos = self.advance()
        # a token's Fraction is in lowest terms, so it is the scalar's triple
        if kind == "number":
            return self.ring.scalar(_make(text.numerator, 0, text.denominator))
        if kind == "imag":
            return self.ring_call(pos, self.ring.scalar, _make(0, text.numerator, text.denominator))
        if kind == "ident":
            try:
                return self.ring_call(pos, self.ring.atom, text)
            except KeyError:
                self.index -= 1
                self.error(f"unknown generator {text!r}")
        if kind == "op" and text == "(":
            value = self.expression()
            kind, text, _ = self.advance()
            if not (kind == "op" and text == ")"):
                self.index -= 1
                self.error("expected ')'")
            return value
        self.index -= 1
        self.error("unexpected end of input" if kind == "end" else f"unexpected token {text!r}")


class _Ring:
    """The ring an expression evaluates in: twisted series or the Ore picture.

    A value is a term, the pair (key, coefficient), or a twisted map of
    ``zero``'s kind and caps, which ``lift`` makes of a term.  A term beyond
    the caps is a zero map flagged ``truncated``, as a product drops one.
    ``gens`` maps generator names to keys.  An atom's term is built on its
    first use and kept in ``atoms``: most expressions name some atom twice.
    """

    def __init__(self, spec: BaseSpec, zero, gens: dict):
        self.spec = spec
        self.zero = zero
        self.gens = gens
        self.atoms = {}  # name -> term

    def term(self, a, key=None):
        key = self.zero._unit if key is None else key
        if self.zero._fits(key, a):
            return key, a
        return self.zero._derived({}, bool(a.coeffs))

    def lift(self, value):
        return self.zero._derived(dict([value]), False) if type(value) is tuple else value

    def add(self, x, y):
        return self.lift(x) + self.lift(y)

    def neg(self, x):
        return (x[0], -x[1]) if type(x) is tuple else -x

    def mul(self, x, y):
        if type(x) is tuple and type(y) is tuple:
            out = {}
            dropped = self.zero._row(*x, dict([y]), out)
            return next(iter(out.items())) if out else self.zero._derived({}, dropped)
        return self.lift(x) * self.lift(y)

    def scalar(self, c: GaussianRational):
        if self.spec.kind == "interval":
            if c.im:
                raise _RingError("complex scalars are not allowed on the interval base")
            c = c.re
        element = self.spec.element_type
        return self.term(element._trusted({element._key(): c} if c else {}))

    def atom(self, name: str):
        value = self.atoms.get(name)
        if value is None:
            value = self.atoms[name] = self._atom(name)
        return value

    def _atom(self, name: str):
        if name in self.gens:
            return self.term(self.spec.one(), self.gens[name])
        if name == "z" and self.spec.kind in ("entire", "interval"):
            return self.term(self.spec.monomial(1, 1))
        if name == "i":
            return self.scalar(_make(0, 1, 1))
        match = re.fullmatch(r"g(\d+)", name)
        if match and self.spec.kind == "free":
            index = int(match.group(1)) - 1
            if not 0 <= index < self.spec.ngens:
                raise KeyError(name)
            return self.term(self.spec.monomial(1, (index,)))
        raise KeyError(name)

    def power(self, value, exponent: int):
        if exponent < 0:
            if "t" not in self.gens or self.lift(value) != self.lift(self.atom("t")):
                raise _RingError("negative exponents are only allowed on t")
            return self.term(self.spec.one(), exponent)
        if not exponent:
            return self.term(self.spec.one())
        # square and multiply from the low bit, starting from the first
        # factor; no squaring after the top bit
        result = None
        while True:
            if exponent & 1:
                result = value if result is None else self.mul(result, value)
            exponent >>= 1
            if not exponent:
                return result
            value = self.mul(value, value)


class _ScalarRing:
    """Exact scalars, the ring of :func:`parse_scalar`: i is the only atom."""

    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    power = staticmethod(operator.pow)

    @staticmethod
    def scalar(c):
        return c

    @staticmethod
    def atom(name):
        if name == "i":
            return _make(0, 1, 1)
        raise KeyError(name)


_SCALARS = _ScalarRing()


def parse_expr(source: str, spec: BaseSpec, caps: dict | None = None):
    """Parse into a TwistedSeries, or a LaurentOrePoly when t occurs."""
    caps = caps or {}
    tokens = _tokenize(source)
    # the picture is that of the first of t, x1, x2; an error points at the other
    marks = [(name == "t", pos) for kind, name, pos in tokens
             if kind == "ident" and name in ("t", "x1", "x2")]
    uses_t = bool(marks) and marks[0][0]
    for is_t, pos in marks:
        if is_t != uses_t:
            raise ParseError("an expression cannot mix t with x1/x2", 1, pos + 1)
    if uses_t:
        ring = _Ring(spec, LaurentOrePoly(spec), {"t": 1})
    else:
        ring = _Ring(spec, TwistedSeries(spec, **caps), {"x1": (1,), "x2": (2,)})
    return ring.lift(_Parser(tokens, ring).parse())


def parse_scalar(text: str) -> GaussianRational:
    """Exact scalar literal: '2', '3/2', '1+1i', '-2i'."""
    return GaussianRational.of(_Parser(_tokenize(text), _SCALARS).parse())


# ---------------------------------------------------------------------------
# printers
# ---------------------------------------------------------------------------


def format_base(el, kind: str) -> str:
    """Canonical text form of a base element, e.g. '3/2*z^2 - z + 1'."""
    if kind == "free":
        keys = sorted(el.coeffs, key=lambda v: (len(v), v))
        variables = ["*".join(f"g{i + 1}" for i in v) for v in keys]
    else:
        keys = sorted(el.coeffs, reverse=True)
        variables = ["" if m == 0 else "z" if m == 1 else f"z^{m}" for m in keys]
    parts = []
    for key, var in zip(keys, variables):
        coeff = GaussianRational.of(el.coeffs[key])
        text = f"({coeff})" if coeff.im else str(coeff)
        if not var:
            parts.append(text)
        elif text in ("1", "-1"):
            parts.append(text[:-1] + var)  # a unit keeps only its sign
        else:
            parts.append(f"{text}*{var}")
    return _join(parts)


def _join(parts) -> str:
    """The sum of the parts; one that starts with '-' is subtracted, and
    '0' is the empty sum."""
    out = ""
    for part in parts:
        if not out:
            out = part
        elif part.startswith("-"):
            out += f" - {part[1:]}"
        else:
            out += f" + {part}"
    return out or "0"


def _format_word(w: Word) -> str:
    blocks = []
    for letter in w:
        if blocks and blocks[-1][0] == letter:
            blocks[-1][1] += 1
        else:
            blocks.append([letter, 1])
    return "*".join(
        f"x{letter}" if count == 1 else f"x{letter}^{count}" for letter, count in blocks
    )


def format_element(obj) -> str:
    """Canonical text form.  A series has its words ordered by (length,
    lexicographic), e.g. '(2*z)*x1*x2 - x2^2 + 1'; a skew Laurent
    polynomial has its exponents descending, e.g. '(2*z)*t^3 + t^-1'."""
    if isinstance(obj, TwistedSeries):
        terms = ((obj.terms[w], _format_word(w)) for w in obj.words())
    elif isinstance(obj, LaurentOrePoly):
        terms = ((obj.terms[i], "" if i == 0 else "t" if i == 1 else f"t^{i}")
                 for i in sorted(obj.terms, reverse=True))
    else:
        raise TypeError(f"cannot format {type(obj).__name__}")
    parts = []
    for a, mono in terms:  # an empty monomial text marks the constant term
        base = format_base(a, obj.spec.kind)
        if not mono:
            parts.append(base)
        elif base == "1":
            parts.append(mono)
        else:
            parts.append(f"({base})*{mono}")
    return _join(parts)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


class ConfigError(Exception):
    """A config file or value that does not describe a session."""


def parse_config_text(text: str) -> dict:
    """Flat key = value lines; '#' starts a comment; a key may appear once."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        out[key] = value.strip()
    return out
