"""Expression parser producing normal-form polynomials.

Grammar (whitespace insignificant, ``^`` takes a natural number of at most
``MAX_EXPONENT``, parentheses nest at most ``MAX_DEPTH`` deep)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' NAT)?
    atom   := NAT | NAME | '(' expr ')'

``NAT`` is ASCII digits, at most as many as ``int`` converts.  Names
resolve to ring variables first, then to the active ring's scalar literals
(``x`` over Q(x); ``i``, ``j``, ``k`` over the quaternions).  Division
requires a scalar-valued divisor, which is how rational literals like
``1/2`` and entered denominators like ``(x+1)/(x^2)`` are formed.
Right-side coefficients are commuted into left position by the ring
arithmetic itself, so the result is always the canonical expansion.

``tokenize`` gives plain ``(kind, text, line, column)`` tuples, kind one
of "num", "name", "op" and "end", and is the only code that computes a
line and column.  The parser takes its token texts from one ``findall``
with an end sentinel ``""``, and knows a token's kind by its text: digits,
an operator, the end, or else a name.  ASCII input made only of characters
the grammar admits is checked by one ``fullmatch``; any other input goes
through ``tokenize`` first, which raises at the first character it
refuses.  Both scans split an admitted text at the same places, so the
parser's index into its texts is an index into ``tokenize``'s tuples, and
an error calls ``tokenize`` again only to report its position.  A run of
signs is counted in a loop, so only parentheses recurse, and the bound on
their depth keeps every input clear of Python's recursion limit: a
deeper ``(`` is a ``ParseError`` at its position.

Values are term dicts ``{exponents: non-zero left coefficient}``, wrapped
in one ``SkewPoly`` at the end.  Products whose result is already a normal
form skip ``SkewPoly.__mul__``: f times a unit monomial ``t^J`` adds J to
every exponent vector, since the variables fix each other and every
automorphism fixes 1 and every derivation kills it, and a constant times
any other f is left scaling of f.  Likewise ``c^k`` of a constant is
``Scalar ** k`` and ``(t^J)^k`` is ``t^(kJ)``.  Any other product or power
is one ``SkewPoly.__mul__`` or ``__pow__``.  Every ``*``, ``/`` and ``^k``
with k >= 2 first checks the ring's certificate, shortcut or not.

Where no literal unit (``x`` over Q(x); ``i``, ``j``, ``k`` over the
quaternions) is a ring variable and the certificate holds, a parenthesized
rational combination of the units such as ``(3*x^2 - 1/2*x + 2)``, and a
whole ``parse_scalar`` text such as ``-3*i + 2/13*k``, is read straight
into one coefficient (``_Parser.literal``), with no term dicts or scalar
products.  Any other token, a zero denominator, an exponent above
``MAX_EXPONENT`` or a literal too long to convert leaves the position where
it was, and the general path then gives the same value or error; a ``(``
past ``MAX_DEPTH`` is refused before the lane is tried.  The tests in
``tests/test_parser.py`` run the parser with the lane off as its oracle,
and check the value against ``Fraction`` arithmetic on the monomials.
"""

from __future__ import annotations

import re
from math import lcm

from .errors import ParseError, UnknownScalarLiteral, UnknownVariable
from .ore import OreRing, SkewPoly, evaluation_context
from .scalars import (DOMAINS, Quaternion, RationalFunction, Scalar, _hq,
                      _reduced)

# every domain's literal units
_LITERALS = {u for domain in DOMAINS.values() for u in domain.units}
MAX_EXPONENT = 1000  # largest literal exponent; higher powers are refused
MAX_Q_DIGITS = 100  # most decimal digits of a q_shift's q, above and below
MAX_DEPTH = 100  # deepest nesting of parentheses; deeper input is refused
# A name starts with a letter or "_"; the match admits any word character
# but a decimal digit, and ``tokenize`` rejects the rest (such as "²").
_TOKEN = re.compile(r"(?P<space>\s+)|(?P<num>[0-9]+)|(?P<name>[^\W\d]\w*)"
                    r"|(?P<op>[-+*/^()])|(?P<bad>.)", re.DOTALL)
# On input that ``tokenize`` accepts, the texts of its tokens but the end;
# ASCII input is accepted exactly when ``_ASCII_TEXT`` matches it whole
_TEXTS = re.compile(r"\s*([0-9]+|[^\W\d]\w*|[-+*/^()])")
_ASCII_TEXT = re.compile(r"[\s\w+\-*/^()]*")
_OPS = "+-*/^()"


def tokenize(src: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, line_start = 1, 0  # line_start: index of the line's first char
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "space":
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rindex("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "bad" or (kind == "name" and not text[0].isalpha()
                             and text[0] != "_"):
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
        tokens.append((kind, text, line, col))
    tokens.append(("end", "", line, len(src) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, src: str, ring: OreRing):
        if not (src.isascii() and _ASCII_TEXT.fullmatch(src)):
            tokenize(src)  # raises at the first character it refuses
        self.src = src
        self.texts = _TEXTS.findall(src) + [""]
        self.pos = 0
        self.depth = 0  # parentheses open around the current position
        self.ring = ring
        self.origin = (0,) * ring.nvars
        self.constant = {self.origin}  # the key set of a non-zero constant
        self.names = ring.names
        self.one = ring.domain.one()
        # where no unit is a variable and products are allowed, an integer
        # combination of the units is read directly; {} turns the lane off
        units = ring.domain.units
        self.units = (units if ring.certificate.ok
                      and units.keys().isdisjoint(self.names) else {})

    def fail(self, message: str, pos: int | None = None, error=ParseError):
        token = tokenize(self.src)[self.pos if pos is None else pos]
        raise error(message, token[2], token[3])

    def natural(self, pos: int) -> int:
        """The digits at ``pos``; more than ``int`` converts from text
        (``sys.get_int_max_str_digits()``) is a ``ParseError`` there."""
        try:
            return int(self.texts[pos])
        except ValueError:
            self.fail(f"integer literal of {len(self.texts[pos])} digits "
                      "is too long", pos)

    def parse(self) -> SkewPoly:
        terms = self.expr()
        if self.texts[self.pos]:
            self.fail(f"unexpected {self.texts[self.pos]!r}")
        return SkewPoly(self.ring, terms)

    def expr(self) -> dict:
        terms = self.term()
        texts = self.texts
        while (op := texts[self.pos]) == "+" or op == "-":
            self.pos += 1
            for e, c in self.term().items():
                if op == "-":
                    c = -c
                if e in terms:
                    c = terms[e] + c
                if c.is_zero():
                    terms.pop(e, None)
                else:
                    terms[e] = c
        return terms

    def term(self) -> dict:
        terms = self.unary()
        texts = self.texts
        while (op := texts[self.pos]) == "*" or op == "/":
            at = self.pos
            self.pos += 1
            rhs = self.unary()
            if op == "/":
                if rhs.keys() - self.constant:
                    self.fail("can only divide by a scalar", at)
                zero = self.ring.domain.zero()
                rhs = {self.origin: rhs.get(self.origin, zero).inv()}
            terms = self.product(terms, rhs)
        return terms

    def product(self, a: dict, b: dict) -> dict:
        ring = self.ring
        ring._require_certificate("multiplication")
        if len(b) == 1:
            (right, v), = b.items()
            if v == self.one:  # a unit monomial: exponent shift
                return {tuple(p + q for p, q in zip(e, right)): c
                        for e, c in a.items()}
        if a.keys() <= self.constant:  # a constant or zero: left scaling
            return {e: c * v for c in a.values() for e, v in b.items()}
        return (SkewPoly(ring, a) * SkewPoly(ring, b)).terms

    def unary(self) -> dict:
        texts = self.texts
        start = self.pos
        while texts[self.pos] == "-":
            self.pos += 1
        negate = (self.pos - start) % 2
        terms = self.power()
        return {e: -c for e, c in terms.items()} if negate else terms

    def power(self) -> dict:
        base = self.atom()
        if self.texts[self.pos] != "^":
            return base
        self.pos += 1
        text = self.texts[self.pos]
        if not text.isdigit():
            self.fail("exponent must be a natural number")
        k = self.natural(self.pos)
        if k > MAX_EXPONENT:
            self.fail(f"exponent {k} exceeds {MAX_EXPONENT}")
        self.pos += 1
        if k < 2:
            return base if k else {self.origin: self.one}
        self.ring._require_certificate("multiplication")
        if base.keys() <= self.constant:  # a constant or zero: squaring
            return {e: c ** k for e, c in base.items()}
        if len(base) == 1:
            (e, c), = base.items()
            if c == self.one:  # a unit monomial: exponents times k
                return {tuple(k * p for p in e): c}
        return (SkewPoly(self.ring, base) ** k).terms

    def atom(self) -> dict:
        text = self.texts[self.pos]
        if text.isdigit():
            n = self.natural(self.pos)
            self.pos += 1
            return {self.origin: self.ring.domain.from_int(n)} if n else {}
        if text not in _OPS:  # a name; the end's "" is in _OPS
            terms = self.resolve_name(text)
            self.pos += 1
            return terms
        if text == "(":
            if self.depth == MAX_DEPTH:
                self.fail(f"parentheses nested deeper than {MAX_DEPTH}")
            value = self.literal(self.pos + 1, ")")
            if value is not None:
                return {} if value.is_zero() else {self.origin: value}
            self.pos += 1
            self.depth += 1
            terms = self.expr()
            if self.texts[self.pos] != ")":
                self.fail("expected ')'")
            self.pos += 1
            self.depth -= 1
            return terms
        self.fail("expected a number, name or '('"
                  if text else "unexpected end of input")

    def literal(self, pos: int, close: str) -> Scalar | None:
        """The rational combination of the domain's units written from
        ``pos`` to the token ``close`` as ``['-'] mono (('+' | '-') mono)*``,
        with ``mono := NUM ['/' NUM] ['*' UNIT] | UNIT`` and, over Q(x),
        ``'^' NUM`` after the unit, read over a common denominator into one
        coefficient, and ``self.pos`` moved past ``close``.  On any other
        token, a zero denominator, an exponent above ``MAX_EXPONENT`` or a
        literal too long for ``int``, None with ``self.pos`` unchanged: the
        general path then gives the same value or error."""
        texts, units, powers = self.texts, self.units, "x" in self.units
        if not units:
            return None
        sign, coeffs, den = 1, {}, 1
        if texts[pos] == "-":
            pos, sign = pos + 1, -1
        try:
            while True:
                c, slot = den, 0  # c over den
                if texts[pos].isdigit():
                    c = int(texts[pos]) * den
                    pos += 1
                    if texts[pos] == "/":
                        if not (texts[pos + 1].isdigit()
                                and (q := int(texts[pos + 1]))):
                            return None
                        if den % q:  # a new common denominator
                            m = lcm(den, q)
                            coeffs = {e: v * (m // den)
                                      for e, v in coeffs.items()}
                            c, den = c * (m // den), m
                        c //= q
                        pos += 2
                    if texts[pos] == "*":
                        if not (slot := units.get(texts[pos + 1])):
                            return None
                        pos += 2
                elif slot := units.get(texts[pos]):
                    pos += 1
                else:
                    return None
                if texts[pos] == "^":
                    if not (slot and powers and texts[pos + 1].isdigit()):
                        return None
                    slot = int(texts[pos + 1])
                    if slot > MAX_EXPONENT:
                        return None
                    pos += 2
                coeffs[slot] = coeffs.get(slot, 0) + sign * c
                text = texts[pos]
                pos += 1
                if text == close:
                    break
                if text != "+" and text != "-":
                    return None
                sign = -1 if text == "-" else 1
        except ValueError:
            return None
        self.pos = pos
        if not powers:  # over 1 the numerators are jointly primitive
            ints = tuple(coeffs.get(s, 0) for s in range(4))
            return Quaternion(ints, 1) if den == 1 else _hq(*ints, den)
        num = [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]
        while num and not num[-1]:
            num.pop()
        return (RationalFunction(tuple(num), (1,)) if den == 1
                else _reduced(tuple(num), (den,)))

    def resolve_name(self, name: str) -> dict:
        names = self.names
        if name in names:
            i = names.index(name)
            return {tuple(int(t == i) for t in range(len(names))): self.one}
        domain = self.ring.domain
        if name in domain.units:
            return {self.origin: getattr(domain, name)()}
        if name in _LITERALS:
            self.fail(f"literal {name!r} is not available over {domain.name}",
                      error=UnknownScalarLiteral)
        self.fail(f"unknown name {name!r}", error=UnknownVariable)


def parse_expr(src: str, ring: OreRing) -> SkewPoly:
    """Parse an expression into its normal form in ``ring``."""
    return _Parser(src, ring).parse()


def parse_scalar(src: str, domain: type[Scalar]) -> Scalar:
    """Parse a scalar-valued expression over a coefficient ring.  A whole
    text that is an integer combination of the domain's units, such as
    ``-3*i + k``, is read by the parser's literal lane."""
    p = _Parser(src, evaluation_context(domain, ()))
    value = p.literal(0, "")
    return p.parse().constant_value() if value is None else value
