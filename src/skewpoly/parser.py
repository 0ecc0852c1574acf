"""Expression parser producing normal-form polynomials.

Grammar (whitespace insignificant, ``^`` takes a natural number of at most
``MAX_EXPONENT``, parentheses nest at most ``MAX_DEPTH`` deep)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' NAT)?
    atom   := NAT | NAME | '(' expr ')'

``NAT`` is ASCII digits.  Names resolve to ring variables first, then to
the active ring's scalar literals (``x`` over Q(x); ``i``, ``j``, ``k``
over the quaternions).  Division requires a scalar-valued divisor, which is
how rational literals like ``1/2`` and entered denominators like
``(x+1)/(x^2)`` are formed.  Right-side coefficients are commuted into left
position by the ring arithmetic itself, so the result is always the
canonical expansion.

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
form skip ``SkewPoly.__mul__``: a constant times f is left scaling of f,
and f times a unit monomial ``t^J`` adds J to every exponent vector, since
the variables fix each other and every automorphism fixes 1 and every
derivation kills it.  Likewise ``c^k`` of a constant is ``Scalar ** k`` and
``(t^J)^k`` is ``t^(kJ)``.  Any other product or power is one
``SkewPoly.__mul__`` or ``__pow__``.  Every ``*``, ``/`` and ``^k`` with
k >= 2 first checks the ring's certificate, shortcut or not.

Over Q(x), where ``x`` is not a ring variable and the certificate holds, a
parenthesized sum of integer x-monomials such as ``(3*x^2 - x + 2)`` is
read straight into one integer coefficient tuple (``_Parser.xpoly``), with
no term dicts or scalar products.  Any other token inside, or an exponent
above ``MAX_EXPONENT``, leaves the position where it was, and the general
path then gives the same value or the same error at the same position; a
``(`` past ``MAX_DEPTH`` is refused before the lane is tried.  The tests
in ``tests/test_parser.py`` run the parser with the lane off as its
oracle, and check the value against integer arithmetic on the monomials.
"""

from __future__ import annotations

import re

from .errors import ParseError, UnknownScalarLiteral, UnknownVariable
from .ore import OreRing, SkewPoly, evaluation_context
from .scalars import QX, RationalFunction, Scalar, ScalarDomain

_LITERALS = {"x", "i", "j", "k"}
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
        # where x is the scalar literal and products are allowed, a
        # parenthesized sum of integer x-monomials is read directly
        self.xpoly_lane = (ring.domain is QX and "x" not in ring.names
                           and ring.certificate.ok)

    def fail(self, message: str, pos: int | None = None, error=ParseError):
        token = tokenize(self.src)[self.pos if pos is None else pos]
        raise error(message, token[2], token[3])

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
        if a.keys() <= self.constant:  # a constant or zero: left scaling
            return {e: c * v for c in a.values() for e, v in b.items()}
        if len(b) == 1:
            (right, v), = b.items()
            if v == self.one:  # a unit monomial: exponent shift
                return {tuple(p + q for p, q in zip(e, right)): c
                        for e, c in a.items()}
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
        k = int(text)
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
            self.pos += 1
            n = int(text)
            return {self.origin: self.ring.domain.from_int(n)} if n else {}
        if text not in _OPS:  # a name; the end's "" is in _OPS
            terms = self.resolve_name(text)
            self.pos += 1
            return terms
        if text == "(":
            if self.depth == MAX_DEPTH:
                self.fail(f"parentheses nested deeper than {MAX_DEPTH}")
            if self.xpoly_lane and (value := self.xpoly()) is not None:
                return {self.origin: value} if value.ints_num else {}
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

    def xpoly(self) -> RationalFunction | None:
        """The integer polynomial written from the ``(`` at ``self.pos`` as
        ``'(' ['-'] mono (('+' | '-') mono)* ')'``, with
        ``mono := NUM ['*' 'x' ['^' NUM]] | 'x' ['^' NUM]``, read into its
        coefficients, and ``self.pos`` moved past the ``)``.  On any other
        token, or an exponent above ``MAX_EXPONENT``, None with ``self.pos``
        unchanged: the general path then gives the same value or error."""
        texts = self.texts
        pos, sign, coeffs = self.pos + 1, 1, {}
        if texts[pos] == "-":
            pos, sign = pos + 1, -1
        while True:
            c, e = 1, 0
            if texts[pos].isdigit():
                c = int(texts[pos])
                pos += 1
                has_x = texts[pos] == "*"
                if has_x:
                    if texts[pos + 1] != "x":
                        return None
                    pos += 1
            elif not (has_x := texts[pos] == "x"):
                return None
            if has_x:  # at the "x"
                e = 1
                pos += 1
                if texts[pos] == "^":
                    if not texts[pos + 1].isdigit():
                        return None
                    e = int(texts[pos + 1])
                    if e > MAX_EXPONENT:
                        return None
                    pos += 2
            coeffs[e] = coeffs.get(e, 0) + sign * c
            text = texts[pos]
            pos += 1
            if text == ")":
                break
            if text == "+":
                sign = 1
            elif text == "-":
                sign = -1
            else:
                return None
        self.pos = pos
        num = [0] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            num[e] = c
        while num and not num[-1]:
            num.pop()
        return RationalFunction(tuple(num), (1,))

    def resolve_name(self, name: str) -> dict:
        names = self.names
        if name in names:
            i = names.index(name)
            return {tuple(int(t == i) for t in range(len(names))): self.one}
        domain = self.ring.domain
        if domain.name == "Qx" and name == "x":
            return {self.origin: domain.x()}
        if domain.name == "HQ" and name in ("i", "j", "k"):
            return {self.origin: getattr(domain, name)()}
        if name in _LITERALS:
            self.fail(f"literal {name!r} is not available over {domain.name}",
                      error=UnknownScalarLiteral)
        self.fail(f"unknown name {name!r}", error=UnknownVariable)


def parse_expr(src: str, ring: OreRing) -> SkewPoly:
    """Parse an expression into its normal form in ``ring``."""
    return _Parser(src, ring).parse()


def parse_scalar(src: str, domain: ScalarDomain) -> Scalar:
    """Parse a scalar-valued expression over a coefficient ring."""
    value = _Parser(src, evaluation_context(domain, ())).parse()
    return value.constant_value()
