"""Expression parser producing normal-form polynomials.

Grammar (whitespace insignificant, ``^`` takes a natural number of at most
``MAX_EXPONENT``)::

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

Values are term dicts ``{exponents: non-zero left coefficient}``, wrapped
in one ``SkewPoly`` at the end.  Products whose result is already a normal
form skip ``SkewPoly.__mul__``: a constant times f is left scaling of f,
and f times a unit monomial ``t^J`` adds J to every exponent vector, since
the variables fix each other and every automorphism fixes 1 and every
derivation kills it.  Likewise ``c^k`` of a constant is ``Scalar ** k`` and
``(t^J)^k`` is ``t^(kJ)``.  Any other product or power is one
``SkewPoly.__mul__`` or ``__pow__``.  Every ``*``, ``/`` and ``^k`` with
k >= 2 first checks the ring's certificate, shortcut or not.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError, UnknownScalarLiteral, UnknownVariable
from .ore import OreRing, SkewPoly, evaluation_context
from .scalars import Scalar, ScalarDomain

_LITERALS = {"x", "i", "j", "k"}
MAX_EXPONENT = 1000  # largest literal exponent; higher powers are refused
# A name starts with a letter or "_"; the match admits any word character
# but a decimal digit, and ``tokenize`` rejects the rest (such as "²").
_TOKEN = re.compile(r"(?P<space>\s+)|(?P<num>[0-9]+)|(?P<name>[^\W\d]\w*)"
                    r"|(?P<op>[-+*/^()])|(?P<bad>.)", re.DOTALL)


class Token(NamedTuple):
    kind: str  # "num", "name", "op", "end"
    text: str
    line: int
    column: int


def tokenize(src: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0  # line_start: index of the line's first char
    for m in _TOKEN.finditer(src):
        kind, text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "space":
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rindex("\n") + 1
            continue
        if kind == "bad" or (kind == "name" and not text[0].isalpha()
                             and text[0] != "_"):
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
        tokens.append(Token(kind, text, line, col))
    tokens.append(Token("end", "", line, len(src) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, src: str, ring: OreRing):
        self.tokens = tokenize(src)
        self.pos = 0
        self.ring = ring
        self.origin = (0,) * ring.nvars
        self.one = ring.domain.one()

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, *ops) -> Token | None:
        tok = self.current
        if tok.kind == "op" and tok.text in ops:
            return self.advance()
        return None

    def fail(self, message: str):
        tok = self.current
        raise ParseError(message, tok.line, tok.column)

    def parse(self) -> SkewPoly:
        terms = self.expr()
        if self.current.kind != "end":
            self.fail(f"unexpected {self.current.text!r}")
        return SkewPoly(self.ring, terms)

    def expr(self) -> dict:
        terms = self.term()
        while (op := self.accept_op("+", "-")) is not None:
            for e, c in self.term().items():
                if op.text == "-":
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
        while (op := self.accept_op("*", "/")) is not None:
            rhs = self.unary()
            if op.text == "/":
                if rhs.keys() - {self.origin}:
                    raise ParseError("can only divide by a scalar",
                                     op.line, op.column)
                zero = self.ring.domain.zero()
                rhs = {self.origin: rhs.get(self.origin, zero).inv()}
            terms = self.product(terms, rhs)
        return terms

    def product(self, a: dict, b: dict) -> dict:
        ring = self.ring
        ring._require_certificate("multiplication")
        if a.keys() <= {self.origin}:  # a constant or zero: left scaling
            return {e: c * v for c in a.values() for e, v in b.items()}
        if len(b) == 1:
            (right, v), = b.items()
            if v == self.one:  # a unit monomial: exponent shift
                return {tuple(p + q for p, q in zip(e, right)): c
                        for e, c in a.items()}
        return (SkewPoly(ring, a) * SkewPoly(ring, b)).terms

    def unary(self) -> dict:
        if self.accept_op("-") is not None:
            return {e: -c for e, c in self.unary().items()}
        return self.power()

    def power(self) -> dict:
        base = self.atom()
        if self.accept_op("^") is None:
            return base
        tok = self.current
        if tok.kind != "num":
            self.fail("exponent must be a natural number")
        self.advance()
        k = int(tok.text)
        if k > MAX_EXPONENT:
            raise ParseError(f"exponent {k} exceeds {MAX_EXPONENT}",
                             tok.line, tok.column)
        if k < 2:
            return base if k else {self.origin: self.one}
        self.ring._require_certificate("multiplication")
        if base.keys() <= {self.origin}:  # a constant or zero: squaring
            return {e: c ** k for e, c in base.items()}
        if len(base) == 1:
            (e, c), = base.items()
            if c == self.one:  # a unit monomial: exponents times k
                return {tuple(k * p for p in e): c}
        return (SkewPoly(self.ring, base) ** k).terms

    def atom(self) -> dict:
        tok = self.current
        if tok.kind == "num":
            self.advance()
            n = int(tok.text)
            return {self.origin: self.ring.domain.from_int(n)} if n else {}
        if tok.kind == "name":
            self.advance()
            return self.resolve_name(tok)
        if self.accept_op("(") is not None:
            terms = self.expr()
            if self.accept_op(")") is None:
                self.fail("expected ')'")
            return terms
        self.fail("expected a number, name or '('"
                  if tok.kind != "end" else "unexpected end of input")

    def resolve_name(self, tok: Token) -> dict:
        names = self.ring.names
        if tok.text in names:
            i = names.index(tok.text)
            return {tuple(int(t == i) for t in range(len(names))): self.one}
        domain = self.ring.domain
        if domain.name == "Qx" and tok.text == "x":
            return {self.origin: domain.x()}
        if domain.name == "HQ" and tok.text in ("i", "j", "k"):
            return {self.origin: getattr(domain, tok.text)()}
        if tok.text in _LITERALS:
            raise UnknownScalarLiteral(
                f"literal {tok.text!r} is not available over {domain.name}",
                tok.line, tok.column)
        raise UnknownVariable(f"unknown name {tok.text!r}",
                              tok.line, tok.column)


def parse_expr(src: str, ring: OreRing) -> SkewPoly:
    """Parse an expression into its normal form in ``ring``."""
    return _Parser(src, ring).parse()


def parse_scalar(src: str, domain: ScalarDomain) -> Scalar:
    """Parse a scalar-valued expression over a coefficient ring."""
    value = _Parser(src, evaluation_context(domain, ())).parse()
    return value.constant_value()
