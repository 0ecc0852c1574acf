"""Expression parser producing normal-form polynomials.

Grammar (whitespace insignificant, ``^`` takes a natural number of at most
``MAX_EXPONENT``)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' NAT)?
    atom   := NAT | NAME | '(' expr ')'

Names resolve to ring variables first, then to the active ring's scalar
literals (``x`` over Q(x); ``i``, ``j``, ``k`` over the quaternions).
Division requires a scalar-valued divisor, which is how rational literals
like ``1/2`` and entered denominators like ``(x+1)/(x^2)`` are formed.
Right-side coefficients are commuted into left position by the ring
arithmetic itself, so the result is always the canonical expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, UnknownScalarLiteral, UnknownVariable
from .ore import OreRing, SkewPoly, evaluation_context
from .scalars import Scalar, ScalarDomain

_LITERALS = {"x", "i", "j", "k"}
MAX_EXPONENT = 1000  # largest literal exponent; higher powers are refused


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "num", "name", "op", "end"
    text: str
    line: int
    column: int


def tokenize(src: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        ch = src[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            col += 1
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < len(src) and src[pos].isdigit():
                pos += 1
            tokens.append(Token("num", src[start:pos], line, col))
            col += pos - start
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < len(src) and (src[pos].isalnum() or src[pos] == "_"):
                pos += 1
            tokens.append(Token("name", src[start:pos], line, col))
            col += pos - start
            continue
        if ch in "+-*/^()":
            tokens.append(Token("op", ch, line, col))
            col += 1
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, src: str, ring: OreRing):
        self.tokens = tokenize(src)
        self.pos = 0
        self.ring = ring

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
        value = self.expr()
        if self.current.kind != "end":
            self.fail(f"unexpected {self.current.text!r}")
        return value

    def expr(self) -> SkewPoly:
        value = self.term()
        while (op := self.accept_op("+", "-")) is not None:
            rhs = self.term()
            value = value + rhs if op.text == "+" else value - rhs
        return value

    def term(self) -> SkewPoly:
        value = self.unary()
        while (op := self.accept_op("*", "/")) is not None:
            rhs = self.unary()
            if op.text == "*":
                value = value * rhs
            else:
                if rhs.total_degree() > 0:
                    raise ParseError("can only divide by a scalar",
                                     op.line, op.column)
                value = value * self.ring.constant(rhs.constant_value().inv())
        return value

    def unary(self) -> SkewPoly:
        if self.accept_op("-") is not None:
            return -self.unary()
        return self.power()

    def power(self) -> SkewPoly:
        base = self.atom()
        if self.accept_op("^") is not None:
            tok = self.current
            if tok.kind != "num":
                self.fail("exponent must be a natural number")
            self.advance()
            k = int(tok.text)
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent {k} exceeds {MAX_EXPONENT}",
                                 tok.line, tok.column)
            return base ** k
        return base

    def atom(self) -> SkewPoly:
        tok = self.current
        if tok.kind == "num":
            self.advance()
            return self.ring.constant(self.ring.domain.from_int(int(tok.text)))
        if tok.kind == "name":
            self.advance()
            return self.resolve_name(tok)
        if self.accept_op("(") is not None:
            value = self.expr()
            if self.accept_op(")") is None:
                self.fail("expected ')'")
            return value
        self.fail("expected a number, name or '('"
                  if tok.kind != "end" else "unexpected end of input")

    def resolve_name(self, tok: Token) -> SkewPoly:
        ring = self.ring
        if tok.text in ring.names:
            return ring.variable_named(tok.text)
        domain = ring.domain
        if domain.name == "Qx" and tok.text == "x":
            return ring.constant(domain.x())
        if domain.name == "HQ" and tok.text in ("i", "j", "k"):
            return ring.constant(getattr(domain, tok.text)())
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
