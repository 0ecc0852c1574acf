"""Exception hierarchy shared by all skewpoly modules."""


def _quoted(value) -> str:
    """``repr(value)``, cut after 40 characters so an error stays short."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


class SkewError(Exception):
    """Base class for domain errors raised by this package."""


class VariantMismatch(SkewError):
    """Arithmetic attempted between scalars of different coefficient rings."""


class DivisionByZero(SkewError, ZeroDivisionError):
    """Inversion of the zero scalar."""


class UnsupportedRing(SkewError):
    """A map was applied to a scalar outside its domain of definition."""


class RingMismatch(SkewError):
    """Polynomial operation across two different rings."""


class IncompatibleMaps(SkewError):
    """A commuting-variable ring whose compatibility certificate failed."""


class CertificateFailed(SkewError):
    """An automorphic-tuple certificate did not pass."""


class TwistMismatch(SkewError):
    """Evaluation of a polynomial against a tuple with different twists."""


class NotInF(SkewError):
    """A mixing coefficient is not central, fixed and killed by the derivations."""


class ArityMismatch(SkewError):
    """Substitution point length differs from the number of variables."""


class NoWitnessFound(SkewError):
    """Exhaustive scan found no non-vanishing point; signals violated hypotheses."""


class NotARoot(SkewError):
    """An element supplied as a root does not annihilate the polynomial."""


class BoundViolated(SkewError):
    """The conjugacy-class count exceeded the polynomial degree (internal bug)."""


class ZeroPolynomial(SkewError):
    """The zero polynomial where a non-zero one is required."""


class SearchExhausted(SkewError):
    """Defensive: a candidate search ran out (cannot occur for supported rings)."""


class ExhaustedCandidates(SkewError):
    """Defensive: the central fixed stream ran out of verified candidates."""


class NotAWitness(SkewError):
    """A relation still involves eliminated variables after substitution/reduction."""


class ParseError(SkewError):
    """Malformed expression text."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownVariable(ParseError):
    """A name that is neither a ring variable nor a scalar literal."""


class UnknownScalarLiteral(ParseError):
    """A scalar literal not available in the active coefficient ring."""


class ConfigError(SkewError):
    """Malformed ring configuration file."""
