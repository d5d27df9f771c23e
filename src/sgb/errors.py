"""Exception hierarchy shared by all sgb modules."""


class SgbError(Exception):
    """Base class for all domain errors raised by this package."""


class BadModulus(SgbError):
    """Field characteristic is not a prime in the supported range."""


class ZeroInverse(SgbError):
    """Multiplicative inverse of zero requested."""


class DimensionMismatch(SgbError):
    """Operands live in polynomial rings with different variable counts."""


class ZeroPolynomial(SgbError):
    """Operation requires a nonzero polynomial."""


class NotLinear(SgbError):
    """A linear form was expected."""


class ZeroForm(SgbError):
    """A linear form with at least one nonzero coefficient was expected."""


class InvalidDegree(SgbError):
    """A degree parameter is out of range (for example, below one)."""


class CapExhausted(SgbError):
    """Every series coefficient up to the truncation cap is positive."""


class UndefinedBound(SgbError):
    """The requested degree bound is not defined for these parameters."""


class OmegaOutOfRange(SgbError):
    """Matrix-multiplication exponent must satisfy 2 <= omega < 3."""


class UnitIdeal(SgbError):
    """The ideal contains a nonzero constant."""


class NotHomogeneous(SgbError):
    """A homogeneous polynomial system was expected."""


class DegreeTooSmall(SgbError):
    """Degree parameter is below the minimum admitted by the operation."""


class EmptyBasis(SgbError):
    """A nonempty basis was expected."""


class SearchExhausted(SgbError):
    """No admissible linear form found within the attempt budget."""


class BudgetExhausted(SgbError):
    """A deterministic work budget ran out before the computation finished."""


class MatrixTooLarge(SgbError):
    """A Macaulay matrix would exceed the engine's size limit."""


class DegreeTooLarge(SgbError):
    """A monomial's degree does not fit the engine's packed exponents."""


class InvariantViolation(SgbError):
    """An internal consistency check failed; the computed result is wrong."""


class DimensionTooHigh(SgbError):
    """Quotient ring has Krull dimension two or more."""


class ParseError(SgbError):
    """Malformed input text.

    Carries 1-based ``line`` and ``column`` of the offending character.
    """

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownVariable(SgbError):
    """Polynomial text references a variable that was not declared."""
