"""Error types shared across the package."""


class HopfcommError(Exception):
    """Base class for all package errors."""


# --- scalar arithmetic ---

class DivisionByZero(HopfcommError, ZeroDivisionError):
    pass


class BadPrime(HopfcommError):
    """Prime incompatible with the requested cyclotomic order."""


class DenominatorCollision(HopfcommError):
    """A denominator vanishes mod p; the caller must pick another prime."""


# --- groups and words ---

class NotLatinSquare(HopfcommError):
    pass


class NotAssociative(HopfcommError):
    pass


class ClosureCapExceeded(HopfcommError):
    pass


class WordSyntaxError(HopfcommError):
    """Word DSL parse failure; carries the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EnumerationCapExceeded(HopfcommError):
    pass


class DigitCapExceeded(HopfcommError):
    """A number has more decimal digits than Python's int-to-str limit."""


# --- algebra construction and verification ---

class VerificationFailed(HopfcommError):
    """An exact consistency check failed after all retries."""


class NonIntegerDegree(VerificationFailed):
    """Tr(L_E) is not a perfect integer square: wrong field order, input
    not split semisimple, or E not a central primitive idempotent."""


class NoIntegral(HopfcommError):
    """The two-sided integral is not one-dimensional."""


class DimMismatch(HopfcommError):
    pass


class RouteMismatch(HopfcommError):
    """Two independent computations of the same object disagree."""


class FormulaMismatch(HopfcommError):
    """Independent formulas for the same functional disagree."""


class NotAlmostCocommutative(HopfcommError):
    """The character algebra is not commutative."""


class NotQuasitriangular(HopfcommError):
    pass


class NotFactorizable(HopfcommError):
    pass


class DegenerateForm(HopfcommError):
    pass


class LemmaViolation(HopfcommError):
    """Both sides of a proved biconditional were computed and disagree."""
