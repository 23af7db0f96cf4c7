"""Exception hierarchy, and the whole-number check that input fields share.

Two families matter for the CLI exit codes: ValidationError (bad input,
exit 2) and NumericalError (the computation itself failed, exit 3).
"""

import numbers


class CrSpectraError(Exception):
    pass


class ValidationError(CrSpectraError):
    """User input is malformed or violates a documented precondition."""


class NumericalError(CrSpectraError):
    """A numerically detected failure (degeneracy, divergence, ...)."""


# --- expression / job validation ---------------------------------------

class ExpressionSyntaxError(ValidationError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownIdentifier(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class UnboundParameter(ValidationError):
    pass


class JobValidationError(ValidationError):
    pass


def whole_number(value, name, minimum, maximum=None):
    """value as an int in [minimum, maximum]; an integral float counts,
    bools, fractions and anything else are a JobValidationError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum
            or (maximum is not None and value > maximum)):
        within = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise JobValidationError(f"{name} must be an integer {within}, got {value!r}")
    return int(value)


class InvalidDecomposition(ValidationError):
    pass


class NotOnSphereImage(ValidationError):
    pass


class NotApplicable(ValidationError):
    pass


class NotRealValued(ValidationError):
    pass


class JetOrderError(ValidationError):
    pass


# --- numerical failures -------------------------------------------------

class DivisionByZeroJet(NumericalError):
    pass


class LogOfNonpositive(NumericalError):
    pass


class NotOnSurface(NumericalError):
    pass


class DegenerateJ(NumericalError):
    pass


class NotStrictlyPseudoconvex(NumericalError):
    pass


class InternalConsistencyError(NumericalError):
    """The frame's inverse misses its rounding bound: a program defect."""


class NoRootFound(NumericalError):
    pass


class DegenerateFrame(NumericalError):
    pass


class NegativeTransverseCurvature(NumericalError):
    pass


class IllConditionedGram(NumericalError):
    pass


class CholeskyFailure(NumericalError):
    pass


class NoPositiveEigenvalue(NumericalError):
    pass
