"""Exception hierarchy.

Two families matter for the CLI exit codes: ValidationError (bad input,
exit 2) and NumericalError (the computation itself failed, exit 3).
"""


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
