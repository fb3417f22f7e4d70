"""Error taxonomy shared across the toolkit."""


class NormrecError(Exception):
    """Base class for all toolkit errors."""


class NonMonic(NormrecError):
    pass


class ReducibleMinPoly(NormrecError):
    def __init__(self, factor):
        self.factor = factor
        super().__init__(f"minimal polynomial is reducible, factor: {factor}")


class DivisionByZero(NormrecError):
    pass


class NotSquarefree(NormrecError):
    pass


class NotAUnit(NormrecError):
    pass


class DecompositionFailed(NormrecError):
    pass


class NoNonsingularSelection(NormrecError):
    pass


class DegreeCapExceeded(NormrecError):
    pass


class ShapeMismatch(NormrecError):
    pass


class NonSimpleUnsupported(NormrecError):
    pass


class NonIntegerBase(NormrecError):
    pass


class DimensionCapExceeded(NormrecError):
    pass


class InvariantViolated(NormrecError):
    """An identity that exact algebra guarantees failed to hold."""
