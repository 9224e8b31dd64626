"""Exception types shared across the package: an ``InputError`` is the caller's,
and the CLI reports it in one line; a ``RuntimeError`` subclass is a numerical
fault, and keeps its traceback."""


class NilwalkError(Exception):
    """Base class for all package-specific errors."""


class InputError(NilwalkError, ValueError):
    """The caller's input is invalid; the message says which and why."""


# -- algebra -----------------------------------------------------------------

class InvalidAlgebra(InputError):
    """Structure constants violate antisymmetry, Jacobi, or the filtration."""


class DimensionMismatch(InputError):
    """Vector length does not match the algebra (or two operands disagree)."""


class UnsupportedStep(InputError):
    """Group products are implemented only for step <= 4."""


class NegativeEps(InputError):
    """Dilation parameters must be nonnegative."""


# -- quotient graph ----------------------------------------------------------

class GraphInvariantViolation(InputError):
    """Base class for voltage-graph validation failures."""


class StochasticityViolation(GraphInvariantViolation):
    """Out-probabilities at some vertex do not form a distribution."""


class InvolutionViolation(GraphInvariantViolation):
    """Edge reversal is not a fixpoint-free involution matching o/t."""


class VoltageInverseViolation(GraphInvariantViolation):
    """A reversed edge does not carry the inverse voltage."""


class NotStronglyConnected(GraphInvariantViolation):
    """The directed edge set is not strongly connected."""


class SingularSystem(NilwalkError, RuntimeError):
    """A linear solve that should be regular (stationarity, harmonicity) failed."""


class SingularSigma(InputError):
    """The quadratic form is singular: first-layer voltages do not span."""


# -- walker ------------------------------------------------------------------

class ScalingDomain(InputError):
    """The step count lies outside the scaling sequence's domain."""


class PinnedLayerMismatch(NilwalkError, RuntimeError):
    """The first layer of a centered endpoint, computed through the group
    product, disagrees with the centered increment sum it is pinned to."""


# -- rate functions ----------------------------------------------------------

class NonIncreasingTimes(InputError):
    """Evaluation times must be strictly increasing in (0, 1]."""


# -- experiments -------------------------------------------------------------

class OracleUnavailable(InputError):
    """Exact enumeration is not applicable to this graph/size."""


class SchemaError(InputError):
    """A JSON document does not match the expected schema.

    Carries a JSON-pointer-style location of the offending field.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")
