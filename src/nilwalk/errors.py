"""Exception types shared across the package."""


class NilwalkError(Exception):
    """Base class for all package-specific errors."""


# -- algebra -----------------------------------------------------------------

class InvalidAlgebra(NilwalkError, ValueError):
    """Structure constants violate antisymmetry, Jacobi, or the filtration."""


class DimensionMismatch(NilwalkError, ValueError):
    """Vector length does not match the algebra (or two operands disagree)."""


class UnsupportedStep(NilwalkError, ValueError):
    """Group products are implemented only for step <= 4."""


class NegativeEps(NilwalkError, ValueError):
    """Dilation parameters must be nonnegative."""


# -- quotient graph ----------------------------------------------------------

class GraphInvariantViolation(NilwalkError, ValueError):
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


class SingularSigma(NilwalkError, RuntimeError):
    """The quadratic form is singular: first-layer voltages do not span."""


# -- walker ------------------------------------------------------------------

class ScalingDomain(NilwalkError, ValueError):
    """The step count lies outside the scaling sequence's domain."""


class PinnedLayerMismatch(NilwalkError, RuntimeError):
    """The first layer of a centered endpoint, computed through the group
    product, disagrees with the centered increment sum it is pinned to."""


# -- rate functions ----------------------------------------------------------

class NonIncreasingTimes(NilwalkError, ValueError):
    """Evaluation times must be strictly increasing in (0, 1]."""


# -- experiments -------------------------------------------------------------

class OracleUnavailable(NilwalkError, ValueError):
    """Exact enumeration is not applicable to this graph/size."""


class SchemaError(NilwalkError, ValueError):
    """A JSON document does not match the expected schema.

    Carries a JSON-pointer-style location of the offending field.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")
