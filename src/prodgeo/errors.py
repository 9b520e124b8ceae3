"""Exception and warning types shared across the package."""


class GeometryError(ValueError):
    """Base class for all domain errors raised by this package."""


class BadDimension(GeometryError):
    """Frame dimension is not an even integer >= 4."""


class ShapeMismatch(GeometryError):
    """Component arrays disagree with the declared dimension/rank."""


class NotSymmetric(GeometryError):
    """A matrix required to be symmetric is not."""


class NotPositiveDefinite(GeometryError):
    """A metric candidate fails positive definiteness."""


class SingularMetric(GeometryError):
    """A metric has no usable inverse."""


class DimensionMismatch(GeometryError):
    """Vector or form components do not match the frame dimension."""


class DegeneratePlane(GeometryError):
    """Sectional curvature requested for a (nearly) degenerate 2-plane."""


class NotClosed(GeometryError):
    """A 1-form required to be closed does not annihilate the derived subalgebra.

    ``basis`` holds the rows of an orthonormal basis of the closed forms.
    """

    def __init__(self, message: str, basis):
        super().__init__(message)
        self.basis = basis


class NonSymmetricInputWarning(UserWarning):
    """A 2-tensor expected to be symmetric is not; the operator still evaluates."""
