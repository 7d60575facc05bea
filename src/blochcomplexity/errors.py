"""Exception types raised across the package."""


class BlochComplexityError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGeometry(BlochComplexityError):
    """Source and target Bloch vectors are parallel or antiparallel, so the
    rotation-axis construction (cross product / bisector) is undefined;
    raised when the `EvolutionProblem` is constructed."""


class NonPositiveVolume(BlochComplexityError):
    """Accessed or accessible volume is not strictly positive."""


class ParallelField(BlochComplexityError):
    """Field is exactly parallel to the Bloch vector; the curvature
    coefficient denominator vanishes."""


class NormDrift(BlochComplexityError):
    """Reference integrator lost normalization beyond the allowed drift."""


class QuadratureNotConverged(BlochComplexityError):
    """A panel of the accessed-volume quadrature still missed its error
    tolerance after the maximum number of bisections; the run is rejected
    rather than silently accepted."""


class AveragingDomainError(BlochComplexityError):
    """The averaging mode gives an accessed volume above the accessible one,
    so V_bar <= V_max fails and the complexity is undefined; the piecewise
    mode does this on some general (off-canonical) evolutions."""
