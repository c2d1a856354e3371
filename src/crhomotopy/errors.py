"""Exception types shared across the package."""


class CRHomotopyError(Exception):
    """Base class for all package errors."""


class ModelValidationError(CRHomotopyError):
    """Model data violates a structural requirement (dimensions, Hermitian-ness,
    finite entries)."""


class ModelParseError(CRHomotopyError):
    """Model file could not be parsed; message names the offending line."""


class ThetaUndefinedError(CRHomotopyError):
    """Normal direction field requested at a point on the manifold itself."""


class SingularityError(CRHomotopyError):
    """Section evaluated at its singular point (coincident arguments)."""


class NearSingularPhaseError(CRHomotopyError):
    """Barrier phase too close to zero for a stable kernel evaluation."""


class OutsideTubeError(CRHomotopyError):
    """Requested level-set radius exceeds the chart tube."""


class GridTooCoarseError(CRHomotopyError):
    """Too many quadrature nodes rejected near the phase singularity."""


class DerivativeOrderError(CRHomotopyError):
    """Field derivatives of the requested order are not available."""


class TableGapError(CRHomotopyError):
    """Integral classification parameters fall outside every table row."""


class RealizationInfeasibleError(CRHomotopyError):
    """Kernel term cannot be realized on the given model's dimensions."""


class FrameGapError(CRHomotopyError):
    """Kept/dropped eigenvalue gap of the correction frame closes where the
    frame's direction derivative is needed."""
