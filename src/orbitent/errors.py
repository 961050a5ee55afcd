"""Exception types shared across the library."""


class OrbitentError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(OrbitentError):
    """Shapes, dims lists, or party counts are inconsistent."""


class ZeroState(OrbitentError):
    """An all-zero tensor (or a vanishing projection) cannot define a state."""


class SymmetryViolation(OrbitentError):
    """A tensor or operation breaks the declared exchange symmetry."""


class NotNormalized(OrbitentError):
    """A vector expected to have unit norm does not."""


class NotBipartite(OrbitentError):
    """Operation defined only for two-party states."""


class EnumerationTooLarge(OrbitentError):
    """A basis enumeration or dense computation exceeds the size guard."""


class NotAWeightVector(OrbitentError):
    """Input fails the simultaneous-eigenvector invariant of the Cartan action."""


class AmbiguousClustering(OrbitentError):
    """A spectral gap sits too close to the clustering tolerance to decide.

    Multiplicity counts are integers and discontinuous in the spectrum, so
    instead of silently picking a side the caller must adjust the tolerance.
    """


class RankUnstable(OrbitentError):
    """A singular value straddles the rank threshold within a factor of ten."""


class Inconsistency(OrbitentError):
    """Closed-form counts and the numerical oracle disagree.

    Carries the structured comparison (including the falsifying state) in
    ``record`` when available.
    """

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record
