"""Exception types raised by the library."""


class HermiticityError(ValueError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class SubspaceIsolationError(ValueError):
    """A band set is not gapped from its complement somewhere on the sphere."""


class MeshResolutionError(ValueError):
    """A discretized quantity failed its quantization check; refine the mesh."""


class TrackingError(ValueError):
    """Level labels could not be continued through the requested grid."""


class AdiabaticityError(RuntimeError):
    """Propagation leaked out of the followed instantaneous eigenstate."""


class NormDriftError(RuntimeError):
    """The propagated state lost its norm beyond tolerance."""
