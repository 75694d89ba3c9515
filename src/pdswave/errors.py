"""Exception types raised across the package."""


class PdsError(Exception):
    """Base class for all pdswave errors."""


# quaternion / group
class NonUnitQuaternion(PdsError):
    pass


class GenerationDiverged(PdsError):
    pass


class OrbitCountMismatch(PdsError):
    pass


# fundamental domain
class OutsideUnitBall(PdsError):
    pass


class AntipodalEndpoints(PdsError):
    pass


class NotInDomain(PdsError):
    pass


# meshing
class OffPlane(PdsError):
    pass


class InvalidSubdivision(PdsError, ValueError):
    """Edge subdivision count below 1."""


class SnapFailure(PdsError):
    pass


class DegenerateTet(PdsError):
    pass


class ParseError(PdsError):
    pass


class PeriodicityViolation(PdsError):
    pass


class InvalidMesh(PdsError):
    """A mesh whose validation report fails a check that decides its use."""


# assembly
class ClassSizeError(PdsError):
    pass


class WeightSingularity(PdsError):
    pass


# time integration
class UnstableTimeStep(PdsError, ValueError):
    """dt beyond the 0.95 * dt_max stability margin."""


class NoConvergence(PdsError):
    pass


class EnergyBlowup(PdsError):
    pass


# spectral analysis
class TooShort(PdsError):
    pass
