"""Exception types shared across the package."""


class GradbaError(Exception):
    """Base class for all package errors."""

    stage = "general"


class CheiralityViolation(GradbaError):
    """A point has non-positive depth in the observing camera."""

    stage = "geometry"


class SingularSystem(GradbaError):
    """The (damped) normal equations are not positive definite."""

    stage = "solver"


class Diverged(GradbaError):
    """The optimizer could not make progress."""

    stage = "solver"


class NotAtOptimum(GradbaError):
    """Implicit differentiation requested away from a stationary point."""

    stage = "implicit"


class OutOfBounds(GradbaError):
    """Pixel coordinate outside the sampled grid."""

    stage = "temporal"


class DimensionMismatch(GradbaError):
    """Grids or vectors with incompatible shapes."""

    stage = "temporal"


class TooFewCorrespondences(GradbaError):
    """Not enough point pairs for a minimal solver."""

    stage = "init"


class DegenerateGeometry(GradbaError):
    """Relative-pose geometry is unobservable (near-pure rotation)."""

    stage = "init"


class NoValidTerminal(GradbaError):
    """No candidate frame passed the terminal-selection gates."""

    stage = "init"


class TooFewPoints(GradbaError):
    """Neither PnP nor the motion-prediction fallback is available."""

    stage = "init"


class InitializationFailed(GradbaError):
    """Initialization pipeline failed; carries the failing stage tag."""

    stage = "init"

    def __init__(self, tag, message=""):
        self.tag = tag
        super().__init__(f"{tag}: {message}" if message else tag)


class InfeasibleConfig(GradbaError):
    """Scene generation could not satisfy the visibility constraints."""

    stage = "harness"


class LengthMismatch(GradbaError):
    """Trajectories of different length."""

    stage = "harness"


class TimestampMismatch(GradbaError):
    """Trajectory timestamps do not line up."""

    stage = "harness"


class SceneFormatError(GradbaError):
    """Malformed scene / state / config file or command-line argument."""

    stage = "harness"


class NonUniqueAlignment(GradbaError):
    """A gauge-aligned loss whose similarity alignment is not unique."""

    stage = "implicit"
