"""Exception types shared across the library."""


class HurwitzError(Exception):
    """Base class for all library-specific errors."""


class DegenerateFiber(HurwitzError):
    """The fiber angles are undefined because a required component vanishes."""


class SingularFiber(HurwitzError):
    """The requested base point lies on the singular half-axis of the chosen case."""


class SectionFailed(HurwitzError):
    """The constructed section did not reproduce the requested angles."""


class PolarSingularity(HurwitzError):
    """An Euler-angle operator was evaluated too close to sin(phi3) = 0."""


class SingularAxis(HurwitzError):
    """The closed-form potential diverges on the case's singular half-axis."""


class IllConditionedFrame(HurwitzError):
    """The frame determinant used to convert potentials is below threshold."""


class ConfigInvalid(HurwitzError):
    """A suite configuration value is out of range or malformed."""
