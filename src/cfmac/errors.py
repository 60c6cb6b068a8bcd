"""Exception hierarchy shared across the package."""


class CfmacError(Exception):
    """Base class for all package-specific errors."""


class SizeMismatch(CfmacError):
    """Array shapes disagree with the declared alphabet sizes, or an input
    record is not an object or lacks or mistypes a field."""


class NegativeEntry(CfmacError):
    """A probability entry is negative or not finite."""


class RowNotStochastic(CfmacError):
    """A kernel row or distribution does not sum to one."""


class NonConvergence(CfmacError):
    """An iterative solver exhausted its budget before reaching tolerance."""


class TargetOutOfRange(CfmacError):
    """A probability target lies outside the open interval (0, 1)."""


class DegenerateBothZero(CfmacError):
    """Both variance components are zero; the distribution is a point mass."""


class NotCapacityAchieving(CfmacError):
    """The supplied product distribution does not achieve the sum-capacity."""


class NotAnNType(CfmacError):
    """A distribution is not an n-type (masses are not multiples of 1/n)."""


class ModeMismatch(CfmacError):
    """Facilitator mode does not match the codebook generation mode."""


class DegenerateThresholds(CfmacError):
    """Non-finite decoder thresholds make the union bound meaningless."""

