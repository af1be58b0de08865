"""Exception types shared across the mapping stack."""


class GridMapError(Exception):
    """Base class for all library errors."""


class NegativeMassError(GridMapError):
    """A belief mass was negative."""


class MassOverflowError(GridMapError):
    """Singleton masses sum to more than one."""


class UnknownHypothesisError(GridMapError):
    """A hypothesis label is not part of the frame."""


class FrameMismatchError(GridMapError):
    """Two assignments over different frames cannot be combined."""


class TotalConflictError(GridMapError):
    """Dempster combination is undefined: the conflict mass is (near) one."""

    def __init__(self, conflict: float):
        super().__init__(f"total conflict, K={conflict!r}")
        self.conflict = conflict


class CellOutOfBoundsError(GridMapError):
    """Cell index outside the layer lattice."""


class PointOutsidePatchError(GridMapError):
    """A point does not lie within the patch square it was resolved against."""


class ResolutionConflictError(GridMapError):
    """A layer of the requested type exists with a different resolution step.

    Resampling changes cell semantics and must be requested explicitly.
    """


class UnsupportedTypeError(GridMapError):
    """No merge/split operators are registered for this information type."""


class DatumMismatchError(GridMapError):
    """Grid maps with different reference datums cannot be fused."""


class EdgeMismatchError(GridMapError):
    """Grid maps with different patch edge lengths cannot be fused."""


class NonFiniteInputError(GridMapError, ValueError):
    """A sensor input holds a NaN or an infinite coordinate or value."""


class InputShapeError(GridMapError, ValueError):
    """A sensor input's arrays have the wrong shape or do not align."""


class InvariantError(GridMapError):
    """A grid map breaks a mass or structure invariant (``GridMap.check``)."""


class SnapshotError(GridMapError, ValueError):
    """A grid snapshot is truncated, has trailing bytes or is malformed."""


class ConfigError(GridMapError, ValueError):
    """Configuration is invalid; ``problems`` lists every diagnostic found."""

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


def require(*checks: tuple[bool, str]) -> None:
    """Raise one :class:`ConfigError` naming every ``(ok, message)`` check
    that failed; config parts call it from ``__post_init__``."""
    problems = [message for ok, message in checks if not ok]
    if problems:
        raise ConfigError(*problems)
