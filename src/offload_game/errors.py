"""Exception types shared across the package."""

__all__ = [
    "OffloadGameError",
    "InstanceTooLarge",
    "BoundInapplicable",
    "SchemaError",
]


class OffloadGameError(Exception):
    """Base class for all package-specific errors."""


class InstanceTooLarge(OffloadGameError):
    """Raised when an exhaustive computation would exceed its safety cap."""


class BoundInapplicable(OffloadGameError):
    """Raised when an analytic bound's preconditions do not hold."""


class SchemaError(OffloadGameError):
    """Raised on malformed documents or invalid parameters; message names the field path."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")
