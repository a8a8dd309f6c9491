"""Exception types shared across the package.

The CLI maps these onto stable exit codes, so keep the hierarchy flat.
"""

__all__ = [
    "PDSyntaxError",
    "PDValidationError",
    "IllegalMoveError",
    "DiagramTooLargeError",
    "InternalInvariantError",
]


class PDSyntaxError(ValueError):
    """Malformed PD text (tokenizer or grammar level)."""


class PDValidationError(ValueError):
    """Syntactically fine PD code that fails a structural invariant."""


class IllegalMoveError(ValueError):
    """A movie move whose location data does not apply to its frame."""


class DiagramTooLargeError(ValueError):
    """A diagram with more crossings than kj builds a cube of resolutions for."""


class InternalInvariantError(RuntimeError):
    """A machine-checked invariant failed; indicates a construction bug."""
