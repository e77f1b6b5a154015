"""Exception hierarchy for the cdent library.

The CLI maps these onto exit codes: state-file problems exit 2, numerical
precondition/domain failures exit 3.
"""


class CDEntError(Exception):
    """Base class for all cdent errors."""


class StructureError(CDEntError):
    """A state or component violates a structural invariant (dimension
    mismatch, bad index, malformed container)."""


class DegenerateStateError(CDEntError):
    """Operation undefined on this state (zero norm, coincident modes)."""


class PreconditionError(CDEntError):
    """A numerical precondition failed (e.g. input state not normalized)."""


class DomainError(CDEntError):
    """A parameter is outside the mathematical domain of the operation."""


class UnsupportedError(CDEntError):
    """Valid input, but outside what this implementation supports
    (representation not closed under the requested transformation,
    non-polynomial trace functions)."""
