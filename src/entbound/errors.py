"""Exception types shared across the package."""


class EntboundError(Exception):
    """Base class for all package errors."""


class InvalidDimsError(EntboundError):
    """Matrix dimensions do not match the declared bipartite split."""


class InvalidStateError(EntboundError):
    """Input violates a Hermiticity/trace/positivity invariant."""


class DomainError(EntboundError):
    """Parameter outside its documented domain."""


class CapacityError(EntboundError):
    """Problem size exceeds the solver's desk-scale cap."""


class NumericError(EntboundError):
    """A numerical routine failed to converge."""


class SolverError(EntboundError):
    """The SDP engine returned a non-optimal status."""


class ConsistencyError(EntboundError):
    """Two independently computed routes disagree beyond tolerance."""
