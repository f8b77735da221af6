"""Exception hierarchy shared by all modules, and the index range check."""


class PolyidentError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PolyidentError):
    """A parameter lies outside the domain of the requested operation."""


class DegenerateParameterError(PolyidentError):
    """Parameters hit a pole of a closed form (zero in a denominator).

    ``factors`` lists human-readable descriptions of the offending
    denominator factors.
    """

    def __init__(self, message: str, factors: list[str] | None = None):
        super().__init__(message)
        self.factors = factors or []


class RelationViolationError(PolyidentError):
    """Variable bindings do not satisfy the quotient-ring relations."""


class IdentityViolationError(PolyidentError):
    """An identity that must hold structurally failed to hold."""


class PrecisionError(PolyidentError):
    """A numeric routine could not reach the requested accuracy."""


class ConfigError(PolyidentError):
    """Malformed configuration or command-line input."""


def check_index(value: int, hi: int, what: str) -> None:
    """Raise DomainError unless 0 <= value <= hi."""
    if not 0 <= value <= hi:
        raise DomainError(f"{what} must lie in 0..{hi}, got {value}")
