"""Exception types shared across the package, and the type checks of
config values that raise them."""


def is_int(value) -> bool:
    """Whether ``value`` is an integer, not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is an integer or a float, not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ArrivalSimError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(ArrivalSimError, ValueError):
    """A distribution or model parameter violates its constraints."""


class DomainError(ArrivalSimError, ValueError):
    """An evaluation point lies outside the function's domain."""


class TailExhaustedError(ArrivalSimError, RuntimeError):
    """Truncation point sits so far in the tail that cdf(y) ~ 1."""


class SchemaError(ArrivalSimError, ValueError):
    """An input file does not match the expected column schema."""


class RowError(ArrivalSimError, ValueError):
    """A data row failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InsufficientDataError(ArrivalSimError, ValueError):
    """Too few observations to attempt a fit."""


class DegenerateSeriesError(ArrivalSimError, ValueError):
    """A loss-differential series has zero variance; models indistinguishable."""
