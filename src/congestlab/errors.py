"""Exception types and the JSON integer and number rules shared across the
package."""


class CongestLabError(Exception):
    """Base class for all package errors."""


class SameLayerPair(CongestLabError):
    """A pair query involved two vertices of the same layer."""


class OutOfRange(CongestLabError):
    """A vertex index or a pair type outside its range."""


class InfeasibleParams(CongestLabError):
    """A parameter schedule cannot support the requested sampling step."""


class EmptyOrRareSupport(CongestLabError):
    """A conditional sampler found no consistent completion within its cap."""

    def __init__(self, msg, pair=None):
        super().__init__(msg)
        self.pair = pair


class SupportTooLarge(CongestLabError):
    """An exact enumeration would exceed the configured outcome cap."""


class CapExceeded(CongestLabError):
    """A brute-force search space exceeds the configured cap."""


class BandwidthViolation(CongestLabError):
    """A protocol emitted a message longer than its bandwidth."""


class ChannelViolation(CongestLabError):
    """A protocol addressed a pair with no channel available this round."""


class RegimeMismatch(CongestLabError):
    """Protocol round count does not match the graph's round regime."""


class InvalidDistribution(CongestLabError):
    """Probabilities are negative or do not sum to one."""


class InvalidCoordinate(CongestLabError):
    """A joint-table coordinate name does not exist."""


class PremiseViolated(CongestLabError):
    """A generated test table fails its declared independence premise."""


def json_int(x, what: str) -> int:
    """``x`` if it is a JSON integer; a float or a bool is a ValueError."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def json_list(x, what: str) -> list:
    """``x`` if it is a JSON array; an object, a string or a number is a
    ValueError (a string or an object would be iterated item by item)."""
    if type(x) is not list:
        raise ValueError(f"{what} must be a list, got {x!r}")
    return x


def json_number(x, what: str) -> float:
    """``x`` as a float if it is a JSON number; a bool or a string is a
    ValueError."""
    if type(x) not in (int, float):
        raise ValueError(f"{what} must be a number, got {x!r}")
    return float(x)
