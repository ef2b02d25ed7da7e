"""Domain exception types shared across the package, and the finiteness check."""

import math
from dataclasses import fields
from functools import cache
from numbers import Real


def check_finite(instance) -> None:
    """Raise ValueError naming the first numeric dataclass field that is NaN or inf.

    Constructors call it first: a range check such as ``x < 0`` lets NaN through.
    A field that __post_init__ has yet to set is skipped. A field is numeric
    when its value's type is a numbers.Real at the first check of that type.
    An int too large for a float is not finite either.
    """
    for name in _field_names(type(instance)):
        value = getattr(instance, name, None)
        if not _is_real(type(value)):
            continue
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ValueError(f"{name} must be finite, got an int too large for a float") from None
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


@cache
def _is_real(cls: type) -> bool:
    # an isinstance check against the ABC costs more than the rest of a small constructor
    return issubclass(cls, Real)


class EnergyBooksError(RuntimeError):
    """A dispatch whose annual energies do not add up: a bug, never bad input.

    Not a ValueError, so no sweep takes it for one scenario's failure. config
    is the position of the config that failed among those of its batch.
    """

    def __init__(self, message: str, config: int) -> None:
        super().__init__(message, config)  # both, so a forked worker's error unpickles
        self.config = config

    def __str__(self) -> str:
        return self.args[0]


class WorkerError(RuntimeError):
    """A parallel sweep's worker exited without sending its dispatches: it was
    killed (say, out of memory) or could not pickle its outcome; never bad input."""


class StorParityError(ValueError):
    """Base class for all errors raised by storparity."""


class MalformedRowError(StorParityError):
    """A CSV document (profile, country table or results) violates its schema."""


class NonUniformStepError(StorParityError):
    """Profile timestamps are not strictly increasing at a constant step."""


class NegativePowerError(StorParityError):
    """A power value below zero was supplied or parsed."""


class InvalidShapeError(StorParityError):
    """Shape weights are malformed (wrong arity, negative, or not normalized)."""


class IncompatibleProfilesError(StorParityError):
    """Two profiles cannot be aligned onto a common time step."""


class UnalignedProfilesError(StorParityError):
    """An operation requiring aligned profiles received unaligned ones."""


class ZeroProductionError(StorParityError):
    """A ratio over produced energy was requested with zero production."""


class ZeroEnergyError(StorParityError):
    """A levelized cost was requested with no energy in the denominator."""


class ZeroSelfConsumptionError(StorParityError):
    """Levelized cost of use is undefined: no self-consumed energy at all."""


class EmptyAxisError(StorParityError):
    """A scenario grid axis is empty."""


class EmptySelectionError(StorParityError):
    """A statistic was requested over an empty selection of results."""
