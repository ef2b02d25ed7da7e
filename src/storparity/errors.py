"""Domain exception types shared across the package, and the finiteness check."""

import math
from dataclasses import fields
from numbers import Real


def check_finite(instance) -> None:
    """Raise ValueError naming the first numeric dataclass field that is NaN or inf.

    Constructors call it first: a range check such as ``x < 0`` lets NaN through.
    A field that __post_init__ has yet to set is skipped.
    """
    for f in fields(instance):
        value = getattr(instance, f.name, None)
        if isinstance(value, Real) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


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
