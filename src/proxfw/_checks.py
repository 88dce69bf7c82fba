"""Numeric input rules shared by every entry point, and the one way a step
builds its next state without re-checking it."""

import math


def positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def nonnegative(name: str, value) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def unchecked(cls, fields: dict):
    """An instance of the dataclass ``cls`` holding ``fields`` as given.

    Skips ``__post_init__``: only for a state that a step built from values
    its own checked inputs produced. Entry points construct states normally.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj
