"""Numeric input rules shared by every entry point."""

import math

import numpy as np


def positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def nonnegative(name: str, value) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def one_of(name: str, value, choices) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def checked_seed(name: str, value) -> int:
    """``value`` as a seed for numpy's generators: a nonnegative int of any
    size, a whole float read as its int; anything else is an error naming
    ``name``."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a nonnegative whole number, got {value!r}")
    return int(value)


def whole_numbers(name: str, values) -> np.ndarray:
    """``values`` as an int array. A value that is not a whole number (a string
    included) is an error naming ``name``; integer arrays pass unchecked."""
    y = np.asarray(values)
    if y.dtype.kind not in "biu":
        what = "a whole number" if y.ndim == 0 else "whole numbers"
        if y.dtype.kind in "US":
            raise ValueError(f"{name} must be {what}, got {values!r}")
        y = y.astype(float)
        bad = y[~(np.isfinite(y) & (y == np.trunc(y)))]
        if bad.size:
            raise ValueError(f"{name} must be {what}, got {float(bad[0])!r}")
    return y.astype(int, copy=False)
