"""Numeric input rules shared by every entry point."""

import math

import numpy as np


def positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def nonnegative(name: str, value) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def whole_numbers(name: str, values) -> np.ndarray:
    """``values`` as an int array. A value that is not a whole number is an
    error naming ``name``, not truncated; integer arrays pass unchecked."""
    y = np.asarray(values)
    if y.dtype.kind not in "biu":
        y = y.astype(float)
        bad = y[~(np.isfinite(y) & (y == np.trunc(y)))]
        if bad.size:
            what = "a whole number" if y.ndim == 0 else "whole numbers"
            raise ValueError(f"{name} must be {what}, got {float(bad[0])!r}")
    return y.astype(int, copy=False)
