"""Datasets: seeded synthetic generators and CSV / LIBSVM loaders.

Synthetic "blobs" places one spherical Gaussian per class, class means
sitting on a scaled simplex with pairwise distance 2, then standardizes
every feature dimension; "spirals" interleaves class arms in the first
two dimensions. Both are fully determined by their seed.

File loaders parse the whole file strictly (malformed rows, bytes that
are not UTF-8, non-finite features, repeated LIBSVM indices, LIBSVM
labels that are not whole numbers and LIBSVM files whose dense matrix
would pass ``MAX_DENSE_ENTRIES`` are reported with their line number)
and remap labels to 0..K-1 in order of first appearance.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from ._checks import checked_seed, nonnegative, one_of, whole_numbers

__all__ = [
    "Dataset",
    "SplitDataset",
    "DatasetFormatError",
    "generate_synthetic",
    "load_dataset",
    "parse_csv_row",
    "parse_libsvm_line",
    "split_dataset",
]

FORMATS = ("csv", "libsvm")
SYNTHETIC = ("blobs", "spirals")
# a LIBSVM file is loaded as a dense float64 matrix; a matrix of more
# entries than this (1 GiB) is refused, not allocated
MAX_DENSE_ENTRIES = 2**27
# LIBSVM entries are scattered into the dense matrix this many rows at a
# time, so the row numbers and numpy's intp copy of the columns stay small
_SCATTER_ROWS = 256


class DatasetFormatError(ValueError):
    """Raised on malformed dataset files; the message names the line."""


class _NonFiniteRow(ValueError):
    """A :class:`Dataset`'s first feature row holding NaN or an infinity."""

    def __init__(self, row: int):
        super().__init__(f"features must be finite, row {row} is not")
        self.row = row


@dataclass
class Dataset:
    """A labeled set: features (n, d) float64, every one finite, labels (n,) int64 >= 0."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = whole_numbers("class labels", self.y)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise ValueError("features and labels disagree in shape")
        negative = np.flatnonzero(self.y < 0)
        if negative.size:
            row = int(negative[0])
            raise ValueError(f"class labels must be nonnegative, row {row} has {self.y[row]}")
        bad = np.flatnonzero(~np.isfinite(self.X).all(axis=1))
        if bad.size:
            raise _NonFiniteRow(int(bad[0]))

    def __len__(self):
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self) else 0


@dataclass
class SplitDataset:
    train: Dataset
    val: Dataset
    test: Dataset

    @property
    def dim(self) -> int:
        return self.train.dim

    @property
    def num_classes(self) -> int:
        return int(max(d.y.max() for d in (self.train, self.val, self.test) if len(d))) + 1


def _cut(X, y, n_train: int, n_val: int) -> SplitDataset:
    """Consecutive train / val / test slices of ``X`` and ``y``."""
    val_end = n_train + n_val
    return SplitDataset(
        train=Dataset(X[:n_train], y[:n_train]),
        val=Dataset(X[n_train:val_end], y[n_train:val_end]),
        test=Dataset(X[val_end:], y[val_end:]),
    )


def _blob_means(d: int, num_classes: int) -> np.ndarray:
    # simplex vertices scaled so every pair of means is distance 2 apart
    means = np.zeros((num_classes, d))
    means[:, :num_classes] = np.sqrt(2.0) * np.eye(num_classes)
    return means


def _standardize(X: np.ndarray) -> np.ndarray:
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (X - mu) / sd


def generate_synthetic(
    kind: str,
    n_train: int,
    n_val: int,
    n_test: int,
    d: int,
    num_classes: int,
    noise: float,
    seed: int,
) -> SplitDataset:
    """Seeded synthetic classification data split into train/val/test.

    The same arguments always produce bit-identical arrays. Splits are
    consecutive slices of one draw, so they are disjoint by construction.
    """
    one_of("synthetic kind", kind, SYNTHETIC)
    sizes = dict(n_train=n_train, n_val=n_val, n_test=n_test, d=d, num_classes=num_classes)
    n_train, n_val, n_test, d, num_classes = (int(whole_numbers(k, v)) for k, v in sizes.items())
    if min(n_train, n_val, n_test) < 0 or n_train == 0:
        raise ValueError("need n_train > 0 and nonnegative split sizes")
    if num_classes < 2:
        raise ValueError("need at least two classes")
    nonnegative("noise", noise)
    n = n_train + n_val + n_test
    rng = np.random.default_rng(checked_seed("seed", seed))
    y = rng.integers(0, num_classes, size=n)
    if kind == "blobs":
        if d < num_classes:
            raise ValueError("blobs needs d >= num_classes for distinct means")
        X = _blob_means(d, num_classes)[y] + noise * rng.standard_normal((n, d))
    else:
        if d < 2:
            raise ValueError("spirals needs d >= 2")
        t = rng.uniform(0.25, 1.0, size=n)
        theta = 3.0 * np.pi * t + 2.0 * np.pi * y / num_classes
        X = np.zeros((n, d))
        X[:, 0] = t * np.cos(theta)
        X[:, 1] = t * np.sin(theta)
        X += noise * rng.standard_normal((n, d))
    return _cut(_standardize(X), y, n_train, n_val)


def _parse_label(text: str) -> int:
    """A class label written as a whole number (``2``, ``+1``, ``2.0``).

    Both file formats read their labels here, so ``1.5``, ``inf`` or
    ``x`` is the same ``bad label '1.5'`` error in either.
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        label = float(text)
        if not label.is_integer():  # 1.5, inf or nan names no class
            raise ValueError
    except ValueError:
        raise ValueError(f"bad label {text!r}") from None
    return int(label)


def parse_csv_row(row: str):
    """One CSV row: feature columns then a label column (see ``_parse_label``)."""
    parts = [p.strip() for p in row.split(",")]
    if len(parts) < 2:
        raise ValueError("need at least one feature column and a label column")
    return np.array([float(p) for p in parts[:-1]]), _parse_label(parts[-1])


def parse_libsvm_line(line: str):
    """One LIBSVM line: ``label idx:value ...`` with 1-based indices.

    Returns ``(pairs, label)`` where pairs is a list of ``(index, value)``
    with 0-based indices. A repeated index, or one outside
    ``[1, MAX_DENSE_ENTRIES]``, is an error.
    """
    parts = line.split()
    if not parts:
        raise ValueError("empty line")
    label = _parse_label(parts[0])
    pairs = []
    for tok in parts[1:]:
        idx, _, val = tok.partition(":")
        if not _:
            raise ValueError(f"bad feature token {tok!r}")
        try:
            i = int(idx)
            v = float(val)
        except ValueError:
            raise ValueError(f"bad feature token {tok!r}") from None
        if not 1 <= i <= MAX_DENSE_ENTRIES:
            raise ValueError(f"feature index {i} must lie in [1, {MAX_DENSE_ENTRIES}]")
        pairs.append((i - 1, v))
    if len({i for i, _ in pairs}) < len(pairs):
        raise ValueError("duplicate feature index")
    return pairs, label


def load_dataset(path, fmt: str = "csv") -> Dataset:
    """Load a whole file; labels remapped to 0..K-1 by first appearance.

    The file is read line by line, and every feature value is stored once,
    in one flat float64 buffer. A CSV matrix is that buffer viewed as
    ``n x width``. A LIBSVM file also keeps each value's column, as int32
    (every index is at most ``MAX_DENSE_ENTRIES`` < 2**31), and where
    each row's entries end; the entries are then scattered into the
    dense matrix a block of rows at a time, so no row-number array of
    the whole file's size is made. A line holding bytes that are not UTF-8
    is reported with its number, like any other malformed line.
    """
    one_of("format", fmt, FORMATS)
    values = array("d")  # every feature value, in file order
    cols, ends = array("i"), array("q", [0])  # LIBSVM: each value's column, each row's end
    raw_labels = []
    linenos = array("q")
    width = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                if not line.isascii():
                    # bytes that are not UTF-8 were read as lone surrogates;
                    # decoding the line's own bytes raises on the first one
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                stripped = line.strip()
                if not stripped:
                    continue
                if fmt == "csv":
                    features, label = parse_csv_row(stripped)
                    if width is None:
                        width = features.shape[0]
                    elif features.shape[0] != width:
                        raise ValueError(
                            f"expected {width} feature columns, got {features.shape[0]}"
                        )
                    values.frombytes(features.tobytes())
                else:
                    pairs, label = parse_libsvm_line(stripped)
                    if pairs:
                        row_cols, row_values = zip(*pairs)
                        cols.extend(row_cols)
                        values.extend(row_values)
                    ends.append(len(cols))
                raw_labels.append(label)
                linenos.append(lineno)
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from None
    if not raw_labels:
        raise DatasetFormatError(f"{path}: no data rows")
    n = len(raw_labels)
    if fmt == "libsvm":
        cols = np.frombuffer(cols, dtype=np.int32)
        ends = np.frombuffer(ends, dtype=np.int64)
        values = np.frombuffer(values, dtype=float)
        d = int(cols.max()) + 1 if cols.size else 0
        if n * d > MAX_DENSE_ENTRIES:
            widest = np.searchsorted(ends, cols.argmax(), side="right") - 1
            raise DatasetFormatError(
                f"{path}: line {linenos[widest]}: feature index {d} makes a dense "
                f"{n} x {d} matrix, past the limit of {MAX_DENSE_ENTRIES} entries"
            )
        X = np.zeros((n, d))
        for start in range(0, n, _SCATTER_ROWS):
            stop = min(start + _SCATTER_ROWS, n)
            lo, hi = ends[start], ends[stop]
            rows = np.repeat(np.arange(start, stop), np.diff(ends[start : stop + 1]))
            X[rows, cols[lo:hi]] = values[lo:hi]
    else:
        X = np.frombuffer(values, dtype=float).reshape(n, width)
    remap: dict[int, int] = {}
    for lab in raw_labels:
        if lab not in remap:
            remap[lab] = len(remap)
    y = np.array([remap[lab] for lab in raw_labels])
    try:  # the Dataset's one finite scan names the row; the line is the file's
        return Dataset(X, y)
    except _NonFiniteRow as exc:
        line = linenos[exc.row]
        raise DatasetFormatError(f"{path}: line {line}: non-finite feature value") from None


def split_dataset(data: Dataset, val_fraction: float, test_fraction: float, seed: int) -> SplitDataset:
    """Shuffle once with a seeded generator and cut train/val/test."""
    if not 0 <= val_fraction < 1 or not 0 <= test_fraction < 1:
        raise ValueError("fractions must lie in [0, 1)")
    if val_fraction + test_fraction >= 1:
        raise ValueError("val and test fractions leave no training data")
    n = len(data)
    order = np.random.default_rng([checked_seed("seed", seed), 11]).permutation(n)
    n_val = int(n * val_fraction)
    n_test = int(n * test_fraction)
    return _cut(data.X[order], data.y[order], n - n_val - n_test, n_val)
