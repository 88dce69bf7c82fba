import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from proxfw import data as data_module
from proxfw.data import (
    MAX_DENSE_ENTRIES,
    Dataset,
    DatasetFormatError,
    generate_synthetic,
    load_dataset,
    parse_csv_row,
    parse_libsvm_line,
    split_dataset,
)
from proxfw.models import ModelSpec, batch_arrays, init_params
from proxfw.optimizers import DFWState, dfw_step


def test_parse_csv_row_worked_example():
    features, label = parse_csv_row("1.0,2.0,0")
    assert np.array_equal(features, [1.0, 2.0])
    assert label == 0


def test_parse_libsvm_line_worked_example():
    pairs, label = parse_libsvm_line("2 1:0.5 3:1.5")
    assert pairs == [(0, 0.5), (2, 1.5)]
    assert label == 2


def test_load_csv_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,0\n3.0,4.0,1\n\n5.0,6.0,0\n")
    data = load_dataset(p, "csv")
    assert data.X.shape == (3, 2)
    assert np.array_equal(data.X[1], [3.0, 4.0])
    assert np.array_equal(data.y, [0, 1, 0])


def test_load_libsvm_file_densifies(tmp_path):
    p = tmp_path / "d.svm"
    p.write_text("2 1:0.5 3:1.5\n7 2:1.0\n")
    data = load_dataset(p, "libsvm")
    assert np.array_equal(data.X, [[0.5, 0.0, 1.5], [0.0, 1.0, 0.0]])
    # labels 2 and 7 remap by first appearance
    assert np.array_equal(data.y, [0, 1])


def test_labels_remap_in_first_appearance_order(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,5\n0,3\n0,5\n0,9\n0,3\n")
    data = load_dataset(p, "csv")
    assert np.array_equal(data.y, [0, 1, 0, 2, 1])
    assert data.num_classes == 3


def test_malformed_rows_name_the_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(p, "csv")
    p.write_text("1.0,2.0,0\n1.0,1\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(p, "csv")
    q = tmp_path / "d.svm"
    q.write_text("1 1:0.5\n1 borked\n")
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(q, "libsvm")
    q.write_text("1 0:0.5\n")
    with pytest.raises(DatasetFormatError, match="line 1"):
        load_dataset(q, "libsvm")


@pytest.mark.parametrize(
    "fmt, bad_line, reason",
    [
        ("csv", "1.0,nan,1", "non-finite feature value"),
        ("csv", "-inf,2.0,1", "non-finite feature value"),
        ("libsvm", "1 2:inf", "non-finite feature value"),
        ("libsvm", "0 1:1.0 1:2.0", "duplicate feature index"),
        ("libsvm", "1e400 1:2.0", "bad label '1e400'"),
        ("libsvm", "1.5 1:2.0", "bad label '1.5'"),
        ("csv", "1.0,2.0,1.5", "bad label '1.5'"),
        ("csv", "1.0,2.0,2.0", None),
        ("libsvm", "2.0 1:2.0", None),
    ],
    ids=["csv-nan", "csv-inf", "libsvm-inf", "libsvm-duplicate", "libsvm-infinite-label",
         "libsvm-fractional-label", "csv-fractional-label", "csv-whole-float-label",
         "libsvm-whole-float-label"],
)
def test_bad_values_name_the_line(tmp_path, fmt, bad_line, reason):
    # the blank line checks that line numbers count every line of the file;
    # a case without a reason is a line both formats accept
    good = "1.0,2.0,0" if fmt == "csv" else "0 1:1.0 2:2.0"
    p = tmp_path / "d.txt"
    p.write_text(f"{good}\n\n{bad_line}\n{good}\n")
    if reason is None:
        assert np.array_equal(load_dataset(p, fmt).y, [0, 1, 0])
        return
    with pytest.raises(DatasetFormatError, match=f"line 3: {reason}"):
        load_dataset(p, fmt)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("0 1:1.0\n1 9223372036854775808:2.0\n", "line 2: feature index 9223372036854775808 must lie in"),
        ("0 1:1.0\n1 1000000000000:2.0\n", "line 2: feature index 1000000000000 must lie in"),
        (f"0 {MAX_DENSE_ENTRIES}:1.0\n1 1:2.0\n", f"line 1: feature index {MAX_DENSE_ENTRIES} makes a dense 2 x"),
        (f"0 1:1.0\n1 {MAX_DENSE_ENTRIES}:2.0\n", f"line 2: feature index {MAX_DENSE_ENTRIES} makes a dense 2 x"),
    ],
    ids=["past-int64", "index-1e12", "dense-size-line-1", "dense-size-line-2"],
)
def test_libsvm_indices_past_the_dense_limit_name_their_line(tmp_path, text, reason):
    # refused before any matrix is allocated; the dense-size message names
    # the line that holds the largest index, not the last line read
    p = tmp_path / "d.svm"
    p.write_text(text)
    with pytest.raises(DatasetFormatError, match=reason):
        load_dataset(p, "libsvm")


def test_libsvm_dense_limit_admits_a_matrix_of_exactly_that_size(tmp_path, monkeypatch):
    monkeypatch.setattr(data_module, "MAX_DENSE_ENTRIES", 6)
    p = tmp_path / "d.svm"
    p.write_text("0 3:1.0\n1 1:2.0\n")
    assert load_dataset(p, "libsvm").X.shape == (2, 3)
    p.write_text("0 4:1.0\n1 1:2.0\n")
    with pytest.raises(DatasetFormatError, match="line 1: feature index 4 makes a dense 2 x 4 matrix, past the limit of 6"):
        load_dataset(p, "libsvm")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_csv_and_libsvm_files_round_trip_bitwise(tmp_path_factory, data):
    # features written with repr load back bit for bit, -0.0 included;
    # LIBSVM rows omit their +0.0 entries and list the rest shuffled, so
    # the loaded width ends at the last column any row names
    n = data.draw(st.integers(1, 6), label="rows")
    d = data.draw(st.integers(1, 5), label="columns")
    finite = st.floats(allow_nan=False, allow_infinity=False)
    X = data.draw(arrays(np.float64, (n, d), elements=finite | st.sampled_from([0.0, -0.0])))
    raw = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n), label="labels")
    blanks = data.draw(st.lists(st.sampled_from(["", " ", "\t "]), min_size=n + 1, max_size=n + 1))
    remap = {}
    y = [remap.setdefault(lab, len(remap)) for lab in raw]
    kept = (X != 0.0) | np.signbit(X)
    written = [[(j, float(X[i, j])) for j in np.flatnonzero(kept[i])] for i in range(n)]
    lines = {
        "csv": [",".join([repr(float(v)) for v in X[i]] + [str(raw[i])]) for i in range(n)],
        "libsvm": [
            " ".join([str(raw[i])] + [f"{j + 1}:{v!r}" for j, v in data.draw(st.permutations(written[i]))])
            for i in range(n)
        ],
    }
    width = max((j for row in written for j, _ in row), default=-1) + 1
    expect = {"csv": X, "libsvm": np.ascontiguousarray(X[:, :width])}
    root = tmp_path_factory.mktemp("round_trip")
    for fmt, rows in lines.items():
        path = root / f"d.{fmt}"
        text = "".join(f"{blank}\n{row}\n" for blank, row in zip(blanks, rows)) + blanks[-1]
        path.write_text(text)
        loaded = load_dataset(path, fmt)
        assert loaded.X.shape == expect[fmt].shape
        assert loaded.X.tobytes() == expect[fmt].tobytes()
        assert loaded.y.tolist() == y


def _traced_load(X, path, fmt):
    # writes X as a file of the format, loads it under tracemalloc and
    # returns the peak of the load in bytes
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(X.tolist()):
            if fmt == "libsvm":
                fh.write(f"{i % 4} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row)) + "\n")
            else:
                fh.write(",".join(repr(v) for v in row) + f",{i % 4}\n")
    tracemalloc.start()
    try:
        data = load_dataset(path, fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.X.tobytes() == X.tobytes()
    return peak


def test_libsvm_load_peaks_at_a_few_copies_of_the_matrix(tmp_path):
    # the flat values, their int32 columns and X peak at about 2.9 times
    # X's bytes on a dense 2000 x 32 file; int64 columns with a row number
    # per entry peaked at 4.4 times, and a list of (index, value) tuples
    # per row at 15.4 times
    X = np.random.default_rng(31).normal(size=(2000, 32))
    assert _traced_load(X, tmp_path / "dense.svm", "libsvm") <= 3.5 * X.nbytes
    # int32 columns hold every index the loader accepts
    assert MAX_DENSE_ENTRIES < 2**31


def test_csv_load_peaks_at_little_more_than_the_matrix(tmp_path):
    # X is a view of the one flat buffer the values were read into: about
    # 1.25 times X's bytes on the same data; a row array per line stacked
    # into X at the end peaked at 3.3 times
    X = np.random.default_rng(31).normal(size=(2000, 32))
    assert _traced_load(X, tmp_path / "dense.csv", "csv") <= 2 * X.nbytes


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize(
    "fmt, good, bad",
    [("csv", b"1.0,2.0,0", b"1.0,\xff2.0,1"), ("libsvm", b"0 1:1.0 2:2.0", b"1 1:\xff2.0")],
    ids=["csv", "libsvm"],
)
def test_bytes_that_are_not_utf8_name_the_file_and_the_line(tmp_path, fmt, good, bad, newline):
    p = tmp_path / "d.txt"
    p.write_bytes(newline.join([good, b"", bad, good]) + newline)
    reason = "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(f'{p}: line 3: {reason}')}$"):
        load_dataset(p, fmt)
    # a line of valid UTF-8 that is not ASCII is parsed like any other
    p.write_bytes(newline.join([good, "1.0,2.0,\u00e9".encode(), good]) + newline)
    with pytest.raises(DatasetFormatError, match="line 2: bad label"):
        load_dataset(p, fmt)


def test_empty_file_rejected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("\n\n")
    with pytest.raises(DatasetFormatError, match="no data rows"):
        load_dataset(p, "csv")


def test_bad_format_name_rejected(tmp_path):
    with pytest.raises(ValueError):
        load_dataset(tmp_path / "d.csv", "tsv")


def test_blobs_same_seed_is_bit_identical():
    a = generate_synthetic("blobs", 50, 20, 20, d=5, num_classes=3, noise=1.0, seed=42)
    b = generate_synthetic("blobs", 50, 20, 20, d=5, num_classes=3, noise=1.0, seed=42)
    assert np.array_equal(a.train.X, b.train.X)
    assert np.array_equal(a.val.X, b.val.X)
    assert np.array_equal(a.test.y, b.test.y)
    c = generate_synthetic("blobs", 50, 20, 20, d=5, num_classes=3, noise=1.0, seed=43)
    assert not np.array_equal(a.train.X, c.train.X)


def test_blobs_shapes_and_standardization():
    data = generate_synthetic("blobs", 200, 50, 50, d=6, num_classes=4, noise=0.7, seed=0)
    assert data.train.X.shape == (200, 6)
    assert data.val.X.shape == (50, 6)
    assert data.test.X.shape == (50, 6)
    assert data.num_classes == 4
    whole = np.vstack([data.train.X, data.val.X, data.test.X])
    assert np.allclose(whole.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(whole.std(axis=0), 1.0, atol=1e-12)


def test_noiseless_blobs_are_linearly_separable():
    data = generate_synthetic("blobs", 80, 0, 0, d=3, num_classes=2, noise=0.0, seed=7)
    model = ModelSpec("linear", input_dim=3, num_classes=2)
    state = DFWState(w=init_params(model, seed=0), eta=0.1, l2=0.0, mode="conditional")
    for _ in range(40):
        state, _ = dfw_step(state, (data.train.X, data.train.y), model)
    F, _ = model.batch_scores(state.w, data.train.X)
    assert (F.argmax(axis=1) == data.train.y).all()


def test_spirals_generates_interleaved_arms():
    data = generate_synthetic("spirals", 150, 0, 0, d=2, num_classes=3, noise=0.05, seed=3)
    assert data.train.X.shape == (150, 2)
    assert set(np.unique(data.train.y)) <= {0, 1, 2}
    # arms are not linearly separable: class means nearly coincide
    means = np.stack([data.train.X[data.train.y == k].mean(axis=0) for k in range(3)])
    assert np.linalg.norm(means, axis=1).max() < 1.0


def test_generate_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic("moons", 10, 0, 0, d=2, num_classes=2, noise=0.1, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic("blobs", 0, 0, 0, d=2, num_classes=2, noise=0.1, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic("blobs", 10, 0, 0, d=2, num_classes=5, noise=0.1, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic("blobs", 10, 0, 0, d=2, num_classes=1, noise=0.1, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic("spirals", 10, 0, 0, d=1, num_classes=2, noise=0.1, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic("blobs", 10, 0, 0, d=3, num_classes=2, noise=-0.1, seed=0)
    for noise in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise must be finite and nonnegative"):
            generate_synthetic("blobs", 10, 0, 0, d=3, num_classes=2, noise=noise, seed=0)


def test_split_dataset_partitions_rows():
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(100, 3)), rng.integers(0, 4, size=100))
    split = split_dataset(data, val_fraction=0.2, test_fraction=0.1, seed=5)
    assert len(split.train) == 70 and len(split.val) == 20 and len(split.test) == 10
    rows = {tuple(r) for part in (split.train, split.val, split.test) for r in part.X}
    assert len(rows) == 100
    again = split_dataset(data, val_fraction=0.2, test_fraction=0.1, seed=5)
    assert np.array_equal(split.train.X, again.train.X)
    with pytest.raises(ValueError):
        split_dataset(data, 0.6, 0.5, seed=0)
    with pytest.raises(ValueError):
        split_dataset(data, -0.1, 0.1, seed=0)


def test_dataset_shape_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), np.zeros(3, dtype=int))


def test_non_integral_labels_are_rejected_not_truncated():
    X = np.zeros((2, 3))
    for labels in ([0.5, 2.9], [1.0, float("nan")], np.array([0.0, -np.inf])):
        bad = next(float(v) for v in labels if not float(v).is_integer())
        with pytest.raises(ValueError, match=f"class labels must be whole numbers, got {bad!r}"):
            batch_arrays((X, labels))
        with pytest.raises(ValueError, match=f"class labels must be whole numbers, got {bad!r}"):
            Dataset(X, labels)
    # whole-valued float labels and an empty float array are still accepted
    assert batch_arrays((X, [1.0, 2.0]))[1].tolist() == [1, 2]
    assert Dataset(X, np.array([2.0, 1.0])).y.tolist() == [2, 1]
    assert Dataset(np.zeros((0, 4)), np.zeros(0)).y.dtype.kind == "i"
    assert [parse_libsvm_line(f"{text} 1:1.0")[1] for text in ("+1", "-1", "2.0")] == [1, -1, 2]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features_naming_the_first_bad_row(value):
    X = np.zeros((4, 3))
    X[2, 0] = X[3, 1] = value
    with pytest.raises(ValueError, match="features must be finite, row 2 is not"):
        Dataset(X, [0, 1, 0, 1])


def test_dataset_rejects_a_negative_label_naming_the_first_bad_row():
    # evaluate read a -1 as the last class, so a val split holding one
    # trained to completion with a wrong val_acc
    with pytest.raises(ValueError, match=re.escape("class labels must be nonnegative, row 2 has -1")):
        Dataset(np.zeros((5, 3)), [0, 1, -1, 2, -3])


@pytest.mark.parametrize("seed", [1.5, -1, float("inf"), "0", [0]])
def test_seeds_of_data_entries_are_rejected_by_name(seed):
    message = re.escape(f"seed must be a nonnegative whole number, got {seed!r}")
    with pytest.raises(ValueError, match=message):
        generate_synthetic("blobs", 10, 0, 0, d=3, num_classes=3, noise=0.5, seed=seed)
    data = generate_synthetic("blobs", 10, 0, 0, d=3, num_classes=3, noise=0.5, seed=0).train
    with pytest.raises(ValueError, match=message):
        split_dataset(data, 0.2, 0.2, seed)


def test_whole_number_seeds_of_data_entries_give_the_same_arrays():
    def draw(seed):
        return generate_synthetic("blobs", 10, 2, 2, d=3, num_classes=3, noise=0.5, seed=seed).train

    def split(seed):
        return split_dataset(draw(0), 0.2, 0.2, seed).train

    for seed in (4.0, np.int64(4), np.float64(4.0)):
        for got, want in ((draw(seed), draw(4)), (split(seed), split(4))):
            assert got.X.tobytes() == want.X.tobytes()
            assert got.y.tobytes() == want.y.tobytes()


SYNTHETIC_SIZES = dict(n_train=10, n_val=2, n_test=2, d=3, num_classes=3)


@pytest.mark.parametrize(
    "name, value",
    [
        ("n_train", 2.5), ("n_val", 1.5), ("n_test", np.nan), ("d", 3.5), ("num_classes", 2.5),
        ("n_train", "20"), ("d", b"3"),
    ],
)
def test_synthetic_sizes_that_are_not_whole_numbers_are_rejected_by_name(name, value):
    # a string size used to be read as the number it spells
    sizes = dict(SYNTHETIC_SIZES, **{name: value})
    message = re.escape(f"{name} must be a whole number, got {value!r}")
    with pytest.raises(ValueError, match=message):
        generate_synthetic("blobs", **sizes, noise=0.5, seed=0)


@pytest.mark.parametrize("kind", ["blobs", "spirals"])
def test_whole_number_synthetic_sizes_of_any_type_give_the_same_arrays(kind):
    want = generate_synthetic(kind, **SYNTHETIC_SIZES, noise=0.5, seed=1)
    for cast in (float, np.int64, np.float64):
        sizes = {name: cast(value) for name, value in SYNTHETIC_SIZES.items()}
        got = generate_synthetic(kind, **sizes, noise=0.5, seed=1)
        for part in ("train", "val", "test"):
            assert getattr(got, part).X.tobytes() == getattr(want, part).X.tobytes()
            assert getattr(got, part).y.tobytes() == getattr(want, part).y.tobytes()


@pytest.mark.parametrize("fmt, line", [("csv", "1.0,2.0,0"), ("libsvm", "0 1:1.0 2:2.0")])
def test_a_loaded_file_is_scanned_for_non_finite_features_once(tmp_path, monkeypatch, fmt, line):
    # the loader leaves the scan to its Dataset, which names the row
    p = tmp_path / "d.txt"
    p.write_text(f"{line}\n" * 5)
    scanned = []
    isfinite = np.isfinite

    def counting_isfinite(x, *args, **kwargs):
        if np.shape(x) == (5, 2):
            scanned.append(1)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    assert load_dataset(p, fmt).X.shape == (5, 2)
    assert len(scanned) == 1


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_csv_row, "1.0", "need at least one feature column and a label column"),
        (parse_libsvm_line, "1 1:abc", "bad feature token '1:abc'"),
        (parse_libsvm_line, "1 x:2.0", "bad feature token 'x:2.0'"),
    ],
)
def test_malformed_rows_are_rejected_with_a_reason(parse, text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse(text)
