import tracemalloc
import warnings

import numpy as np
import pytest

from tricenter import datasets
from tricenter.datasets import (SKIN7_LIKE_IN_DIM, SKIN7_LIKE_SEPARATION, SKIN7_LIKE_SIZES,
                                Dataset, SyntheticSpec, gen_gaussian_imbalanced, load_csv,
                                preset_spec, save_csv, simplex_means)
from tricenter.errors import ContractError, DataFormatError

HEADER = "label,f0,f1,f2\n"


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


def good_rows(n):
    rng = np.random.default_rng(n)
    return [f"{i % 3}," + ",".join(repr(float(v)) for v in rng.normal(size=3)) + "\n"
            for i in range(n)]


def load_by_the_line_loop(path):
    """``load_csv`` with the numpy parse refusing every file, so its line loop decides."""
    def refuse(*args, **kwargs):
        raise ValueError("refused")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets.np, "loadtxt", refuse)
        return load_csv(path)


def load_counting_the_line_loop(path):
    """``load_csv`` of ``path`` and whether its line loop read the file."""
    calls = []
    parse_lines = datasets._parse_lines

    def spy(p):
        calls.append(p)
        return parse_lines(p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "_parse_lines", spy)
        return load_csv(path), bool(calls)


def assert_same_dataset(got: Dataset, want: Dataset):
    assert got.features.dtype == want.features.dtype == np.float64
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.dtype == want.labels.dtype
    np.testing.assert_array_equal(got.labels, want.labels)


def bulk_spec(scale, seed):
    k = len(SKIN7_LIKE_SIZES)
    return SyntheticSpec(sizes=[n * scale for n in SKIN7_LIKE_SIZES],
                         means=simplex_means(k, SKIN7_LIKE_IN_DIM, SKIN7_LIKE_SEPARATION),
                         sigmas=np.full(k, 1.0), seed=seed)


def gen_by_blocks(spec):
    """The generator that drew each class as its own block and stacked the blocks."""
    rng = np.random.default_rng(spec.seed)
    blocks, labels = [], []
    for c, n in enumerate(spec.sizes):
        blocks.append(spec.means[c] + spec.sigmas[c] * rng.standard_normal((n, spec.in_dim)))
        labels.append(np.full(n, c, dtype=np.intp))
    return Dataset(np.vstack(blocks), np.concatenate(labels))


@pytest.mark.parametrize("seed", [0, 3, 17])
@pytest.mark.parametrize("width", [1, 16])
def test_generation_in_place_equals_the_stacked_blocks(seed, width):
    rng = np.random.default_rng(100 + seed)
    sizes = [1, 9, 1, 4, 1]
    spec = SyntheticSpec(sizes=sizes, means=rng.normal(scale=3.0, size=(len(sizes), width)),
                         sigmas=rng.uniform(0.3, 2.5, size=len(sizes)), seed=seed)
    got, want = gen_gaussian_imbalanced(spec), gen_by_blocks(spec)
    assert_same_dataset(got, want)
    assert got.features.flags.c_contiguous and got.labels.dtype == np.intp


def test_generating_20400_rows_holds_the_matrix_once():
    """The [20400, 16] matrix is 2.6 MB.  Stacking per-class blocks held it
    twice and peaked at 6.5 MB; drawing into one matrix peaks at 3.1 MB."""
    spec = bulk_spec(30, seed=8)
    tracemalloc.start()
    try:
        data = gen_gaussian_imbalanced(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_dataset(data, gen_by_blocks(spec))
    matrix = data.features.nbytes
    assert matrix == 20400 * 16 * 8
    assert peak < 1.6 * matrix, f"peak {peak / 1e6:.2f} MB for a {matrix / 1e6:.2f} MB matrix"


@pytest.mark.parametrize("spec", [preset_spec("skin7-like", seed=4), bulk_spec(30, seed=5)],
                         ids=["skin7_like", "rows_20400"])
def test_gen_save_load_is_a_bit_exact_round_trip(tmp_path, spec):
    data = gen_gaussian_imbalanced(spec)
    save_csv(data, tmp_path / "data.csv")
    loaded = load_csv(tmp_path / "data.csv")
    assert loaded.features.shape == (sum(spec.sizes), SKIN7_LIKE_IN_DIM)
    assert_same_dataset(loaded, data)
    assert_same_dataset(load_by_the_line_loop(tmp_path / "data.csv"), data)


# Each bad row is line 151 of a 200-row file: past line 2, so the numpy parse
# has read good rows before it refuses and the line loop reports the line.
@pytest.mark.parametrize("row, message", [
    ("0,1.0,2.0\n", "expected 4 fields, got 3"),
    ("0,1.0,2.0,3.0,\n", "expected 4 fields, got 5"),
    ("0,1.0,,3.0\n", "non-numeric feature value"),
    ("-1,1.0,2.0,3.0\n", "label '-1' is not a nonnegative integer"),
    ("3.0,1.0,2.0,3.0\n", "label '3.0' is not a nonnegative integer"),
    ("0,1.0,abc,3.0\n", "non-numeric feature value"),
    ("0,1.0,2.0#3,3.0\n", "non-numeric feature value"),
    ("0,1.0,\x1f2.0,3.0\n", "non-numeric feature value"),
], ids=["field_count", "trailing_comma", "empty_field", "negative_label", "float_label",
        "non_numeric_feature", "hash_in_field", "unit_separator"])
def test_a_malformed_row_raises_the_loop_message_with_its_line(tmp_path, row, message):
    rows = good_rows(200)
    rows[149] = row
    path = write(tmp_path / "data.csv", HEADER + "".join(rows))
    with pytest.raises(DataFormatError) as exc:
        load_csv(path)
    assert str(exc.value) == f"{path}: line 151: {message}"


@pytest.mark.parametrize("spelling, value", [("1_0", 10.0), ("٣", 3.0), ("１", 1.0)],
                         ids=["underscore", "arabic_indic_digit", "fullwidth_digit"])
def test_spellings_only_float_reads_load_as_float_reads_them(tmp_path, spelling, value):
    rows = good_rows(50)
    rows[40] = f"2,0.5,{spelling},-1.25\n"
    path = write(tmp_path / "data.csv", HEADER + "".join(rows))
    loaded = load_csv(path)
    assert loaded.features[40].tolist() == [0.5, value, -1.25]
    assert_same_dataset(loaded, load_by_the_line_loop(path))


def test_blank_and_whitespace_only_lines_are_skipped(tmp_path):
    rows = good_rows(6)
    plain = load_csv(write(tmp_path / "plain.csv", HEADER + "".join(rows)))
    spaced = HEADER + "\n" + rows[0] + "   \n" + "".join(rows[1:4]) + "\t\n\n" + "".join(rows[4:]) + " \n"
    loaded, looped = load_counting_the_line_loop(write(tmp_path / "spaced.csv", spaced))
    assert not looped
    assert_same_dataset(loaded, plain)


def test_crlf_line_ends_load_like_lf(tmp_path):
    """Also with empty lines, and without the line loop."""
    rows = good_rows(40)
    plain = load_csv(write(tmp_path / "lf.csv", HEADER + "".join(rows)))
    text = HEADER + "\n" + "".join(rows[:20]) + "\n\n" + "".join(rows[20:])
    crlf = write(tmp_path / "crlf.csv", text.replace("\n", "\r\n"))
    loaded, looped = load_counting_the_line_loop(crlf)
    assert not looped
    assert_same_dataset(loaded, plain)
    assert_same_dataset(load_by_the_line_loop(crlf), plain)


@pytest.mark.parametrize("body", ["", "\n  \n", "\n", "\r\n\r\n"],
                         ids=["header_only", "blank_lines_only", "one_empty_line", "crlf_empty_lines"])
def test_a_file_without_rows_is_rejected(tmp_path, body):
    """numpy warns "input contained no data" on such a body; the scan keeps the file from it."""
    path = write(tmp_path / "data.csv", HEADER + body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_csv(path)
    assert caught == []


@pytest.mark.parametrize("spelling, value", [("1_0", 10), ("١", 1), ("١٢", 12), ("１", 1)],
                         ids=["underscore", "arabic_indic_digit", "arabic_indic_number",
                              "fullwidth_digit"])
def test_labels_numpy_refuses_go_to_the_line_loop(tmp_path, spelling, value):
    rows = good_rows(20)
    rows[7] = f"{spelling},0.5,1.0,-1.25\n"
    path = write(tmp_path / "data.csv", HEADER + "".join(rows))
    loaded, looped = load_counting_the_line_loop(path)
    assert looped
    assert loaded.labels[7] == value
    assert_same_dataset(loaded, load_by_the_line_loop(path))


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                  "\u2029"])
def test_a_line_break_only_splitlines_knows_splits_the_row(tmp_path, char):
    """numpy would read ``2.0<char>`` as 2.0, but the line loop ends the line there."""
    rows = good_rows(30)
    rows[20] = f"1,0.5,2.0{char},3.0\n"
    path = write(tmp_path / "data.csv", HEADER + "".join(rows))
    with pytest.raises(DataFormatError) as error:
        load_csv(path)
    assert str(error.value) == f"{path}: line 22: expected 4 fields, got 3"


def test_a_line_break_in_the_header_splits_the_header(tmp_path):
    """Read whole, this header names three features; the line loop reads two and a line 2."""
    path = write(tmp_path / "data.csv", "label,f0,f1\x1c,f2\n" + "".join(good_rows(3)))
    with pytest.raises(DataFormatError) as error:
        load_csv(path)
    assert str(error.value) == f"{path}: line 2: expected 3 fields, got 2"


def test_a_label_past_64_bits_names_its_line(tmp_path):
    rows = good_rows(10)
    rows[4] = "12345678901234567890,0.5,1.0,2.0\n"
    path = write(tmp_path / "data.csv", HEADER + "".join(rows))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataFormatError) as error:
            load_csv(path)
    assert caught == []
    assert str(error.value) == f"{path}: line 6: label '12345678901234567890' is too large"


def test_a_bad_utf8_byte_past_the_first_read_names_its_file_offset(tmp_path):
    text = (HEADER + "".join(good_rows(2000))).encode("utf-8")
    offset = len(text) - 40
    path = tmp_path / "data.csv"
    path.write_bytes(text[:offset] + b"\xff" + text[offset + 1:])
    with pytest.raises(DataFormatError) as error:
        load_csv(path)
    assert str(error.value) == f"{path}: not UTF-8 text (byte {offset})"


BOM = b"\xef\xbb\xbf"


def test_a_csv_with_a_byte_order_mark_loads_as_without_one(tmp_path):
    """Excel's "CSV UTF-8" starts with a BOM; it used to break the header on line 1.
    The numpy parse reads such a file itself, and the line loop reads it alike."""
    text = (HEADER + "".join(good_rows(50))).encode("utf-8")
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text)
    bom.write_bytes(BOM + text)
    want = load_csv(plain)
    got, looped = load_counting_the_line_loop(bom)
    assert not looped
    assert_same_dataset(got, want)
    assert_same_dataset(load_by_the_line_loop(bom), want)


def test_a_bad_byte_after_a_byte_order_mark_names_its_file_offset(tmp_path):
    text = BOM + (HEADER + "".join(good_rows(20))).encode("utf-8")
    offset = len(text) - 30
    path = tmp_path / "data.csv"
    path.write_bytes(text[:offset] + b"\xff" + text[offset + 1:])
    with pytest.raises(DataFormatError) as error:
        load_csv(path)
    assert str(error.value) == f"{path}: not UTF-8 text (byte {offset})"


def test_a_class_count_bounds_the_labels_in_place_of_the_row_count(tmp_path):
    path = write(tmp_path / "rare.csv", HEADER + "6,0.5,1.0,2.0\n" * 3)
    with pytest.raises(DataFormatError, match="label 6 implies 7 classes, more than the 3 rows"):
        load_csv(path)
    rare = load_csv(path, n_classes=7)
    assert rare.n_classes == 7
    assert rare.index.sizes.tolist() == [0, 0, 0, 0, 0, 0, 3]
    with pytest.raises(DataFormatError) as error:
        load_csv(path, n_classes=6)
    assert str(error.value) == f"{path}: label 6 is out of range for 6 classes"


def test_loading_20400_rows_peaks_well_below_the_text_of_the_file(tmp_path):
    """The 20,400-row file is 6.5 MB of text; its arrays are 2.8 MB.  Reading
    the text whole and splitting its lines peaked at 20.2 MB; the scan and one
    structured parse peaked at 5.7 MB with a contiguous copy of the features,
    and peak at 5.2 MB with the features a view of the parsed records."""
    data = gen_gaussian_imbalanced(bulk_spec(30, seed=6))
    save_csv(data, tmp_path / "data.csv")
    tracemalloc.start()
    try:
        loaded = load_csv(tmp_path / "data.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_dataset(loaded, data)
    assert loaded.features.strides == (17 * 8, 8)  # the records' field, not a copy of it
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("parse", ["numpy", "line_loop"])
def test_a_label_past_the_row_count_names_its_file_and_label(tmp_path, parse):
    path = write(tmp_path / "data.csv", HEADER + "".join(good_rows(5)) + "1000000000,0.5,1.0,2.0\n")
    with pytest.raises(DataFormatError) as error:
        load_csv(path) if parse == "numpy" else load_by_the_line_loop(path)
    assert str(error.value) == (f"{path}: label 1000000000 implies 1000000001 classes, "
                                "more than the 6 rows can hold")


def test_a_dataset_never_drops_rows_beyond_its_forced_class_count():
    with pytest.raises(ContractError, match="out of range"):
        datasets.Dataset(np.zeros((4, 2)), [0, 1, 2, 2], forced_n_classes=2)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_a_non_finite_feature_names_its_file_and_line(tmp_path, value):
    rows = good_rows(20)
    rows[10] = f"1,0.5,{value},2.0\n"
    path = write(tmp_path / "data.csv", HEADER + "\n" + "".join(rows))  # a blank line 2
    with pytest.raises(DataFormatError) as error:
        load_csv(path)
    assert str(error.value) == f"{path}: line 13: non-finite feature value"


def test_random_valid_tables_load_as_the_line_loop_reads_them(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    finite = st.floats(allow_nan=False, allow_infinity=False)
    feature = st.one_of(
        finite.map(repr),
        finite.map(lambda v: f"{v:.6e}"),
        finite.map(lambda v: f" {v!r}\t"),
        st.integers(-10**6, 10**6).map(str),
        st.sampled_from(["1_0", "٣", "+.5", "1.", "-0", "1e-400", "1E5"]),
    )

    def label(n_rows):  # a valid table has no label past its row count
        return st.integers(0, n_rows - 1).flatmap(
            lambda v: st.sampled_from([str(v), f" {v}", f"+{v}", f"{v:03d}"]))

    def table(width, n_rows):
        return st.lists(st.tuples(label(n_rows), st.lists(feature, min_size=width, max_size=width)),
                        min_size=n_rows, max_size=n_rows)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.tuples(st.integers(1, 4), st.integers(1, 12)).flatmap(lambda t: table(*t)))
    def check(rows):
        width = len(rows[0][1])
        text = "label," + ",".join(f"f{i}" for i in range(width)) + "\n" + "".join(
            lab + "," + ",".join(fields) + "\n" for lab, fields in rows)
        path = write(tmp_path / "data.csv", text)
        assert_same_dataset(load_csv(path), load_by_the_line_loop(path))

    check()
