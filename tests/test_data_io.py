"""Synthetic stream generation, matrix text I/O, and series emission."""

import math
import warnings

import numpy as np
import pytest

import oracles
import olreg.data
from olreg import (
    MatrixParseError,
    Observation,
    OnlineLedger,
    SyntheticConfig,
    emit_series,
    gen_synthetic,
    load_matrix,
    observations_from_arrays,
    observations_to_arrays,
    save_matrix,
)


def test_noiseless_flat_stream_is_the_intercept():
    config = SyntheticConfig(
        observation_count=7,
        feature_count=4,
        leading_scale=0.0,
        trailing_scale=0.0,
        noise_scale=0.0,
    )
    stream = gen_synthetic(config)
    assert len(stream) == 7
    assert all(obs.response == 100.0 for obs in stream)
    assert all(obs.explanatory.shape == (4,) for obs in stream)


def test_coefficient_ladder_alternates_sign():
    config = SyntheticConfig(feature_count=5, leading_count=2)
    coefficients = config.coefficients()
    assert list(coefficients) == [10.0, -10.0, 1.0, -1.0, 1.0]
    short = SyntheticConfig(feature_count=3, leading_count=10).coefficients()
    assert list(short) == [10.0, -10.0, 10.0]


def test_same_seed_same_bits():
    first = gen_synthetic(SyntheticConfig(seed=4, observation_count=20, feature_count=3))
    second = gen_synthetic(SyntheticConfig(seed=4, observation_count=20, feature_count=3))
    for a, b in zip(first, second):
        assert np.array_equal(a.explanatory, b.explanatory)
        assert a.response == b.response
    third = gen_synthetic(SyntheticConfig(seed=5, observation_count=20, feature_count=3))
    assert any(a.response != c.response for a, c in zip(first, third))


def test_default_stream_moments():
    # response variance decomposes as 10 * 100 + 90 * 1 + 1 = 1091
    features, responses = observations_to_arrays(gen_synthetic(SyntheticConfig()))
    assert features.shape == (600, 100)
    assert abs(responses.mean() - 100.0) < 5.0
    assert abs(responses.var(ddof=1) / 1091.0 - 1.0) < 0.15
    assert np.all(np.abs(features.mean(axis=0)) < 0.15)
    assert np.all(np.abs(features.var(axis=0, ddof=1) - 1.0) < 0.2)


def test_array_conversions_invert_each_other():
    stream = gen_synthetic(SyntheticConfig(observation_count=9, feature_count=2))
    features, responses = observations_to_arrays(stream)
    back = observations_from_arrays(features, responses)
    assert len(back) == 9
    assert all(
        np.array_equal(a.explanatory, b.explanatory) and a.response == b.response
        for a, b in zip(stream, back)
    )
    with pytest.raises(ValueError):
        observations_from_arrays(np.ones((3, 2)), np.ones(4))
    empty_x, empty_y = observations_to_arrays([])
    assert empty_x.shape == (0, 0) and empty_y.shape == (0,)


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(13, 4)) * 10.0 ** rng.integers(-8, 9, size=(13, 4))
    matrix[0, 0] = math.inf
    matrix[1, 2] = -math.inf
    path = tmp_path / "matrix.csv"
    save_matrix(matrix, path)
    again = load_matrix(path)
    assert np.array_equal(matrix, again)


def test_single_cell_file(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("3.5\n")
    loaded = load_matrix(path)
    assert loaded.shape == (1, 1)
    assert loaded[0, 0] == 3.5


def test_header_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("x1,x2,y\n\n1, 2, 3\n4\t5 6\n\n")
    loaded = load_matrix(path)
    assert np.array_equal(loaded, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_headerless_numeric_first_line_is_data(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1,2\n3,4\n")
    assert np.array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_ragged_row_reports_its_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("h1,h2\n1,2\n3,4,5\n")
    with pytest.raises(MatrixParseError) as info:
        load_matrix(path)
    assert info.value.line_number == 3


def test_bad_field_past_the_header_reports_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(MatrixParseError) as info:
        load_matrix(path)
    assert info.value.line_number == 2


def test_empty_file_yields_empty_matrix(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert load_matrix(path).shape == (0, 0)
    path.write_text("only,a,header\n")
    assert load_matrix(path).shape == (0, 0)


def write_text(tmp_path, text, name="matrix.txt"):
    """Write ``text`` as UTF-8 with its line ends kept as given."""
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def random_cells(rng, rows, cols):
    """Doubles across the whole exponent range, with the special values and
    edge tokens that ``float()`` reads: infinities, subnormals, overflow and
    underflow, signs and bare points."""
    values = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-320, 309, size=(rows, cols))
    cells = [[f"{v:.17g}" if rng.random() < 0.5 else repr(float(v)) for v in row] for row in values]
    specials = ["inf", "-inf", "Infinity", "-INF", "1e400", "-1e999", "1e-400", "nan",
                "5e-324", "-2.2250738585072009e-308", "4.9406564584124654e-324",
                "1.7976931348623157e308", "+1.5", ".5", "5.", "-0", "0e0", "1E+2"]
    for i, token in enumerate(specials):
        cells[i % rows][(i * 7) % cols] = token
    return cells


DELIMITERS = [",", " ", "\t", ", ", " , ", "mixed"]


def format_matrix(rng, cells, delimiter, newline, header, blanks):
    lines = []
    for row in cells:
        if delimiter == "mixed":
            seps = rng.choice([",", " ", "\t", ", ", " ,\t", "\u3000"], size=len(row) - 1)
            line = "".join(cell + sep for cell, sep in zip(row, seps)) + row[-1]
        else:
            line = delimiter.join(row)
        lines.append(line)
        if blanks and rng.random() < 0.2:
            lines.append(str(rng.choice(["", "  ", "\t", ",", " , "])))
    if header:
        lines.insert(0, ",".join(f"x{j}" for j in range(len(cells[0]))))
    if blanks:
        lines.insert(0, "")
    return newline.join(lines) + (newline if rng.random() < 0.7 else "")


@pytest.mark.parametrize("delimiter", DELIMITERS)
def test_parse_equals_the_float_loop_bitwise(tmp_path, delimiter):
    rng = np.random.default_rng(len(delimiter) + DELIMITERS.index(delimiter))
    for shape in ((30, 7), (1, 5), (6, 1), (1, 1)):
        cells = random_cells(rng, *shape)
        for newline in ("\n", "\r\n"):
            for header in (False, True):
                for blanks in (False, True):
                    text = format_matrix(rng, cells, delimiter, newline, header, blanks)
                    path = write_text(tmp_path, text)
                    want = oracles.load_matrix_loop(path)
                    assert want.shape == shape
                    assert_same_bits(load_matrix(path), want)


def test_saved_and_whitespace_files_skip_the_line_loop(tmp_path, monkeypatch):
    def refuse(lines):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr(olreg.data, "_load_lines", refuse)
    rng = np.random.default_rng(21)
    matrix = rng.normal(size=(25, 4))
    path = tmp_path / "saved.csv"
    save_matrix(matrix, path, header=["a", "b", "c", "y"])
    assert_same_bits(load_matrix(path), matrix)
    text = "a b c\r\n\r\n" + "".join(" ".join(repr(float(v)) for v in row) + "\r\n" for row in matrix[:, :3])
    assert_same_bits(load_matrix(write_text(tmp_path, text)), matrix[:, :3])


@pytest.mark.parametrize(
    "text",
    [
        "1_0,2\n3,4\n",  # underscores: float() only
        "x,y\n\u0661,2\n3,\u0663.\u0665\n",  # Arabic-Indic digits
        "1,2\n\uff13,4_000.5\n",  # full-width digit
        "a b\r\n1 2\r\n3\u00a04\r\n5_5 6\r\n",
    ],
)
def test_tokens_only_float_reads_take_the_line_loop(tmp_path, text):
    path = write_text(tmp_path, text)
    want = oracles.load_matrix_loop(path)
    assert want.size > 0
    assert_same_bits(load_matrix(path), want)


@pytest.mark.parametrize(
    "text, line",
    [
        ("h1,h2\n1,2\n3,4,5\n", 3),
        ("h1,h2\r\n\r\n1,2\r\n3,4\r\n\r\n5,6,7\r\n", 6),
        ("1 2\n3\n", 2),
        ("1,2\n3,4\n5,\n", 3),
        ("1,2\n3,oops\n", 2),
        ("x,y\n1,2\n\n3,1_0x\n", 4),
        ("x,y\n1,2\n3,4\n#5,6\n", 4),
        ("\n\n1,2\nx,y\n", 4),
        ("1,2\n3\x0c4\x0c5\n", 2),
    ],
)
def test_parse_errors_name_their_line(tmp_path, text, line):
    path = write_text(tmp_path, text)
    with pytest.raises(MatrixParseError) as reference:
        oracles.load_matrix_loop(path)
    assert reference.value.line_number == line
    with pytest.raises(MatrixParseError) as info:
        load_matrix(path)
    assert info.value.line_number == line
    assert str(info.value) == str(reference.value)


@pytest.mark.parametrize(
    "text", ["", "\n", " \r\n\t\n", "x1,x2,y\n", "x1 x2\r\n\r\n  \r\n", ",,\nh\n,\n"]
)
def test_empty_or_header_only_file_is_0x0_without_a_warning(tmp_path, text):
    path = write_text(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_matrix(path)
    assert loaded.shape == (0, 0)


def test_save_layout_and_header(tmp_path):
    path = tmp_path / "grid.csv"
    save_matrix(np.arange(8.0).reshape(4, 2), path, header=["lo", "hi"])
    lines = path.read_text().splitlines()
    assert lines[0] == "lo,hi"
    assert len(lines) == 5
    assert all(len(line.split(",")) == 2 for line in lines[1:])
    # a vector is written as a single column
    save_matrix(np.array([1.5, 2.5]), path)
    assert path.read_text().splitlines() == ["1.5", "2.5"]


def _toy_ledger():
    return OnlineLedger(
        levels=(0.2, 0.05),
        errors=np.array([[0, 1, 0, 1], [0, 0, 0, 1]], dtype=np.uint8),
        lengths=np.array([[math.inf, 2.0, 4.0, 6.0], [math.inf, math.inf, 8.0, 10.0]]),
        smoothed=False,
        seed=1,
    )


def test_emitted_error_series(tmp_path):
    path = tmp_path / "errors.csv"
    emit_series(_toy_ledger(), "cumulative_errors", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,level_0.2,level_0.05"
    table = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in table] == ["1", "2", "3", "4"]
    for j in (1, 2):
        totals = [int(row[j]) for row in table]
        assert totals == sorted(totals)
    assert [row[1] for row in table] == ["0", "1", "1", "2"]


def test_emitted_median_series(tmp_path):
    path = tmp_path / "medians.csv"
    emit_series(_toy_ledger(), "median_accuracy", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,level_0.2,level_0.05"
    table = [line.split(",") for line in lines[1:]]
    assert [row[1] for row in table] == ["inf", "inf", "4", "5"]
    assert [row[2] for row in table] == ["inf", "inf", "inf", "inf"]
    with pytest.raises(ValueError):
        emit_series(_toy_ledger(), "histogram", tmp_path / "x.csv")


@pytest.mark.parametrize("row, col", [(0, 0), (2, 1), (4, None)])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_array_streams_raise_what_the_first_bad_observation_raises(row, col, value):
    rng = np.random.default_rng(56)
    features, responses = rng.normal(size=(5, 2)), rng.normal(size=5)
    if col is None:
        responses[row] = value
    else:
        features[row, col] = value
    responses[min(row + 1, 4)] = -value  # a later bad row does not decide
    with pytest.raises(ValueError) as reference:
        [Observation(x, y) for x, y in zip(features, responses)]
    with pytest.raises(ValueError, match=f"^{reference.value}$"):
        observations_from_arrays(features, responses)


def test_array_streams_hold_float_rows_and_responses():
    features = np.arange(6).reshape(3, 2)
    stream = observations_from_arrays(features, [1, 2, 3])
    for row, obs in zip(features, stream):
        assert obs.explanatory.dtype == float and np.array_equal(obs.explanatory, row)
        assert type(obs.response) is float
