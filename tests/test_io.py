"""Model documents and series files: round trips and precise failure modes."""

import glob
import json
import os

import numpy as np
import pytest

import ssmkit.io
from ssmkit import (
    DataFormatError,
    DiscreteHMM,
    LinearGaussianModel,
    ModelValidationError,
    ObservationSeries,
    parse_model,
    read_series,
    write_model,
    write_series,
    write_table,
)

HMM = DiscreteHMM(
    [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.8, 0.2], [0.3, 0.7]]
)
LG = LinearGaussianModel(
    A=[[0.9, 0.1], [0.0, 0.7]],
    C=[[1.0, 0.5]],
    Q=[[0.2, 0.01], [0.01, 0.3]],
    R=[[0.4]],
    mu0=[0.1, -0.2],
    Sigma0=[[1.0, 0.0], [0.0, 1.0]],
)


def dump(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestModelDocuments:
    def test_hmm_round_trip(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_model(path, HMM)
        back = parse_model(path)
        np.testing.assert_array_equal(back.initial, HMM.initial)
        np.testing.assert_array_equal(back.transition, HMM.transition)
        np.testing.assert_array_equal(back.emission, HMM.emission)

    def test_linear_gaussian_round_trip(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_model(path, LG)
        back = parse_model(path)
        for name in ("A", "C", "Q", "R", "mu0", "Sigma0"):
            np.testing.assert_array_equal(getattr(back, name), getattr(LG, name))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError, match="not valid JSON"):
            parse_model(str(path))

    def test_non_object_document(self, tmp_path):
        with pytest.raises(DataFormatError, match="JSON object"):
            parse_model(dump(tmp_path, "m.json", [1, 2, 3]))

    def test_missing_type(self, tmp_path):
        with pytest.raises(DataFormatError, match='"type"'):
            parse_model(dump(tmp_path, "m.json", {"initial": [1.0]}))

    def test_unknown_type(self, tmp_path):
        with pytest.raises(DataFormatError, match="unknown model type"):
            parse_model(dump(tmp_path, "m.json", {"type": "arma"}))

    def test_typo_suggestion(self, tmp_path):
        doc = {
            "type": "discrete_hmm",
            "initial": [1.0],
            "transitions": [[1.0]],
            "emission": [[1.0]],
        }
        with pytest.raises(DataFormatError, match='did you mean "transition"'):
            parse_model(dump(tmp_path, "m.json", doc))

    def test_missing_field(self, tmp_path):
        doc = {"type": "discrete_hmm", "initial": [1.0], "transition": [[1.0]]}
        with pytest.raises(DataFormatError, match='missing field "emission"'):
            parse_model(dump(tmp_path, "m.json", doc))

    def test_non_numeric_field(self, tmp_path):
        # JSON strings and booleans are not numbers, even where numpy
        # would convert them.
        for initial in (["a"], ["0.5", "0.5"], [True, False], [0.5, None], [10**400, 0]):
            doc = {
                "type": "discrete_hmm",
                "initial": initial,
                "transition": [[1.0, 0.0], [0.0, 1.0]],
                "emission": [[1.0], [1.0]],
            }
            with pytest.raises(DataFormatError, match='field "initial" is not a numeric array'):
                parse_model(dump(tmp_path, "m.json", doc))

    def test_wrong_dimensions(self, tmp_path):
        doc = {
            "type": "discrete_hmm",
            "initial": [1.0],
            "transition": [1.0],
            "emission": [[1.0]],
        }
        with pytest.raises(DataFormatError, match="2-dimensional"):
            parse_model(dump(tmp_path, "m.json", doc))

    def test_near_one_rows_renormalized(self, tmp_path):
        doc = {
            "type": "discrete_hmm",
            "initial": [0.5, 0.5 + 5e-13],
            "transition": [[0.9, 0.1], [0.2, 0.8]],
            "emission": [[0.8, 0.2], [0.3, 0.7]],
        }
        model = parse_model(dump(tmp_path, "m.json", doc))
        assert abs(model.initial.sum() - 1.0) <= 1e-15

    def test_bad_row_sum_names_the_row(self, tmp_path):
        doc = {
            "type": "discrete_hmm",
            "initial": [0.5, 0.5],
            "transition": [[0.8, 0.1], [0.2, 0.8]],
            "emission": [[0.8, 0.2], [0.3, 0.7]],
        }
        with pytest.raises(ModelValidationError) as exc:
            parse_model(dump(tmp_path, "m.json", doc))
        assert '"transition[0]"' in str(exc.value)
        assert "-0.1" in str(exc.value)

    def test_wide_row_renormalized_like_numpy_sum(self, tmp_path):
        # 12 symbols: numpy's pairwise sum of the row differs from a
        # left-to-right sum here, and the row must come out as row / row.sum().
        rng = np.random.default_rng(1)
        raw = rng.exponential(size=12)
        row = raw / raw.sum()
        row[-1] += 4e-13
        assert (row / row.sum()).tobytes() != (row / sum(row.tolist())).tobytes()
        doc = {
            "type": "discrete_hmm",
            "initial": [0.5, 0.5],
            "transition": [[0.9, 0.1], [0.2, 0.8]],
            "emission": [row.tolist(), [1.0 / 12] * 12],
        }
        model = parse_model(dump(tmp_path, "m.json", doc))
        assert model.emission[0].tobytes() == (row / row.sum()).tobytes()

    def test_bad_initial_reported_before_missing_emission(self, tmp_path):
        doc = {
            "type": "discrete_hmm",
            "initial": [0.4, 0.4],
            "transition": [[0.9, 0.1], [0.2, 0.8]],
        }
        with pytest.raises(ModelValidationError, match='"initial"'):
            parse_model(dump(tmp_path, "m.json", doc))

    def test_non_string_type_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="unknown model type"):
            parse_model(dump(tmp_path, "m.json", {"type": ["discrete_hmm"]}))

    def test_bad_initial_named_without_index(self, tmp_path):
        doc = {
            "type": "discrete_hmm",
            "initial": [0.4, 0.4],
            "transition": [[0.9, 0.1], [0.2, 0.8]],
            "emission": [[0.8, 0.2], [0.3, 0.7]],
        }
        with pytest.raises(ModelValidationError, match='"initial"'):
            parse_model(dump(tmp_path, "m.json", doc))

    def test_negative_probability_rejected(self, tmp_path):
        doc = {
            "type": "discrete_hmm",
            "initial": [1.2, -0.2],
            "transition": [[0.9, 0.1], [0.2, 0.8]],
            "emission": [[0.8, 0.2], [0.3, 0.7]],
        }
        with pytest.raises(ModelValidationError, match="negative"):
            parse_model(dump(tmp_path, "m.json", doc))

    def test_gaussian_validation_applied(self, tmp_path):
        doc = {
            "type": "linear_gaussian",
            "A": [[1.0]],
            "C": [[1.0]],
            "Q": [[0.1]],
            "R": [[0.0]],
            "mu0": [0.0],
            "sigma0": [[1.0]],
        }
        with pytest.raises(ModelValidationError, match="model document invalid"):
            parse_model(dump(tmp_path, "m.json", doc))

    def test_lowercase_sigma0_key(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_model(path, LG)
        doc = json.loads(open(path).read())
        assert "sigma0" in doc and "Sigma0" not in doc


class TestSeriesFiles:
    def test_symbolic_round_trip(self, tmp_path):
        path = str(tmp_path / "s.csv")
        obs = ObservationSeries([0, 2, 1, 1], kind="symbolic")
        write_series(path, obs)
        back = read_series(path)
        assert back.kind == "symbolic"
        np.testing.assert_array_equal(back.values, obs.values)

    def test_real_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "s.csv")
        values = np.array([[1 / 3, -2 / 7], [0.1, 1e-17], [5.5, 3.25]])
        obs = ObservationSeries(values, kind="real")
        write_series(path, obs)
        back = read_series(path)
        assert back.kind == "real"
        np.testing.assert_array_equal(back.values, values)

    def test_scalar_real_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,y1\n1,0.5\n2,-0.25\n")
        back = read_series(str(path))
        assert back.kind == "real"
        np.testing.assert_array_equal(back.values, [[0.5], [-0.25]])

    def test_header_whitespace_tolerated(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(" t , y \n1,0\n")
        assert read_series(str(path)).kind == "symbolic"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            read_series(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,value\n1,0\n")
        with pytest.raises(DataFormatError, match="line 1"):
            read_series(str(path))

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,y\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            read_series(str(path))

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,y1,y2\n1,0.5\n")
        with pytest.raises(DataFormatError, match="line 2: expected 3 columns"):
            read_series(str(path))

    def test_non_integer_t(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,y\nfirst,0\n")
        with pytest.raises(DataFormatError, match="line 2: t must be an integer"):
            read_series(str(path))

    def test_gap_in_t(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,y\n1,0\n3,1\n")
        with pytest.raises(DataFormatError, match="line 3: expected t=2, got t=3"):
            read_series(str(path))

    def test_duplicate_t(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,y\n1,0\n2,1\n2,0\n")
        with pytest.raises(DataFormatError, match="line 4: expected t=3, got t=2"):
            read_series(str(path))

    def test_symbolic_requires_integer_symbols(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,y\n1,0.5\n")
        with pytest.raises(DataFormatError, match="integer symbol"):
            read_series(str(path))

    def test_real_requires_numbers(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,y1\n1,abc\n")
        with pytest.raises(DataFormatError, match="y1 must be a number"):
            read_series(str(path))

    def test_real_requires_finite(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,y1\n1,inf\n")
        with pytest.raises(DataFormatError, match="finite"):
            read_series(str(path))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("t,y\n1,0\n\n2,x\n", "line 4: y must be an integer symbol, got 'x'"),
            ("t,y1\n1,0.5\n\n\n2,abc\n", "line 5: y1 must be a number, got 'abc'"),
            ("t,y\n\n1,0\n\n3,1\n", "line 5: expected t=2, got t=3"),
            ("t,y1,y2\n\n\n1,0.5\n", "line 4: expected 3 columns, got 2"),
        ],
        ids=["symbol", "number", "t-gap", "columns"],
    )
    def test_errors_after_blank_rows_name_the_physical_line(self, tmp_path, text, message):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as err:
            read_series(str(path))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ('t,y1\n1,"0.5\n"\n2,abc\n', "line 4: y1 must be a number, got 'abc'"),
            ('t,y1\n1,"0.5\n"\n3,1\n', "line 4: expected t=2, got t=3"),
            ('t,y1\r\n1,"0.5\r\n"\r\n\r\n2,abc\r\n', "line 5: y1 must be a number, got 'abc'"),
            ('t,y1,y2\n1,"0.5\n\n",1\n2,1\n', "line 5: expected 3 columns, got 2"),
        ],
        ids=["number", "t-gap", "crlf", "columns"],
    )
    def test_errors_after_a_quoted_cell_spanning_lines_name_the_physical_line(
        self, tmp_path, text, message
    ):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataFormatError) as err:
            read_series(str(path))
        assert str(err.value) == message

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,y\n\n1,0\n\n\n2,1\n\n")
        np.testing.assert_array_equal(read_series(str(path)).values, [0, 1])


def per_cell_text(header, rows) -> str:
    """The per-cell form every table must match: integers as integers,
    floats with 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            str(int(x)) if isinstance(x, (int, np.integer)) else f"{float(x):.17g}"
            for x in row
        ))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [
    1 / 3, 0.1, 2.0, -0.0, 5e-324, 2.2250738585072014e-308,
    1e16, 1e17, np.inf, -np.inf, np.nan, -1 / 7,
]
SYMBOLS = np.array([0, 3, 12, 7, 2**62, -1], dtype=np.int64)


class TestWriters:
    def test_int_and_float_formatting(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table(path, ["t", "v"], np.array([1 / 3, 2.0]))
        text = open(path).read()
        assert text == "t,v\n1,0.33333333333333331\n2,2\n"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table(path, ["t", "v"], np.array([0.5]))
        write_table(path, ["t", "v"], np.array([0.75]))  # overwrite in place
        assert glob.glob(str(tmp_path / "*.tmp")) == []
        assert open(path).read() == "t,v\n1,0.75\n"

    @pytest.mark.parametrize(
        "header, values",
        [
            (["t", "a"], np.ones((2, 3))),
            (["t", "a", "b", "c", "d"], np.ones((2, 3))),
            (["t"], np.ones(2)),
            (["t", "a", "b"], np.ones(2, dtype=np.int64)),
            (["t", "a"], np.empty((1, 0))),
        ],
    )
    def test_header_must_match_the_columns(self, tmp_path, header, values):
        path = str(tmp_path / "t.csv")
        with pytest.raises(ValueError, match="header"):
            write_table(path, header, values)
        assert os.listdir(tmp_path) == []

    def test_missing_directory_raises_oserror(self, tmp_path):
        target = str(tmp_path / "no_such_dir" / "t.csv")
        with pytest.raises(OSError):
            write_table(target, ["t"], np.empty((1, 0)))
        assert not os.path.exists(target)

    def test_edge_floats_written_exactly(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table(path, ["t", "v"], np.array([-0.0, 5e-324, 1e16, 1e17, -np.inf, np.nan]))
        assert open(path).read() == (
            "t,v\n1,-0\n2,4.9406564584124654e-324\n3,10000000000000000\n"
            "4,1e+17\n5,-inf\n6,nan\n"
        )

    @pytest.mark.parametrize("first_t", ["one", "after"])
    @pytest.mark.parametrize(
        "values",
        [
            np.array(EDGE_FLOATS),
            np.array(EDGE_FLOATS)[:, None],
            np.array(EDGE_FLOATS).reshape(4, 3),
            np.array(EDGE_FLOATS).reshape(3, 4).T[::-1],
            SYMBOLS,
            SYMBOLS.reshape(3, 2),
        ],
        ids=["floats-1d", "floats-one-column", "floats-3-columns", "floats-strided",
             "symbols-1d", "symbols-2-columns"],
    )
    def test_matches_the_per_cell_form(self, tmp_path, values, first_t):
        T = values.shape[0]
        start = 1 if first_t == "one" else T + 1
        table = values.reshape(T, -1)
        header = ["t"] + [f"c{j}" for j in range(table.shape[1])]
        path = str(tmp_path / "t.csv")
        write_table(path, header, values, first_t=start)
        expected = per_cell_text(header, [(start + i, *table[i]) for i in range(T)])
        assert open(path, newline="").read() == expected

    @pytest.mark.parametrize("kind", ["symbolic", "real"])
    def test_series_match_the_per_cell_form(self, tmp_path, kind):
        if kind == "symbolic":
            obs = ObservationSeries([0, 2, 1, 1], kind="symbolic")
            header = ["t", "y"]
        else:
            obs = ObservationSeries(np.array(EDGE_FLOATS[:8]).reshape(4, 2), kind="real")
            header = ["t", "y1", "y2"]
        path = str(tmp_path / "s.csv")
        write_series(path, obs)
        table = obs.values.reshape(len(obs), -1)
        expected = per_cell_text(header, [(i + 1, *row) for i, row in enumerate(table)])
        assert open(path, newline="").read() == expected

    @pytest.mark.parametrize("writer", ["table", "series"])
    def test_floats_go_through_the_module_formatter(self, tmp_path, monkeypatch, writer):
        # The formatter is looked up when a table is written, so replacing
        # it changes every float cell and leaves the t column alone.
        original = ssmkit.io._fmt
        monkeypatch.setattr(ssmkit.io, "_fmt", lambda x: "~" + original(x))
        path = str(tmp_path / "t.csv")
        if writer == "table":
            write_table(path, ["t", "a", "b", "c"], np.array(EDGE_FLOATS).reshape(4, 3))
        else:
            finite = np.array(EDGE_FLOATS[:8]).reshape(4, 2)
            write_series(path, ObservationSeries(finite, kind="real"))
        rows = [line.split(",") for line in open(path).read().splitlines()[1:]]
        assert [row[0] for row in rows] == ["1", "2", "3", "4"]
        assert all(cell.startswith("~") for row in rows for cell in row[1:])

    def test_unserializable_model_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_model(str(tmp_path / "m.json"), object())
