"""Model documents and series files: round trips and precise failure modes."""

import glob
import json
import os

import numpy as np
import pytest

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
        doc = {
            "type": "discrete_hmm",
            "initial": ["a"],
            "transition": [[1.0]],
            "emission": [[1.0]],
        }
        with pytest.raises(DataFormatError, match='"initial"'):
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


class TestWriters:
    def test_int_and_float_formatting(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table(path, ["t", "v"], [(1, 1 / 3), (2, 2.0)])
        text = open(path).read()
        assert text == "t,v\n1,0.33333333333333331\n2,2\n"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table(path, ["t", "v"], [(1, 0.5)])
        write_table(path, ["t", "v"], [(1, 0.75)])  # overwrite in place
        assert glob.glob(str(tmp_path / "*.tmp")) == []
        assert open(path).read() == "t,v\n1,0.75\n"

    def test_missing_directory_raises_oserror(self, tmp_path):
        target = str(tmp_path / "no_such_dir" / "t.csv")
        with pytest.raises(OSError):
            write_table(target, ["t"], [(1,)])
        assert not os.path.exists(target)

    def test_unserializable_model_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_model(str(tmp_path / "m.json"), object())
