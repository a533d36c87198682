import json

import numpy as np
import pytest

import mcca
from helpers import random_instance
from mcca import (
    DataError,
    DimensionError,
    load_model,
    read_data_csv,
    save_model,
    write_data_csv,
)
from mcca.fileio import projection_header, write_projections_csv


class TestDataCsv:
    def test_roundtrip_without_header(self, tmp_path):
        path = tmp_path / "d.csv"
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((7, 3)) * np.array([1e-12, 1.0, 1e14])
        write_data_csv(path, arr)
        back = read_data_csv(path)
        assert np.array_equal(back, arr)

    def test_roundtrip_with_header(self, tmp_path):
        path = tmp_path / "d.csv"
        write_data_csv(path, np.arange(6.0).reshape(3, 2), header=["a", "b"])
        back = read_data_csv(path)
        assert np.array_equal(back, np.arange(6.0).reshape(3, 2))

    def test_numeric_first_row_is_data(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.5,2.5\n3.5,4.5\n")
        assert read_data_csv(path).shape == (2, 2)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n3,4,5\n")
        with pytest.raises(DataError, match="line 3"):
            read_data_csv(path)

    def test_bad_field_names_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(DataError, match="line 2, column 2"):
            read_data_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,inf\n")
        with pytest.raises(DataError, match="not finite"):
            read_data_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no data"):
            read_data_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataError):
            read_data_csv(path)

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "d.csv"
        arr = np.array(
            [[-0.0, 1e16, 1e-5, 0.1, 5e-324], [1.0, -2.5, 1e300, 3e-310, 123.0]]
        )
        write_data_csv(path, arr, header=["a", "b c", "d,e", "f", "g"])
        assert path.read_bytes() == (
            b'a,b c,"d,e",f,g\r\n'
            b"-0.0,1e+16,1e-05,0.1,5e-324\r\n"
            b"1.0,-2.5,1e+300,3e-310,123.0\r\n"
        )
        back = read_data_csv(path)
        assert np.array_equal(back, arr) and np.signbit(back[0, 0])

    def test_accepted_field_forms(self, tmp_path):
        # quoted fields, padded whitespace, blank lines, CRLF and digit
        # separators all parse as float() parses them
        path = tmp_path / "d.csv"
        path.write_bytes(
            b'"x", y\r\n\r\n"1.5", 2\r\n 3 ,"4_0"\r\n\n1_000,-0\r\n\t.5e1\t,+7.\n'
        )
        back = read_data_csv(path)
        assert np.array_equal(
            back, [[1.5, 2.0], [3.0, 40.0], [1000.0, -0.0], [5.0, 7.0]]
        )
        assert np.signbit(back[2, 1])

    @pytest.mark.parametrize(
        "text, match",
        [
            ("1,2\n3,x\n4,5,6\n", r"line 2, column 2: 'x' is not a number"),
            ("1,2\n4,5,6\n3,x\n", r"line 2 has 3 fields, expected 2"),
            ("a,b\n1,2\n\n3,4,5\n6,x\n", r"line 4 has 3 fields, expected 2"),
            ("a,b\n1,2\n6,x\n\n3,4,5\n", r"line 3, column 2: 'x' is not a number"),
            ("1,2\n3,1e999\n4,5,6\n", r"line 2, column 2: value '1e999' is not finite"),
            ("1,2\n4,5,6\n3,nan\n", r"line 2 has 3 fields, expected 2"),
        ],
    )
    def test_first_bad_line_wins(self, tmp_path, text, match):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=match):
            read_data_csv(path)

    def test_header_mismatch_leaves_file_untouched(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("keep\n")
        with pytest.raises(DimensionError, match="header has 1 names for 2 columns"):
            write_data_csv(path, np.zeros((3, 2)), header=["a"])
        assert path.read_text() == "keep\n"

    def test_projection_header_layout(self):
        assert projection_header(2, 2) == [
            "set1_comp1",
            "set1_comp2",
            "set2_comp1",
            "set2_comp2",
        ]

    def test_projections_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        s1 = np.arange(4.0).reshape(2, 2)
        s2 = np.arange(4.0, 8.0).reshape(2, 2)
        write_projections_csv(path, (s1, s2))
        text = path.read_text().splitlines()
        assert text[0] == "set1_comp1,set1_comp2,set2_comp1,set2_comp2"
        assert np.array_equal(read_data_csv(path), np.hstack([s1, s2]))


class TestModelFile:
    def make_model(self, gamma=0.0):
        data = random_instance(np.random.default_rng(1), (2, 3), 25)
        return mcca.fit(data, gamma=gamma)

    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "m.json"
        model = self.make_model()
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.lambdas, model.lambdas)
        assert np.array_equal(back.V, model.V)
        assert np.array_equal(back.rho_analytic, model.rho_analytic)
        assert back.dims == model.dims
        assert back.method == model.method
        assert back.reg == model.reg
        for a, b in zip(back.means, model.means):
            assert np.array_equal(a, b)

    def test_nan_rho_becomes_null(self, tmp_path):
        path = tmp_path / "m.json"
        model = self.make_model()
        patched = mcca.MccaModel(
            V=model.V,
            lambdas=model.lambdas,
            rho_analytic=model.rho_analytic,
            rho_empirical=np.array([np.nan] + [0.0] * (model.n_components - 1)),
            dims=model.dims,
            means=model.means,
            method=model.method,
            reg=model.reg,
        )
        save_model(patched, path)
        doc = json.loads(path.read_text())
        assert doc["rho_empirical"][0] is None
        back = load_model(path)
        assert np.isnan(back.rho_empirical[0])

    def test_schema_fields_present(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(self.make_model(), path)
        doc = json.loads(path.read_text())
        for key in ("schema_version", "dims", "means", "method", "reg",
                    "lambda", "rho_analytic", "rho_empirical", "V"):
            assert key in doc
        assert doc["schema_version"] == 1
        assert set(doc["reg"]) == {"gamma", "rank_tol", "ranks"}

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(self.make_model(), path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="schema_version"):
            load_model(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(self.make_model(), path)
        doc = json.loads(path.read_text())
        del doc["lambda"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="lambda"):
            load_model(path)

    def test_block_shape_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(self.make_model(), path)
        doc = json.loads(path.read_text())
        doc["V"][0] = doc["V"][0][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="V block 1"):
            load_model(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            load_model(path)

    def write_with_entry(self, path, where, token):
        """Save a model, then put the raw JSON ``token`` at ``doc[where...]``."""
        save_model(self.make_model(), path)
        doc = json.loads(path.read_text())
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = "@entry@"
        path.write_text(json.dumps(doc).replace('"@entry@"', token))

    PLACES = {
        "V block 2": ("V", 1, 0, 1),
        "means block 1": ("means", 0, 1),
        "lambda": ("lambda", 0),
        "rho_analytic": ("rho_analytic", 1),
    }
    BAD_TOKENS = [
        "1e999", "-1e999", "Infinity", "-Infinity", "true", '"1.5"', "[1.0]",
        pytest.param("1" + "0" * 400, id="1e400-as-integer"),
    ]

    @pytest.mark.parametrize("field", list(PLACES))
    @pytest.mark.parametrize("token", ["null", "NaN"] + BAD_TOKENS)
    def test_non_finite_or_non_numeric_entry_rejected(self, tmp_path, field, token):
        path = tmp_path / "m.json"
        self.write_with_entry(path, self.PLACES[field], token)
        with pytest.raises(DataError, match=field):
            load_model(path)

    @pytest.mark.parametrize("token", BAD_TOKENS)
    def test_rho_empirical_rejects_all_but_nan(self, tmp_path, token):
        path = tmp_path / "m.json"
        self.write_with_entry(path, ("rho_empirical", 0), token)
        with pytest.raises(DataError, match="rho_empirical"):
            load_model(path)

    @pytest.mark.parametrize("token", ["null", "NaN"])
    def test_rho_empirical_nan_loads(self, tmp_path, token):
        path = tmp_path / "m.json"
        self.write_with_entry(path, ("rho_empirical", 0), token)
        assert np.isnan(load_model(path).rho_empirical[0])

    def test_integer_entry_loads_as_float(self, tmp_path):
        path = tmp_path / "m.json"
        self.write_with_entry(path, self.PLACES["V block 2"], "2")
        back = load_model(path)
        assert back.V.dtype == np.float64 and back.V[2, 1] == 2.0

    def test_rho_length_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(self.make_model(), path)
        doc = json.loads(path.read_text())
        doc["rho_analytic"].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="rho_analytic has shape"):
            load_model(path)

    def test_loaded_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(self.make_model(), path)
        back = load_model(path)
        for arr in (back.V, back.lambdas, back.rho_analytic, back.rho_empirical, *back.means):
            assert not arr.flags.writeable

    def test_one_step_rank_tol_null(self, tmp_path):
        data = random_instance(np.random.default_rng(2), (2, 2), 30)
        model = mcca.fit(data, method="one-step")
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["reg"]["rank_tol"] is None
        assert load_model(path).reg.rank_tol is None
