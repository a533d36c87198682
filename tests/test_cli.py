import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mcca
from mcca.fileio import read_data_csv, write_data_csv


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "mcca", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_perfect_pair(path):
    x = np.arange(1.0, 9.0)
    write_data_csv(path, np.column_stack([x, 2.0 * x]))


def parse_table(stdout):
    lines = [ln for ln in stdout.strip().splitlines() if ln]
    header = lines[0].split()
    rows = [[float(tok) for tok in ln.split()] for ln in lines[1:]]
    return header, rows


def parse_isc(stdout):
    out = {}
    for line in stdout.strip().splitlines():
        key, value = line.split(maxsplit=1)
        out[key] = float(value)
    return out


class TestFit:
    def test_perfect_pair_table(self, tmp_path):
        data = tmp_path / "d.csv"
        model = tmp_path / "m.json"
        write_perfect_pair(data)
        code, out, err = run_cli(
            "fit", "--input", data, "--dims", "1,1", "--output", model
        )
        assert code == 0, err
        header, rows = parse_table(out)
        assert header == ["component", "lambda", "rho_analytic", "rho_empirical"]
        assert f"{rows[0][2]:.6f}" == "1.000000"
        assert model.exists()

    def test_dims_sum_mismatch(self, tmp_path):
        data = tmp_path / "d.csv"
        write_perfect_pair(data)
        code, out, err = run_cli(
            "fit", "--input", data, "--dims", "1,2", "--output", tmp_path / "m.json"
        )
        assert code == 2
        assert out == ""
        assert "columns" in err

    def test_degenerate_set_exit_3(self, tmp_path):
        data = tmp_path / "d.csv"
        arr = np.column_stack([np.ones(6), np.arange(6.0)])
        write_data_csv(data, arr)
        code, _, err = run_cli(
            "fit", "--input", data, "--dims", "1,1", "--output", tmp_path / "m.json"
        )
        assert code == 3
        assert "set 1" in err

    def test_one_step_on_singular_exit_3(self, tmp_path):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((10, 2))
        arr = np.hstack([base, base[:, :1], rng.standard_normal((10, 2))])
        data = tmp_path / "d.csv"
        write_data_csv(data, arr)
        code, _, err = run_cli(
            "fit", "--input", data, "--dims", "3,2", "--method", "one-step",
            "--output", tmp_path / "m.json",
        )
        assert code == 3
        assert "singular" in err

    def test_one_step_on_tiny_scale_exit_3(self, tmp_path):
        rng = np.random.default_rng(5)
        shared = rng.standard_normal((500, 1))
        arr = np.hstack([shared + rng.standard_normal((500, 4)) for _ in range(3)])
        data = tmp_path / "d.csv"
        write_data_csv(data, arr * 1e-160)
        code, _, err = run_cli(
            "fit", "--input", data, "--dims", "4,4,4", "--method", "one-step",
            "--output", tmp_path / "m.json",
        )
        assert code == 3
        assert "data set" in err and "fit_two_step" in err

    def test_missing_input_exit_2(self, tmp_path):
        code, _, err = run_cli(
            "fit", "--input", tmp_path / "nope.csv", "--dims", "1,1",
            "--output", tmp_path / "m.json",
        )
        assert code == 2
        assert str(tmp_path / "nope.csv") in err and "No such file" in err

    def test_unwritable_output_exit_2(self, tmp_path):
        data = tmp_path / "d.csv"
        write_perfect_pair(data)
        out = tmp_path / "no-such-dir" / "m.json"
        code, _, err = run_cli("fit", "--input", data, "--dims", "1,1", "--output", out)
        assert code == 2
        assert str(out) in err

    def test_dims_rule_exit_2(self, tmp_path):
        code, _, err = run_cli(
            "fit", "--input", tmp_path / "d.csv", "--dims", "0,2", "--output", tmp_path / "m.json"
        )
        assert code == 2
        assert "dims entry 1 must be an integer >= 1, got 0" in err

    def test_non_finite_first_row_exit_2(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("nan,1\n2,3\n4,5\n")
        code, _, err = run_cli("fit", "--input", data, "--dims", "1,1", "--output", tmp_path / "m.json")
        assert code == 2
        assert "line 1, column 1: value 'nan' is not finite" in err

    def test_k_flag(self, tmp_path):
        rng = np.random.default_rng(1)
        data = tmp_path / "d.csv"
        write_data_csv(data, rng.standard_normal((12, 4)))
        code, out, _ = run_cli(
            "fit", "--input", data, "--dims", "2,2", "--k", "1",
            "--output", tmp_path / "m.json",
        )
        assert code == 0
        _, rows = parse_table(out)
        assert len(rows) == 1

    def test_bad_flag_exit_2(self, tmp_path):
        code, _, _ = run_cli("fit", "--nonsense", "x")
        assert code == 2


class TestTransform:
    @pytest.fixture()
    def fitted(self, tmp_path):
        rng = np.random.default_rng(2)
        shared = rng.standard_normal(20)
        arr = np.hstack(
            [
                rng.standard_normal((20, 2)) + np.outer(shared, rng.standard_normal(2)),
                rng.standard_normal((20, 3)) + np.outer(shared, rng.standard_normal(3)),
            ]
        )
        data = tmp_path / "d.csv"
        model = tmp_path / "m.json"
        write_data_csv(data, arr)
        code, _, err = run_cli(
            "fit", "--input", data, "--dims", "2,3", "--output", model
        )
        assert code == 0, err
        return data, model, arr

    def test_roundtrip_matches_in_memory(self, tmp_path, fitted):
        data, model_path, arr = fitted
        out_csv = tmp_path / "p.csv"
        code, _, err = run_cli(
            "transform", "--input", data, "--dims", "2,3",
            "--model", model_path, "--output", out_csv,
        )
        assert code == 0, err
        model = mcca.load_model(model_path)
        proj = mcca.transform(model, mcca.load([arr[:, :2], arr[:, 2:]]))
        expect = np.hstack(proj.signals)
        got = read_data_csv(out_csv)
        assert got.shape == expect.shape
        assert np.abs(got - expect).max() <= 1e-12

    def test_header_names_sets_and_components(self, tmp_path, fitted):
        data, model_path, _ = fitted
        out_csv = tmp_path / "p.csv"
        run_cli(
            "transform", "--input", data, "--dims", "2,3",
            "--model", model_path, "--output", out_csv,
        )
        header = out_csv.read_text().splitlines()[0].split(",")
        assert header[0] == "set1_comp1"
        assert header[-1].startswith("set2_comp")

    def test_dims_mismatch_exit_2(self, tmp_path, fitted):
        data, model_path, _ = fitted
        code, _, err = run_cli(
            "transform", "--input", data, "--dims", "3,2",
            "--model", model_path, "--output", tmp_path / "p.csv",
        )
        assert code == 2
        assert "dims" in err

    def test_non_finite_model_exit_2(self, tmp_path, fitted):
        data, model_path, _ = fitted
        doc = json.loads(model_path.read_text())
        doc["V"][0][0][0] = None
        model_path.write_text(json.dumps(doc))
        out_csv = tmp_path / "p.csv"
        code, out, err = run_cli(
            "transform", "--input", data, "--dims", "2,3",
            "--model", model_path, "--output", out_csv,
        )
        assert code == 2
        assert "V block 1" in err
        assert not out_csv.exists()


    def test_unwritable_output_exit_2(self, tmp_path, fitted):
        data, model_path, _ = fitted
        out = tmp_path / "no-such-dir" / "p.csv"
        code, _, err = run_cli(
            "transform", "--input", data, "--dims", "2,3", "--model", model_path, "--output", out,
        )
        assert code == 2
        assert str(out) in err

    @pytest.mark.parametrize("bad", ["data", "model"])
    def test_not_utf8_names_the_file_exit_2(self, tmp_path, fitted, bad):
        data, model_path, _ = fitted
        path = data if bad == "data" else model_path
        path.write_bytes(path.read_bytes() + b"\xff")
        code, _, err = run_cli(
            "transform", "--input", data, "--dims", "2,3",
            "--model", model_path, "--output", tmp_path / "p.csv",
        )
        assert code == 2
        assert f"{path}: not valid UTF-8" in err

    @pytest.mark.parametrize(
        "key, value", [("V", 5), ("reg", []), ("dims", ["a", 1]), ("means", 3.0)]
    )
    def test_malformed_model_exit_2(self, tmp_path, fitted, key, value):
        data, model_path, _ = fitted
        doc = json.loads(model_path.read_text())
        doc[key] = value
        model_path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            "transform", "--input", data, "--dims", "2,3",
            "--model", model_path, "--output", tmp_path / "p.csv",
        )
        assert code == 2
        assert f"{key} must be" in err


class TestIsc:
    def test_hand_case(self, tmp_path):
        data = tmp_path / "p.csv"
        write_data_csv(data, np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0]]))
        code, out, err = run_cli("isc", "--input", data, "--dims", "1,1")
        assert code == 0, err
        parsed = parse_isc(out)
        assert parsed["r_between"] == 2.0
        assert parsed["r_within"] == 4.0
        assert parsed["rho"] == 0.5

    def test_identical_columns(self, tmp_path):
        data = tmp_path / "p.csv"
        col = np.arange(5.0)
        write_data_csv(data, np.column_stack([col, col, col]))
        code, out, _ = run_cli("isc", "--input", data, "--dims", "1,1,1")
        assert code == 0
        assert abs(parse_isc(out)["rho"] - 1.0) <= 1e-12

    def test_anticorrelated_pair(self, tmp_path):
        data = tmp_path / "p.csv"
        col = np.array([1.0, 3.0, 6.0])
        write_data_csv(data, np.column_stack([col, -col]))
        code, out, _ = run_cli("isc", "--input", data, "--dims", "1,1")
        assert code == 0
        assert abs(parse_isc(out)["rho"] + 1.0) <= 1e-12

    def test_component_selection(self, tmp_path):
        data = tmp_path / "p.csv"
        rng = np.random.default_rng(3)
        y = rng.standard_normal((10, 1))
        other = rng.standard_normal((10, 1))
        arr = np.hstack([y, other, y, rng.standard_normal((10, 1))])
        write_data_csv(data, arr)
        code, out, _ = run_cli("isc", "--input", data, "--dims", "2,2", "--k", "1")
        assert code == 0
        assert abs(parse_isc(out)["rho"] - 1.0) <= 1e-12
        code, out, _ = run_cli("isc", "--input", data, "--dims", "2,2", "--k", "2")
        assert code == 0
        assert parse_isc(out)["rho"] < 0.99

    def test_zero_variance_exit_3(self, tmp_path):
        data = tmp_path / "p.csv"
        write_data_csv(data, np.ones((4, 2)))
        code, _, err = run_cli("isc", "--input", data, "--dims", "1,1")
        assert code == 3
        assert "variance" in err

    def test_k_out_of_range_exit_2(self, tmp_path):
        data = tmp_path / "p.csv"
        write_data_csv(data, np.random.default_rng(4).standard_normal((5, 2)))
        code, _, _ = run_cli("isc", "--input", data, "--dims", "1,1", "--k", "2")
        assert code == 2

    def test_k_zero_names_range(self, tmp_path):
        data = tmp_path / "p.csv"
        write_data_csv(data, np.random.default_rng(4).standard_normal((5, 4)))
        code, _, err = run_cli("isc", "--input", data, "--dims", "2,2", "--k", "0")
        assert code == 2
        assert "--k must lie in [1, 2], got 0" in err

    def test_locale_independent_output(self, tmp_path):
        data = tmp_path / "p.csv"
        write_data_csv(data, np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0]]))
        _, base, _ = run_cli("isc", "--input", data, "--dims", "1,1")
        _, localized, _ = run_cli(
            "isc", "--input", data, "--dims", "1,1",
            env_extra={"LC_ALL": "de_DE.UTF-8", "LANG": "de_DE.UTF-8"},
        )
        assert base == localized


class TestSynth:
    def test_deterministic_files(self, tmp_path):
        args = lambda out, lat: (
            "synth", "--seed", 9, "--dims", "3,3", "--t", 30, "--k", 1,
            "--snr", 5.0, "--output", out, "--latents", lat,
        )
        a, la = tmp_path / "a.csv", tmp_path / "la.csv"
        b, lb = tmp_path / "b.csv", tmp_path / "lb.csv"
        assert run_cli(*args(a, la))[0] == 0
        assert run_cli(*args(b, lb))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert la.read_bytes() == lb.read_bytes()

    def test_k_exceeding_dims_exit_2(self, tmp_path):
        code, _, err = run_cli(
            "synth", "--dims", "2,2", "--t", 10, "--k", 3,
            "--output", tmp_path / "d.csv",
        )
        assert code == 2
        assert "component" in err

    @pytest.mark.parametrize("flag", ["--output", "--latents"])
    def test_unwritable_path_exit_2(self, tmp_path, flag):
        paths = {"--output": tmp_path / "d.csv", "--latents": tmp_path / "l.csv"}
        paths[flag] = tmp_path / "no-such-dir" / "x.csv"
        code, _, err = run_cli(
            "synth", "--dims", "2,2", "--t", 10,
            "--output", paths["--output"], "--latents", paths["--latents"],
        )
        assert code == 2
        assert str(paths[flag]) in err

    def test_n_must_match_dims(self, tmp_path):
        code, _, _ = run_cli(
            "synth", "--n", 3, "--dims", "2,2", "--t", 10,
            "--output", tmp_path / "d.csv",
        )
        assert code == 2

    def test_end_to_end_fit(self, tmp_path):
        data = tmp_path / "d.csv"
        code, _, err = run_cli(
            "synth", "--seed", 42, "--dims", "3,3", "--t", 100, "--k", 1,
            "--output", data,
        )
        assert code == 0, err
        code, out, err = run_cli(
            "fit", "--input", data, "--dims", "3,3",
            "--output", tmp_path / "m.json",
        )
        assert code == 0, err
        _, rows = parse_table(out)
        assert rows[0][2] >= 0.999999

    def test_fit_reports_k_components(self, tmp_path):
        data = tmp_path / "d.csv"
        run_cli(
            "synth", "--seed", 1, "--dims", "3,4", "--t", 200, "--k", 2,
            "--snr", 8.0, "--output", data,
        )
        code, out, err = run_cli(
            "fit", "--input", data, "--dims", "3,4", "--k", 2,
            "--output", tmp_path / "m.json",
        )
        assert code == 0, err
        _, rows = parse_table(out)
        assert len(rows) == 2


class TestPipeline:
    def test_transform_isc_matches_model(self, tmp_path):
        data = tmp_path / "d.csv"
        model = tmp_path / "m.json"
        proj = tmp_path / "p.csv"
        run_cli(
            "synth", "--seed", 4, "--dims", "3,2", "--t", 150, "--k", 1,
            "--snr", 6.0, "--output", data,
        )
        run_cli("fit", "--input", data, "--dims", "3,2", "--output", model)
        run_cli(
            "transform", "--input", data, "--dims", "3,2",
            "--model", model, "--output", proj,
        )
        doc = json.loads(model.read_text())
        k = len(doc["lambda"])
        code, out, err = run_cli("isc", "--input", proj, "--dims", f"{k},{k}", "--k", 1)
        assert code == 0, err
        assert abs(parse_isc(out)["rho"] - doc["rho_empirical"][0]) <= 1e-9


# SHA-256 of the CLI's text output: the synth files below and the README's
# projections; speed work on the writer or the generator must keep them
SYNTH_SHA256 = {
    "data": "2e9e882f3913bf35bdad68a67273fc8bd1054319c5a2df698b4c5e6a97a3e71a",
    "latents": "c813ce31a828453967879ab2fceaf1c4f02d17b8d72dfaebe7e704ce7ccefa35",
}
README_PROJ_SHA256 = "8dc4c036ebbb92a34e5a8d2c37156d176fdb50c921e8388df3fa2920ea55b755"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestOutputBytes:
    def test_synth_files(self, tmp_path):
        data, latents = tmp_path / "d.csv", tmp_path / "l.csv"
        code, _, err = run_cli(
            "synth", "--seed", 911, "--dims", "16,16,16,16", "--t", 600, "--k", 2,
            "--snr", 4, "--output", data, "--latents", latents,
        )
        assert code == 0, err
        assert {"data": sha256(data), "latents": sha256(latents)} == SYNTH_SHA256

    def test_readme_projections(self, tmp_path):
        data, model, proj = tmp_path / "demo.csv", tmp_path / "model.json", tmp_path / "proj.csv"
        dims = ("--dims", "4,4,4")
        for args in (
            ("synth", "--seed", 7, "--n", 3, *dims, "--t", 2000, "--k", 2, "--snr", 10,
             "--output", data),
            ("fit", "--input", data, *dims, "--k", 3, "--output", model),
            ("transform", "--input", data, *dims, "--model", model, "--output", proj),
        ):
            code, _, err = run_cli(*args)
            assert code == 0, err
        assert sha256(proj) == README_PROJ_SHA256
