import hashlib
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import mcca
import mcca.data
from mcca.cli import main
from mcca.fileio import read_data_csv, write_data_csv, write_projections_csv


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

    @pytest.mark.parametrize(
        "option, match",
        [
            (("--k", 0), "k must be at least 1, got 0"),
            (("--gamma", -1), "gamma must be a finite number >= 0"),
            (("--rank-tol", 2), "rank_tol must lie strictly between 0 and 1"),
        ],
    )
    def test_options_checked_before_input_is_read(self, tmp_path, option, match):
        data, model = tmp_path / "bad.csv", tmp_path / "m.json"
        data.write_text("1,2\n3,4\n1,x\n5,6\n")  # line 3 is malformed
        code, _, err = run_cli("fit", "--input", data, "--dims", "1,1", *option, "--output", model)
        assert code == 2
        assert match in err and "line 3" not in err
        assert not model.exists()

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

    @pytest.mark.parametrize("s", [1e155, 1e-155, 1e200, 1e-200, 1e300, 1e-300, 2.0**1000, 2.0**-1000])
    def test_scaled_signals_exit_0(self, tmp_path, s):
        rng = np.random.default_rng(5)
        cols = rng.standard_normal((500, 3))
        cols[:, 1] += 0.7 * cols[:, 0]
        data = tmp_path / "p.csv"
        write_data_csv(data, s * cols)
        code, out, err = run_cli(
            "isc", "--input", data, "--dims", "1,1,1",
            env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"},
        )
        assert (code, err) == (0, "")
        want = mcca.isc(mcca.Projections(tuple(cols[:, l : l + 1] for l in range(3))), 0).rho
        assert abs(parse_isc(out)["rho"] - want) <= 1e-14

    def test_one_exemplar_exit_2_as_fit(self, tmp_path):
        data = tmp_path / "p.csv"
        write_data_csv(data, np.array([[1.0, 2.0]]))
        for args in (("isc",), ("fit", "--output", tmp_path / "m.json")):
            code, _, err = run_cli(*args, "--input", data, "--dims", "1,1")
            assert code == 2
            assert "need at least 2 exemplars, got 1" in err

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
        code, _, err = run_cli(
            "synth", "--n", 3, "--dims", "2,2", "--t", 10,
            "--output", tmp_path / "d.csv",
        )
        assert code == 2
        assert "--n 3 disagrees with --dims, which lists 2 sets" in err

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
README_PROJ_SHA256 = "5781a18295cf3c8c1367400e543bd2950ab7af1e48afdbb979c340aa790e44c2"
# the model files fitted on the README's demo.csv, by their fit options
README_MODEL_SHA256 = {
    "--k 3": "48eea29b8822b75bd4b29a95db174c75c670ddede3233292074c299f5a7f8165",
    "--method one-step --k 3": "1dbe65c035186f43e95bee9922be68d17f4e0ea8dc0bfb8d4afcaf2ea3429cff",
    "--method one-step --gamma 3": "30310f5736f4111ed255aaa47574cfaa1baeda1f24c0467c67f662abf72a8867",
}


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

    def test_readme_models(self, tmp_path):
        data, model = tmp_path / "demo.csv", tmp_path / "model.json"
        code, _, err = run_cli("synth", "--seed", 7, "--n", 3, "--dims", "4,4,4", "--t", 2000,
                               "--k", 2, "--snr", 10, "--output", data)
        assert code == 0, err
        digests = {}
        for options in README_MODEL_SHA256:
            code, _, err = run_cli("fit", "--input", data, "--dims", "4,4,4", *options.split(),
                                   "--output", model)
            assert code == 0, err
            digests[options] = sha256(model)
        assert digests == README_MODEL_SHA256

    @pytest.mark.parametrize(
        "synth, options, kwargs",
        [
            ("--n 3 --dims 4,4,4 --t 2000 --k 2", "--k 3", {"k": 3}),
            ("--n 3 --dims 4,4,4 --t 2000 --k 2", "--method one-step --k 3",
             {"method": "one-step", "k": 3}),
            ("--n 3 --dims 4,4,4 --t 2000 --k 2", "--method one-step --gamma 3",
             {"method": "one-step", "gamma": 3.0}),
            ("--dims 16,16,16,16 --t 6000 --k 2", "", {}),
            ("--dims 1,3,2 --t 500 --k 1", "", {}),
            ("--dims 1,1 --t 500 --k 1", "", {}),
            ("--dims 2,1,1 --t 500 --k 1", "--method one-step", {"method": "one-step"}),
        ],
        ids=["readme", "readme-one-step", "readme-gamma", "4x16", "1,3,2", "1,1", "2,1,1"],
    )
    def test_fit_writes_the_library_model(self, tmp_path, capsys, synth, options, kwargs):
        # rows that fit the covariance kernel's one buffer give the bits of
        # the in-memory covariance, so the streamed fit writes its model
        data, model, ref = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "ref.json"
        assert main(["synth", "--seed", "7", *synth.split(), "--snr", "10",
                     "--output", str(data)]) == 0
        dims = synth.split()[synth.split().index("--dims") + 1]
        assert main(["fit", "--input", str(data), "--dims", dims, *options.split(),
                     "--output", str(model)]) == 0
        x = read_data_csv(data)
        sets = [x[:, sl] for sl in mcca.data.block_slices(map(int, dims.split(",")))]
        mcca.save_model(mcca.fit(mcca.load(sets), **kwargs), ref)
        assert model.read_bytes() == ref.read_bytes()
        capsys.readouterr()

    def test_readme_models_load(self, tmp_path):
        data, model = tmp_path / "demo.csv", tmp_path / "model.json"
        code, _, err = run_cli("synth", "--seed", 7, "--n", 3, "--dims", "4,4,4", "--t", 2000,
                               "--k", 2, "--snr", 10, "--output", data)
        assert code == 0, err
        for options in README_MODEL_SHA256:
            code, _, err = run_cli("fit", "--input", data, "--dims", "4,4,4", *options.split(),
                                   "--output", model)
            assert code == 0, err
            assert mcca.load_model(model).dims == (4, 4, 4)


class TestNoPartialOutputs:
    """A failed command leaves no new file and every old file as it was."""

    def test_synth_unwritable_latents_leaves_no_data_file(self, tmp_path):
        data = tmp_path / "d.csv"
        code, _, err = run_cli("synth", "--dims", "2,2", "--t", 10, "--output", data,
                               "--latents", tmp_path / "nodir" / "l.csv")
        assert code == 2
        assert str(tmp_path / "nodir" / "l.csv") in err
        assert os.listdir(tmp_path) == []

    def test_fit_refuses_unwritable_output_before_reading(self, tmp_path):
        # the input does not exist either: the output is checked first
        out = tmp_path / "nodir" / "m.json"
        code, _, err = run_cli("fit", "--input", tmp_path / "missing.csv", "--dims", "1,1",
                               "--output", out)
        assert code == 2
        assert str(out) in err and "missing.csv" not in err

    def test_fit_refuses_a_directory_as_output(self, tmp_path):
        data, out = tmp_path / "d.csv", tmp_path / "m.json"
        write_perfect_pair(data)
        out.mkdir()
        code, _, err = run_cli("fit", "--input", data, "--dims", "1,1", "--output", out)
        assert code == 2
        assert str(out) in err
        assert sorted(os.listdir(tmp_path)) == ["d.csv", "m.json"] and os.listdir(out) == []

    @pytest.mark.parametrize("command", ["fit", "transform", "synth"])
    def test_failed_run_keeps_old_output(self, tmp_path, command):
        data, model, out = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "out"
        rng = np.random.default_rng(5)
        write_data_csv(data, rng.standard_normal((40, 4)))
        assert run_cli("fit", "--input", data, "--dims", "2,2", "--output", model)[0] == 0
        # a bad field far past the first row batch
        data.write_text(data.read_text() + "1.0,2.0,x,4.0\n")
        out.write_bytes(b"old bytes")
        before = sorted(os.listdir(tmp_path))
        args = {
            "fit": ("fit", "--input", data, "--dims", "2,2", "--output", out),
            "transform": ("transform", "--input", data, "--dims", "2,2", "--model", model,
                          "--output", out),
            "synth": ("synth", "--dims", "2,2", "--t", 50, "--k", 3, "--output", out),
        }[command]
        code, _, err = run_cli(*args)
        assert code == 2, err
        assert out.read_bytes() == b"old bytes"
        assert sorted(os.listdir(tmp_path)) == before

    def test_degenerate_fit_keeps_old_model(self, tmp_path):
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        data.write_text("1,5\n1,6\n1,7\n")
        model.write_bytes(b"{}")
        code, _, _ = run_cli("fit", "--input", data, "--dims", "1,1", "--output", model)
        assert code == 3
        assert model.read_bytes() == b"{}" and sorted(os.listdir(tmp_path)) == ["d.csv", "m.json"]

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_device_written_in_place(self, tmp_path):
        assert run_cli("synth", "--dims", "2,2", "--t", 10, "--output", "/dev/null")[0] == 0
        assert run_cli("synth", "--dims", "2,2", "--t", 10, "--output", "/dev/null",
                       "--latents", "/dev/null")[0] == 0
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)

    @pytest.mark.parametrize("alias", [False, True], ids=["same-path", "symlink"])
    def test_synth_refuses_one_file_for_both_outputs(self, tmp_path, alias):
        out = tmp_path / "d.csv"
        out.write_bytes(b"old")
        latents = out
        if alias:
            latents = tmp_path / "link.csv"
            latents.symlink_to(out.name)
        code, _, err = run_cli("synth", "--dims", "2,2", "--t", 10, "--output", out,
                               "--latents", latents)
        assert code == 2
        assert f"{latents}: another output is the same file, {os.path.realpath(out)}" in err
        assert out.read_bytes() == b"old"
        assert sorted(os.listdir(tmp_path)) == ["d.csv", "link.csv"][: 1 + alias]

    def test_link_target_replaced(self, tmp_path):
        target, link = tmp_path / "d.csv", tmp_path / "link.csv"
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert run_cli("synth", "--dims", "2,2", "--t", 10, "--output", link)[0] == 0
        assert link.is_symlink() and target.read_bytes() == link.read_bytes() != b"old"

    def test_output_keeps_umask_mode(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("synth", "--dims", "2,2", "--t", 10, "--output", out)[0] == 0
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask


class TestStreamedCommands:
    """Batched commands write the bytes of the in-memory pipeline.

    Projecting 16 features onto 3 components is a shape where batches
    that end inside a 16-row block change the bits of the product.
    """

    B = 32  # rows per batch under the patched _BATCH_BYTES below

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        # batch_rows(width) == 32 for the 32 columns used here
        monkeypatch.setattr(mcca.data, "_BATCH_BYTES", 2 * 128 * 32)
        assert mcca.data.batch_rows(32) == self.B

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_synth_and_transform_match_in_memory(self, tmp_path, m, extra, capsys):
        t = m * self.B + extra
        data, latents = tmp_path / "d.csv", tmp_path / "l.csv"
        model, proj = tmp_path / "m.json", tmp_path / "p.csv"
        dims = ("--dims", "16,16")
        assert main(["synth", "--seed", "3", *dims, "--t", str(t), "--k", "2", "--snr", "5",
                     "--output", str(data), "--latents", str(latents)]) == 0
        spec = mcca.SynthSpec(seed=3, dims=(16, 16), n_exemplars=t, n_components=2, snr=5.0)
        result = mcca.generate(spec)
        write_data_csv(tmp_path / "d_ref.csv", np.hstack(result.data.sets))
        write_data_csv(tmp_path / "l_ref.csv", result.latents)
        assert data.read_bytes() == (tmp_path / "d_ref.csv").read_bytes()
        assert latents.read_bytes() == (tmp_path / "l_ref.csv").read_bytes()

        assert main(["fit", "--input", str(data), *dims, "--k", "3", "--output", str(model)]) == 0
        assert main(["transform", "--input", str(data), *dims, "--model", str(model),
                     "--output", str(proj)]) == 0
        signals = mcca.transform(mcca.load_model(model), result.data).signals
        write_projections_csv(tmp_path / "p_ref.csv", signals)
        assert proj.read_bytes() == (tmp_path / "p_ref.csv").read_bytes()
        capsys.readouterr()

    def test_synth_batches_split_at_whole_blocks(self):
        spec = mcca.SynthSpec(seed=1, dims=(16, 16), n_exemplars=3 * self.B + 1, n_components=1)
        _, batches = mcca.synth.row_batches(spec)
        rows = [len(lat) for lat, _ in batches]
        assert rows == [self.B, self.B, self.B + 1]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from procfs")
def test_peak_memory_does_not_grow_with_t(tmp_path):
    """Each command's peak resident set at 8 T is within 2 MB of that at T.

    Each command runs in a child that reports its own VmHWM: the peak of
    its own address space, which the parent's ru_maxrss cannot give.
    """
    report = ("import sys; from mcca.cli import main; code = main(sys.argv[1:]); "
              "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0], "
              "file=sys.stderr); sys.exit(code)")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def peaks(t):
        work = tmp_path / str(t)
        work.mkdir()
        data, model, proj = work / "d.csv", work / "m.json", work / "p.csv"
        dims = ("--dims", "4,4")
        commands = {
            "synth": ("synth", "--seed", 1, *dims, "--t", t, "--k", 2, "--snr", 4, "--output", data),
            "fit": ("fit", "--input", data, *dims, "--k", 2, "--output", model),
            "transform": ("transform", "--input", data, *dims, "--model", model, "--output", proj),
            "isc": ("isc", "--input", proj, "--dims", "2,2"),
        }
        kib = {}
        for name, args in commands.items():
            proc = subprocess.run([sys.executable, "-c", report, *map(str, args)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            kib[name] = int(proc.stderr.split()[-1])
        return kib

    small, large = peaks(2000), peaks(16000)
    growth = {name: (large[name] - small[name]) * 1024 / 1e6 for name in small}
    print(growth)
    assert all(mb <= 2.0 for mb in growth.values()), growth


def test_import_starts_no_thread_and_no_executor():
    # every command pays a fresh import; an executor module costs each one milliseconds
    code = (
        "import sys, threading, mcca.cli\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "1"]
