import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mcca
import mcca.cli
from helpers import (
    random_instance,
    read_data_csv_whole,
    save_model_json_dump,
    write_data_csv_csvwriter,
)
from mcca import (
    DataError,
    DimensionError,
    load_model,
    read_data_csv,
    save_model,
    write_data_csv,
)
from mcca.fileio import write_projections_csv


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
            ('a,"b\nc"\n1,2\n4,x\n', r"line 4, column 2: 'x' is not a number"),
        ],
    )
    def test_first_bad_line_wins(self, tmp_path, text, match):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=match):
            read_data_csv(path)

    @pytest.mark.parametrize("header", [b"", b"a,b\r\n"], ids=["no-header", "header"])
    def test_byte_order_mark_skipped(self, tmp_path, header):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbf" + header + b"1.0,2.0\r\n3.0,4.0\r\n")
        assert np.array_equal(read_data_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "text, match",
        [
            ("nan,1\n2,3\n", r"line 1, column 1: value 'nan' is not finite"),
            ("1,-inf\n2,3\n", r"line 1, column 2: value '-inf' is not finite"),
            ("inf,nan\n", r"line 1, column 1: value 'inf' is not finite"),
        ],
    )
    def test_non_finite_first_row_is_data(self, tmp_path, text, match):
        # a header needs a field that is not a number; these are numbers
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=match):
            read_data_csv(path)

    @pytest.mark.parametrize("lines_before", [0, 20000])
    def test_not_utf8_names_path(self, tmp_path, lines_before):
        path = tmp_path / "d.csv"
        path.write_bytes(b"1,2\n" * lines_before + b"3,\xff\n")
        with pytest.raises(DataError, match="not valid UTF-8") as exc:
            read_data_csv(path)
        assert str(path) in str(exc.value)

    def test_header_mismatch_leaves_file_untouched(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("keep\n")
        with pytest.raises(DimensionError, match="header has 1 names for 2 columns"):
            write_data_csv(path, np.zeros((3, 2)), header=["a"])
        assert path.read_text() == "keep\n"

    @pytest.mark.parametrize(
        "array, error, match",
        [
            ([[1.0, np.nan], [2.0, 3.0]], DataError, "array contains non-finite entries"),
            (np.zeros((0, 3)), DimensionError, r"array must be non-empty, got shape \(0, 3\)"),
            (np.zeros(3), DimensionError, "array must be 2-D, got 1-D"),
        ],
    )
    def test_unreadable_array_refused_before_open(self, tmp_path, array, error, match):
        # each of these would write a file that read_data_csv refuses
        path = tmp_path / "d.csv"
        path.write_bytes(b"1.0,2.0\r\n")
        with pytest.raises(error, match=match):
            write_data_csv(path, array)
        assert path.read_bytes() == b"1.0,2.0\r\n"
        with pytest.raises(error, match=match):
            write_data_csv(tmp_path / "new.csv", array)
        assert not (tmp_path / "new.csv").exists()

    def test_projections_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        s1 = np.arange(4.0).reshape(2, 2)
        s2 = np.arange(4.0, 8.0).reshape(2, 2)
        write_projections_csv(path, (s1, s2))
        text = path.read_text().splitlines()
        assert text[0] == "set1_comp1,set1_comp2,set2_comp1,set2_comp2"
        assert np.array_equal(read_data_csv(path), np.hstack([s1, s2]))


# repr switches to exponent form below 1e-4 and from 1e16 on; both sides of
# each switch, the signed zeros and the smallest subnormal
REPR_EDGES = [
    x
    for edge in (1e16, 1e-4)
    for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
] + [0.0, 5e-324, 2.0**53, 2.0**53 + 2.0]
csv_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(REPR_EDGES + [-x for x in REPR_EDGES]).map(float),
    st.integers(-(2**60), 2**60).map(float),
)
header_names = st.one_of(
    st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\rlf", "", " pad "]),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
)


@st.composite
def data_csv_cases(draw):
    """A finite float64 array and a header for it, or None."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    arr = draw(hnp.arrays(np.float64, shape, elements=csv_values))
    header = draw(st.none() | st.lists(header_names, min_size=shape[1], max_size=shape[1]))
    return arr, header


class TestJoinedReprWrite:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=data_csv_cases())
    @example(case=(
        np.array([REPR_EDGES, [-x for x in REPR_EDGES]]),
        ["a,b", 'say "hi"', "two\nlines"] + [f"c{j}" for j in range(len(REPR_EDGES) - 3)],
    ))
    def test_same_bytes_as_csv_writer(self, tmp_path, case):
        arr, header = case
        write_data_csv(tmp_path / "new.csv", arr, header=header)
        write_data_csv_csvwriter(tmp_path / "old.csv", arr, header=header)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


NON_FINITE_FIELDS = ["nan", "inf", "-inf", "1e999", " NaN"]


@st.composite
def csv_files(draw):
    """A CSV text with at most one fault at any line, and a batch size in
    fields that holds one to four rows.

    The first record is a header of letters or a row of finite numbers, on
    which the old and new header rules agree.
    """
    width = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 12))
    values = st.floats(allow_nan=False, allow_infinity=False)
    rows = [[repr(draw(values)) for _ in range(width)] for _ in range(n_rows)]
    fault = draw(st.sampled_from([None, "ragged", "wider tail", "not a number", "not finite"]))
    header = draw(st.sampled_from([None, "plain", "spans lines"]))
    if fault is not None:
        first = 1 if fault == "not finite" and header is None else 0
        i = draw(st.integers(min(first, n_rows - 1), n_rows - 1))
        if fault == "ragged":
            rows[i] = rows[i][:-1] if width > 1 and draw(st.booleans()) else rows[i] + ["1.0"]
        elif fault == "wider tail":
            rows[i:] = [row + ["2.0"] for row in rows[i:]]
        elif i >= first:  # else the only row may not take this fault
            token = "x" if fault == "not a number" else draw(st.sampled_from(NON_FINITE_FIELDS))
            rows[i][draw(st.integers(0, width - 1))] = token
    lines = [",".join(row) for row in rows]
    names = [f"c{j}" for j in range(width)]
    if header == "spans lines":
        names[0] = '"first\ncolumn"'
    if header is not None:
        lines.insert(0, ",".join(names))
    text = ""
    for line in lines:
        text += draw(st.sampled_from(["", "\n", "\r\n"]))  # a blank line, or none
        text += line + draw(st.sampled_from(["\n", "\r\n"]))
    return text, draw(st.integers(1, 4)) * width


def read_outcome(reader, path):
    try:
        arr = reader(path)
    except DataError as exc:
        return "error", str(exc)
    return arr.shape, arr.dtype.str, arr.tobytes()


class TestBatchedRead:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_files())
    def test_matches_whole_file_reader(self, tmp_path, case):
        text, batch_fields = case
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(mcca.fileio, "_BATCH_FIELDS", batch_fields):
            got = read_outcome(read_data_csv, path)
        assert got == read_outcome(read_data_csv_whole, path)

    @pytest.fixture(scope="class")
    def big_csv(self, tmp_path_factory):
        """A 20000 x 32 data file and its array's size in bytes."""
        path = tmp_path_factory.mktemp("big") / "d.csv"
        arr = np.random.default_rng(9).standard_normal((20000, 32))
        write_data_csv(path, arr)
        return path, arr.nbytes

    def test_peak_memory_near_the_array(self, big_csv):
        path, nbytes = big_csv
        tracemalloc.start()
        try:
            arr = read_data_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.nbytes == nbytes
        assert peak < 2.5 * nbytes

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from procfs")
    def test_fit_command_peak_rss(self, big_csv, tmp_path):
        # The child reports the high-water mark of its own address space
        # (VmHWM, in kB). Its ru_maxrss would not do: Linux carries the
        # maximum across exec, so a child spawned from this test process
        # reports at least this process's peak.
        path, nbytes = big_csv
        report = ("import sys; print(open('/proc/self/status').read()"
                  ".split('VmHWM:')[1].split()[0], file=sys.stderr)")
        fit = (f"import mcca.cli; assert mcca.cli.main(['fit', '--input', {str(path)!r}, "
               f"'--dims', '16,16', '--output', {str(tmp_path / 'm.json')!r}]) == 0")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

        def child_kib(code):
            proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                                  capture_output=True, text=True, env=env, check=True)
            return int(proc.stderr.split()[-1])

        rise = (child_kib(fit) - child_kib("import mcca.cli")) * 1024
        assert rise < 5 * nbytes


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

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_schema_version_must_be_an_integer(self, tmp_path, version):
        path = tmp_path / "m.json"
        save_model(self.make_model(), path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = version
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

    @pytest.mark.parametrize("key", ["schema_version", "lambda", "rho_empirical"])
    def test_missing_field_names_path(self, tmp_path, key):
        path = tmp_path / "m.json"
        save_model(self.make_model(), path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"missing field '{key}'") as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: ")

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

    def test_json_not_an_object(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataError, match="model file must hold a JSON object"):
            load_model(path)

    def test_not_utf8_names_path(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(self.make_model(), path)
        path.write_bytes(path.read_bytes().replace(b'"two-step"', b'"two-step\xe9"'))
        with pytest.raises(DataError, match="not valid UTF-8") as exc:
            load_model(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize(
        "dims, match",
        [([2], "need at least 2 data sets"), ([0, 3], "dims entry 1 must be an integer >= 1, got 0")],
    )
    def test_dims_rule_names_path(self, tmp_path, dims, match):
        path = tmp_path / "m.json"
        save_model(self.make_model(), path)
        doc = json.loads(path.read_text())
        doc["dims"] = dims
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=match) as exc:
            load_model(path)
        assert str(path) in str(exc.value)

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

    BAD_STRUCTURE = [
        (("V",), 5, "V must be a list of blocks"),
        (("means",), {"0": [0.0]}, "means must be a list of blocks"),
        (("reg",), [], "reg must be an object"),
        (("dims",), ["a", 1], "dims must be a list of integers"),
        (("dims",), 5, "dims must be a list of integers"),
        (("method",), 5, "method must be a string"),
        (("reg", "gamma"), "0", "gamma must be a finite number"),
        (("reg", "gamma"), float("inf"), "gamma must be a finite number"),
        (("reg", "gamma"), 10**400, "gamma must be a finite number"),
        (("reg", "rank_tol"), [], "rank_tol must be a finite number or null"),
        (("reg", "rank_tol"), float("nan"), "rank_tol must be a finite number or null"),
        (("reg", "ranks"), [1.5, 2], "ranks must be a list of integers"),
        (("V",), [[[0.0]]], "V has 1 blocks for 2 sets"),
    ]

    @pytest.mark.parametrize("where, value, match", BAD_STRUCTURE)
    def test_bad_structure_names_field(self, tmp_path, where, value, match):
        path = tmp_path / "m.json"
        save_model(self.make_model(), path)
        doc = json.loads(path.read_text())
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=match):
            load_model(path)

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

    @pytest.mark.parametrize("method", ["two-step", "one-step"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("rank_tol_null", [False, True])
    def test_every_saved_fit_loads(self, tmp_path, method, gamma, rank_tol_null):
        model = mcca.fit(random_instance(np.random.default_rng(3), (3, 2), 25),
                         method=method, gamma=gamma)
        if rank_tol_null:
            model = dataclasses.replace(model, reg=dataclasses.replace(model.reg, rank_tol=None))
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert (back.method, back.reg) == (model.method, model.reg)

    RANKS_RULE = "ranks must be a list of integers, one in [1, d_l] per set of dims (3, 2), got "
    FIT_RULES = [
        (("method",), "banana", "unknown method 'banana'"),
        (("reg", "gamma"), -3, "gamma must be a finite number >= 0, got -3"),
        (("reg", "rank_tol"), 5.0, "rank_tol must lie strictly between 0 and 1, got 5.0"),
        (("reg", "rank_tol"), 0, "rank_tol must lie strictly between 0 and 1, got 0"),
        (("reg", "ranks"), [99], RANKS_RULE + "[99]"),
        (("reg", "ranks"), [2, 3], RANKS_RULE + "[2, 3]"),
        (("reg", "ranks"), [0, 2], RANKS_RULE + "[0, 2]"),
        (("reg", "ranks"), [3, 2, 1], RANKS_RULE + "[3, 2, 1]"),
        (("schema_version",), 99, "schema_version must be 1, got 99"),
    ]

    @pytest.mark.parametrize("where, value, match", FIT_RULES)
    def test_values_fit_never_writes_refused(self, tmp_path, where, value, match):
        # a two-step model of dims (3, 2), with one field changed
        path = tmp_path / "m.json"
        save_model(mcca.fit(random_instance(np.random.default_rng(3), (3, 2), 25)), path)
        doc = json.loads(path.read_text())
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: {match}")

    def test_rank_truncated_fit_loads(self, tmp_path):
        data = random_instance(np.random.default_rng(3), (3, 2), 25)
        x = np.hstack([data.sets[0], data.sets[0][:, :1]])  # a duplicated column
        model = mcca.fit(mcca.load([x, data.sets[1]]))
        assert (model.dims, model.reg.ranks, model.n_components) == ((4, 2), (3, 2), 5)
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        assert back.reg == model.reg and np.array_equal(back.lambdas, model.lambdas)

    def test_one_step_record_edited_to_two_step_ranks_refused(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(mcca.fit(random_instance(np.random.default_rng(3), (3, 2), 25),
                            method="one-step"), path)
        doc = json.loads(path.read_text())
        doc["reg"].update(rank_tol=1e-9, ranks=[1, 1])
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: reg.rank_tol must be null for a one-step model, got 1e-09"

    def set_lambda(n, value):
        def edit(doc):
            doc["lambda"][n] = value

        return edit

    def swap_lambda(doc):
        doc["lambda"][:2] = doc["lambda"][1::-1]

    def nudge_rho(doc):
        doc["rho_analytic"][0] = float(np.nextafter(doc["rho_analytic"][0], 2.0))

    MONOTONE = "lambda must fall monotonically within [-1e-08, 2 + 1e-08]"
    RECORD_RULES = [
        ("one-step", lambda doc: doc["reg"].update(ranks=[3, 1]),
         "reg.ranks must equal dims (3, 2) for a one-step model, got [3, 1]"),
        ("two-step", lambda doc: doc["reg"].update(ranks=[2, 2]),
         "lambda has 5 components, more than the 4 of reg.ranks"),
        ("two-step", swap_lambda, MONOTONE),
        ("one-step", swap_lambda, MONOTONE),
        ("two-step", set_lambda(0, 2 + 2e-8), MONOTONE),
        ("two-step", set_lambda(-1, -2e-8), MONOTONE),
        ("two-step", nudge_rho, "rho_analytic must equal (lambda - 1) / 1, bit for bit"),
        ("one-step", nudge_rho, "rho_analytic must equal (lambda - 1) / 1, bit for bit"),
    ]

    @pytest.mark.parametrize("method, edit, match", RECORD_RULES, ids=[
        "one-step-ranks", "k-above-ranks", "two-step-rising", "one-step-rising",
        "above-N", "below-0", "two-step-rho", "one-step-rho",
    ])
    def test_record_fit_never_writes_refused(self, tmp_path, method, edit, match):
        path = tmp_path / "m.json"
        save_model(mcca.fit(random_instance(np.random.default_rng(3), (3, 2), 25),
                            method=method), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: {match}"


@pytest.fixture(scope="module")
def wide_model():
    """A 16 x 64 fit that keeps all 1024 components."""
    model = mcca.fit(random_instance(np.random.default_rng(5), (64,) * 16, 1100))
    assert model.n_components == 1024
    return model


class TestModelBytes:
    """``save_model`` writes the bytes of one ``json.dump(indent=1)``."""

    def assert_oracle_bytes(self, model, tmp_path):
        save_model(model, tmp_path / "new.json")
        save_model_json_dump(model, tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    @pytest.mark.parametrize("method", ["two-step", "one-step"])
    @pytest.mark.parametrize("dims, k, gamma", [((2, 3), None, 0.0), ((1, 3, 2), 1, 0.0), ((2, 3), None, 0.5)])
    def test_fits(self, tmp_path, method, dims, k, gamma):
        data = random_instance(np.random.default_rng(4), dims, 40)
        self.assert_oracle_bytes(mcca.fit(data, method=method, k=k, gamma=gamma), tmp_path)

    def test_patched_entries(self, tmp_path):
        model = mcca.fit(random_instance(np.random.default_rng(4), (2, 3), 40))
        special = [-0.0, 5e-324, 1e16, 1e-5, 0.1]
        v = model.V.copy()
        v.flat[: len(special)] = special
        rho_e = model.rho_empirical.copy()
        rho_e[1] = np.nan
        patched = dataclasses.replace(
            model,
            V=v,
            lambdas=np.array(special[::-1]),
            rho_empirical=rho_e,
            means=(np.array(special[:2]), np.array(special[2:])),
            reg=dataclasses.replace(model.reg, rank_tol=None),
        )
        self.assert_oracle_bytes(patched, tmp_path)

    def test_all_components_of_a_wide_fit(self, tmp_path, wide_model):
        self.assert_oracle_bytes(wide_model, tmp_path)

    @pytest.mark.parametrize("method", ["two-step", "one-step"])
    def test_readme_example(self, tmp_path, method, capsys):
        demo, model = tmp_path / "demo.csv", tmp_path / "model.json"
        assert mcca.cli.main(["synth", "--seed", "7", "--n", "3", "--dims", "4,4,4", "--t", "2000",
                              "--k", "2", "--snr", "10", "--output", str(demo)]) == 0
        assert mcca.cli.main(["fit", "--input", str(demo), "--dims", "4,4,4", "--k", "3",
                              "--method", method, "--output", str(model)]) == 0
        save_model_json_dump(load_model(model), tmp_path / "old.json")
        assert model.read_bytes() == (tmp_path / "old.json").read_bytes()

    def test_peak_memory_holds_no_copy_of_v(self, tmp_path, wide_model):
        tracemalloc.start()
        try:
            save_model(wide_model, tmp_path / "m.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    NON_FINITE = [
        ("V", np.nan), ("V", -np.inf), ("means", np.nan), ("lambda", np.inf),
        ("rho_analytic", np.nan), ("rho_empirical", np.inf), ("rho_empirical", -np.inf),
    ]

    @pytest.mark.parametrize("field, value", NON_FINITE)
    def test_rejected_save_leaves_old_file(self, tmp_path, field, value):
        model = mcca.fit(random_instance(np.random.default_rng(4), (2, 3), 40))
        path = tmp_path / "m.json"
        save_model(model, path)
        before = path.read_bytes()
        arrays = {"V": model.V, "means": model.means[1], "lambda": model.lambdas,
                  "rho_analytic": model.rho_analytic, "rho_empirical": model.rho_empirical}
        bad = arrays[field].copy()
        bad.flat[-1] = value
        attr = {"lambda": "lambdas"}.get(field, field)
        bad = (model.means[0], bad) if field == "means" else bad
        with pytest.raises(DataError, match=f": {field} holds"):
            save_model(dataclasses.replace(model, **{attr: bad}), path)
        assert path.read_bytes() == before
