"""The package's public names: a change that drops or renames one fails here."""

import ast
import functools
import re
from pathlib import Path

import mcca

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"
CLI_PEAKS = ROOT / "tools" / "cli_peaks.py"

PUBLIC_NAMES = [
    "CovarianceBlocks",
    "DataError",
    "DegeneracyError",
    "DegenerateSetError",
    "DimensionError",
    "IscBreakdown",
    "MccaModel",
    "MultiSetData",
    "Projections",
    "RankDeficiencyError",
    "RegularizationRecord",
    "SynthResult",
    "SynthSpec",
    "UndefinedIscError",
    "center",
    "covariance",
    "covariance_from_matrix",
    "fit",
    "fit_one_step",
    "fit_two_step",
    "general_eig_real",
    "generate",
    "isc",
    "isc_from_cov",
    "load",
    "load_model",
    "read_data_csv",
    "recovery_score",
    "save_model",
    "stationarity_residual",
    "sym_eig",
    "transform",
    "whiten",
    "write_data_csv",
]


def test_public_names_pinned():
    assert sorted(mcca.__all__) == PUBLIC_NAMES


def test_public_names_resolve():
    missing = [name for name in mcca.__all__ if not hasattr(mcca, name)]
    assert missing == []


def test_benchmark_names_resolve():
    # the workloads hold the imported package as ``m``; parsed, never imported
    tree = ast.parse(WORKLOADS.read_text())
    exprs = {ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = {e.removeprefix("m.") for e in exprs if re.fullmatch(r"m(\.\w+)+", e)}
    assert "covariance" in names and "fileio.write_projections_csv" in names
    missing = []
    for name in sorted(names):
        try:
            functools.reduce(getattr, name.split("."), mcca)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_cli_peaks_names_resolve():
    # tools/cli_peaks.py drives the benchmark's cli round through the module
    # ``workloads`` and a ``workload`` of its CliWorkload; both files parsed,
    # never imported
    peaks = ast.parse(CLI_PEAKS.read_text())
    exprs = {ast.unparse(node) for node in ast.walk(peaks) if isinstance(node, ast.Attribute)}

    def used(prefix):
        return {e.removeprefix(prefix) for e in exprs if re.fullmatch(re.escape(prefix) + r"\w+", e)}

    assert used("workloads.") >= {"CLI", "CliWorkload"}
    assert used("workloads.CLI.") >= {"n_exemplars"}
    assert used("workload.") >= {"child_env", "run_cli", "e2e_round"}

    tree = ast.parse(WORKLOADS.read_text())
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    def members(name):
        """The fields and methods of a class of bench/workloads.py, with its bases'."""
        node = classes[name]
        own = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        own |= {item.target.id for item in node.body if isinstance(item, ast.AnnAssign)}
        bases = [ast.unparse(base) for base in node.bases]
        return own.union(*(members(base) for base in bases if base in classes))

    assigned = {ast.unparse(node.targets[0]): node.value for node in tree.body
                if isinstance(node, ast.Assign)}
    assert used("workloads.") <= set(classes) | set(assigned)
    assert ast.unparse(assigned["CLI"].func) == "CliSpec"
    assert used("workloads.CLI.") <= members("CliSpec")
    assert used("workload.") <= members("CliWorkload")
