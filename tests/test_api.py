"""The package's public names: a change that drops or renames one fails here."""

import ast
import functools
import re
from pathlib import Path

import mcca

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

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
