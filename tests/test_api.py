"""The package's public names: a change that drops or renames one fails here."""

import mcca

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
