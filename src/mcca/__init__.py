"""Multi-set canonical correlation analysis.

Finds per-set linear projections that maximize the correlation of the
projected signals across N data sets, by solving the generalized
eigenproblem R v = D v lambda (R: covariance of the concatenated centered
data, D: its block diagonal). Includes inter-set correlation metrics, a
deterministic synthetic-data generator, CSV/JSON I/O, and a CLI.
"""

from .data import (
    CovarianceBlocks,
    MultiSetData,
    center,
    covariance,
    covariance_from_matrix,
    load,
)
from .errors import (
    DataError,
    DegeneracyError,
    DegenerateSetError,
    DimensionError,
    RankDeficiencyError,
    UndefinedIscError,
)
from .fileio import load_model, read_data_csv, save_model, write_data_csv
from .linalg import general_eig_real, sym_eig
from .metrics import IscBreakdown, Projections, isc, isc_from_cov, transform
from .solver import (
    MccaModel,
    RegularizationRecord,
    fit,
    fit_one_step,
    fit_two_step,
    stationarity_residual,
    whiten,
)
from .synth import SynthResult, SynthSpec, generate, recovery_score

__version__ = "0.1.0"

__all__ = [
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
