"""Case presets, error norms, exports and the command-line interface."""

from .cases import CaseResult, CaseSpec, run_case, sweep_case11
from .export import export_field_csv, export_field_vtk, read_field_csv, write_report
from .norms import NORM_VERSION, l2_error, least_squares_slope

__all__ = [
    "CaseResult",
    "CaseSpec",
    "NORM_VERSION",
    "export_field_csv",
    "export_field_vtk",
    "l2_error",
    "least_squares_slope",
    "read_field_csv",
    "run_case",
    "sweep_case11",
    "write_report",
]
