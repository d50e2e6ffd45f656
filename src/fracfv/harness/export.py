"""Artifact output: field and series CSV (always), legacy VTK (on request),
JSON reports."""

from __future__ import annotations

import functools
import json
import subprocess
import warnings
from pathlib import Path

import numpy as np

from .. import __version__
from ..errors import FracfvError
from ..mdmesh.mdmesh import MixedDimensionalMesh
from .norms import NORM_VERSION


def export_field_csv(mesh: MixedDimensionalMesh, values: np.ndarray, path, subset=None) -> Path:
    """Cell-centred field as CSV: coordinates, dim, subdomain, volume, value.

    Floats carry 17 significant digits so parsing recovers them bit-exactly.
    ``subset`` restricts the rows (boolean mask or index array over dofs).
    """
    path = Path(path)
    keep = np.zeros(mesh.n_dofs, dtype=bool)
    keep[slice(None) if subset is None else np.asarray(subset)] = True
    columns = [mesh.dof_dims(), mesh.dof_subdomains(), mesh.all_cell_volumes(), values]
    table = np.column_stack([mesh.all_cell_centres(), *columns])[keep]
    coords = ["x", "y", "z"][: mesh.ambient_dim]
    header = ",".join(coords + ["dim", "subdomain", "volume", "value"])
    fmt = ["%.17g"] * len(coords) + ["%d", "%d", "%.17g", "%.17g"]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")
    return path


def read_field_csv(path) -> dict[str, np.ndarray]:
    """Parse a field CSV back into arrays keyed by column name; ``dim`` and
    ``subdomain`` are integers."""
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        columns = [(name, int if name in ("dim", "subdomain") else float) for name in header]
        with warnings.catch_warnings():  # a header-only file is an empty field
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(handle, dtype=columns, delimiter=",", ndmin=1)
    return {name: table[name] for name in header}


def write_series_csv(path, series) -> None:
    """Monitored (time, concentration) samples as CSV with header
    ``time,concentration``."""
    samples = np.reshape(series, (-1, 2))
    np.savetxt(path, samples, fmt="%.17g", delimiter=",", header="time,concentration", comments="")


_VTK_SIMPLEX = {2: 5, 3: 10}  # triangle, tetrahedron
_VTK_BOX = {2: 8, 3: 11}  # pixel, voxel


def export_field_vtk(mesh: MixedDimensionalMesh, values: np.ndarray, path) -> Path:
    """Legacy-VTK unstructured export of the 2D/3D subdomains with cell data.

    Cartesian cells map to pixel/voxel types (axis-aligned node ordering),
    simplex cells to triangle/tetrahedron.
    """
    path = Path(path)
    values = np.asarray(values, dtype=float)
    points, cells, types, data = [], [], [], []
    n_points = 0
    for sd, grid in enumerate(mesh.subdomains):
        if grid.dim < 2:
            continue
        cn = grid.cell_nodes.tocsc()
        widths = np.diff(cn.indptr)
        if widths.min() != widths.max():
            raise FracfvError(f"subdomain {sd}: VTK export needs one node count for all cells")
        rows = cn.indices.reshape(grid.n_cells, widths[0])
        if grid.kind == "simplex":
            vtk_type = _VTK_SIMPLEX[grid.dim]
        else:
            vtk_type = _VTK_BOX[grid.dim]
            # Sort each cell's nodes with x varying fastest: pixel/voxel order.
            keys = np.moveaxis(grid.nodes[rows], -1, 0)
            rows = np.take_along_axis(rows, np.lexsort(keys, axis=-1), axis=1)
        points.append(np.pad(grid.nodes, ((0, 0), (0, 3 - mesh.ambient_dim))))
        cells.append(np.column_stack([widths, rows + n_points]))
        types.append(np.full(grid.n_cells, vtk_type))
        data.append(values[mesh.subdomain_slice(sd)])
        n_points += grid.n_nodes
    n_cells = sum(block.size for block in types)
    sections = [
        (f"POINTS {n_points} double", points, "%.17g"),
        (f"CELLS {n_cells} {sum(block.size for block in cells)}", cells, "%d"),
        (f"CELL_TYPES {n_cells}", types, "%d"),
        (f"CELL_DATA {n_cells}\nSCALARS value double 1\nLOOKUP_TABLE default", data, "%.17g"),
    ]
    with open(path, "w") as handle:
        handle.write("# vtk DataFile Version 2.0\n")
        handle.write("fracfv cell field\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        for title, blocks, fmt in sections:
            handle.write(title + "\n")
            for block in blocks:
                np.savetxt(handle, block, fmt=fmt)
    return path


@functools.cache
def build_identifier() -> str:
    """git describe of the tree holding this source, or the package version;
    found once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"fracfv-{__version__}"


def report_envelope(case: dict, results: dict) -> dict:
    """A report without artifacts: schema, norm version, build id, the case's
    parameters and its results."""
    return {
        "schema": "fracfv-report-v1",
        "norm": NORM_VERSION,
        "build": build_identifier(),
        "case": case,
        "results": results,
        "artifacts": {},
    }


def write_report(report: dict, out_dir, timings: dict | None = None) -> Path:
    """Deterministic JSON report; wall-clock timings go to a sibling file.

    Keeping timings out of the main report makes identical runs produce
    bitwise-identical report files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = dict(report)
    report.setdefault("artifacts", {})
    if timings is not None:
        timing_path = out_dir / "timings.json"
        with open(timing_path, "w") as handle:
            json.dump(timings, handle, indent=2, sort_keys=True)
        report["artifacts"]["timings"] = timing_path.name
    path = out_dir / "report.json"
    with open(path, "w") as handle:
        json.dump(_jsonable(report), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise FracfvError(f"cannot serialize {type(obj)} into a report")
