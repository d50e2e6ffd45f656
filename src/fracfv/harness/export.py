"""Field and report output: CSV (always), legacy VTK (on request), JSON reports."""

from __future__ import annotations

import json
import subprocess
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
    n = mesh.n_dofs
    mask = np.ones(n, dtype=bool)
    if subset is not None:
        subset = np.asarray(subset)
        if subset.dtype == bool:
            mask = subset
        else:
            mask = np.zeros(n, dtype=bool)
            mask[subset] = True
    centres = mesh.all_cell_centres()
    dims = mesh.dof_dims()
    sds = mesh.dof_subdomains()
    volumes = mesh.all_cell_volumes()
    values = np.asarray(values, dtype=float)
    coord_names = ["x", "y", "z"][: mesh.ambient_dim]
    with open(path, "w") as handle:
        handle.write(",".join(coord_names + ["dim", "subdomain", "volume", "value"]) + "\n")
        for dof in np.flatnonzero(mask):
            coords = ",".join(f"{c:.17g}" for c in centres[dof])
            handle.write(
                f"{coords},{dims[dof]},{sds[dof]},{volumes[dof]:.17g},{values[dof]:.17g}\n"
            )
    return path


def read_field_csv(path) -> dict[str, np.ndarray]:
    """Parse a field CSV back into arrays keyed by column name."""
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    out = {}
    for i, name in enumerate(header):
        col = [row[i] for row in rows]
        if name in ("dim", "subdomain"):
            out[name] = np.array([int(v) for v in col], dtype=int)
        else:
            out[name] = np.array([float(v) for v in col])
    return out


_VTK_SIMPLEX = {1: 3, 2: 5, 3: 10}  # line, triangle, tetrahedron
_VTK_BOX = {1: 3, 2: 8, 3: 11}  # line, pixel, voxel


def export_field_vtk(mesh: MixedDimensionalMesh, values: np.ndarray, path, dims=None) -> Path:
    """Legacy-VTK unstructured export of 2D/3D subdomains with cell data.

    Cartesian cells map to pixel/voxel types (axis-aligned node ordering),
    simplex cells to triangle/tetrahedron.
    """
    path = Path(path)
    values = np.asarray(values, dtype=float)
    if dims is None:
        dims = [d for d in (2, 3) if d <= mesh.ambient_dim]
    points = []
    cells = []
    cell_types = []
    cell_values = []
    for sd, grid in enumerate(mesh.subdomains):
        if grid.dim not in dims:
            continue
        offset = len(points)
        pts = np.zeros((grid.n_nodes, 3))
        pts[:, : mesh.ambient_dim] = grid.nodes
        points.extend(pts.tolist())
        simplex = grid.kind == "simplex"
        for c, node_list in enumerate(grid.cell_node_lists()):
            node_list = list(node_list)
            if simplex:
                vtk_type = _VTK_SIMPLEX[grid.dim]
            else:
                vtk_type = _VTK_BOX[grid.dim]
                order = np.lexsort(grid.nodes[node_list].T)  # last key x: voxel order
                node_list = [node_list[i] for i in order]
            cells.append([offset + int(v) for v in node_list])
            cell_types.append(vtk_type)
            cell_values.append(values[mesh.global_index(sd, c)])
    with open(path, "w") as handle:
        handle.write("# vtk DataFile Version 2.0\n")
        handle.write("fracfv cell field\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        handle.write(f"POINTS {len(points)} double\n")
        for p in points:
            handle.write(" ".join(f"{v:.17g}" for v in p) + "\n")
        total = sum(len(c) + 1 for c in cells)
        handle.write(f"CELLS {len(cells)} {total}\n")
        for c in cells:
            handle.write(" ".join(str(v) for v in [len(c)] + c) + "\n")
        handle.write(f"CELL_TYPES {len(cells)}\n")
        for t in cell_types:
            handle.write(f"{t}\n")
        handle.write(f"CELL_DATA {len(cells)}\nSCALARS value double 1\nLOOKUP_TABLE default\n")
        for v in cell_values:
            handle.write(f"{v:.17g}\n")
    return path


def build_identifier() -> str:
    """git describe of the working tree, or the package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
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
