"""The benchmark's workloads and their seeded inputs.

Only the tetrahedral study reads a generated file; the other studies are
fixed cases. Generation runs in the benchmark's parent process, so its
cost is in neither ``wall_s`` nor ``setup_s``.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

# Each workload is a fixed sequence of studies, run in one process.
WORKLOADS = {
    "cases-2d": ("crossing2d-sweep", "aniso2d-mpfa"),
    "library-3d": ("line3d-tracer", "tet3d-import"),
}

# Sizes of the studies; only tet3d-import draws from the seed.
FIXED_INPUTS = {
    "crossing2d-sweep": {"resolution": 24},
    "aniso2d-mpfa": {"ratio": 3.0, "fine_resolution": 64},
    "line3d-tracer": {"resolution": 16, "steps": 200, "t_final": 0.5},
}
TET_CUBES = 8

# Interior nodes move by at most this share of the cube edge along each
# axis. Every Kuhn tetrahedron has heights of at least h / sqrt(2), and the
# largest node move is sqrt(3) * 0.1 h, so no tetrahedron can invert.
PERTURBATION = 0.1


def kuhn_tetrahedra(cubes: int) -> np.ndarray:
    """Cell-node table of the Kuhn triangulation of a cube grid.

    Each cube splits into six tetrahedra that share its main diagonal, one
    per ordering of the three axes; the triangulation is conforming.
    """
    n = cubes + 1
    steps = np.eye(3, dtype=int)
    cells = []
    for k, j, i in itertools.product(range(cubes), repeat=3):
        for order in itertools.permutations(range(3)):
            corner = np.array([i, j, k])
            verts = [corner.copy()]
            for axis in order:
                corner = corner + steps[axis]
                verts.append(corner.copy())
            cells.append([int(v[0] + n * (v[1] + n * v[2])) for v in verts])
    return np.array(cells, dtype=int)


def kuhn_nodes(cubes: int, seed: int) -> np.ndarray:
    """Nodes of the unit-cube grid, interior nodes perturbed from ``seed``."""
    n = cubes + 1
    axis = np.linspace(0.0, 1.0, n)
    z, y, x = np.meshgrid(axis, axis, axis, indexing="ij")
    nodes = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    interior = np.all((nodes > 0.0) & (nodes < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    shift = PERTURBATION / cubes * (2.0 * rng.random((int(interior.sum()), 3)) - 1.0)
    nodes[interior] += shift
    return nodes


def write_kuhn_mesh(path: Path, cubes: int, seed: int) -> dict:
    """Write the perturbed Kuhn mesh in the fracfv text mesh format.

    Returns the counts the file declares, which the workload compares with
    what ``load_mesh`` reads back.
    """
    nodes = kuhn_nodes(cubes, seed)
    cells = kuhn_tetrahedra(cubes)
    lines = ["fracfv-mesh 1", "ambient 3", "subdomains 1", "subdomain 0", "dim 3",
             "aperture 1", f"nodes {len(nodes)}"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in nodes]
    lines.append(f"cells {len(cells)} simplex")
    lines += [" ".join(str(v) for v in cell) for cell in cells]
    lines += ["end", "interfaces 0", "end"]
    Path(path).write_text("\n".join(lines) + "\n")
    return {"mesh": str(path), "n_cells": int(len(cells)), "n_nodes": int(len(nodes))}


def make_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """The inputs of each study of a workload, written under ``out_dir`` where needed."""
    inputs = {}
    for study in WORKLOADS[workload]:
        if study == "tet3d-import":
            inputs[study] = write_kuhn_mesh(out_dir / f"kuhn-seed{seed}.mesh", TET_CUBES, seed)
        else:
            inputs[study] = dict(FIXED_INPUTS[study])
    return inputs
