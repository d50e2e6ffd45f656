import itertools

import numpy as np
import pytest

from fracfv.elimination import schur_reduce, star_delta_reduce
from fracfv.fvdiscretize import flow_bc
from fracfv.linsolve import CG_MIN_ROWS, _certified_stieltjes_3d
from fracfv.mdmesh import FractureNetworkSpec, FracturePatch, build_cartesian_with_fractures


@pytest.fixture()
def unit_square_4():
    """Plain 4x4 Cartesian grid on the unit square."""
    return build_cartesian_with_fractures(FractureNetworkSpec(domain=((0.0, 1.0), (0.0, 1.0))), 4)


@pytest.fixture()
def crossing_mesh():
    """2x2 square with two crossing unit fractures."""
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0)),
        fractures=[
            FracturePatch(0, 0.5, ((0.0, 1.0),), 1e-2, 1.0, "vertical"),
            FracturePatch(1, 0.5, ((0.0, 1.0),), 1e-2, 1.0, "horizontal"),
        ],
    )
    return build_cartesian_with_fractures(spec, 2)


def x_dirichlet(sd, grid):
    """Pressure 1 on the x = 0 faces and 0 on the x = 1 faces of every subdomain."""
    ext = np.flatnonzero(grid.external_boundary)
    bc = flow_bc(grid)
    for value, pressure in ((0.0, 1.0), (1.0, 0.0)):
        faces = ext[np.abs(grid.face_centres[ext, 0] - value) < 1e-12]
        if faces.size:
            bc.set_dirichlet(faces, pressure)
    return bc


def assert_reductions_symmetric(system) -> list[int]:
    """Schur and Star-Delta reductions of a symmetric 3D TPFA system are
    exactly symmetric and, from ``CG_MIN_ROWS`` rows on, certified for
    conjugate gradients, the route the reduced flow solves then take.
    Returns the reduced row counts."""
    rows = []
    for reduce in (schur_reduce, star_delta_reduce):
        m = reduce(system).matrix
        assert (m - m.T).nnz == 0, reduce.__name__
        assert m.shape[0] < CG_MIN_ROWS or _certified_stieltjes_3d(m), reduce.__name__
        rows.append(m.shape[0])
    return rows


# One unit-square cell with explicit faces, each with the cell on its plus side.
UNIT_SQUARE_CELL = """fracfv-mesh 1
ambient 2
subdomains 1
subdomain 0
dim 2
aperture 1
nodes 4
0 0
1 0
0 1
1 1
cells 1 explicit
0 1 3 2
faces 4
0 -1 : 0 1
0 -1 : 1 3
0 -1 : 3 2
0 -1 : 2 0
end
interfaces 0
end
"""


def write_triangle_square_mesh(path, perturb: float = 0.0):
    """Structured triangulation of the unit square (two triangles per cell).

    ``perturb`` shifts interior nodes to break grid orthogonality.
    """
    n = 4
    coords = np.linspace(0.0, 1.0, n + 1)
    nodes = np.array([[x, y] for y in coords for x in coords])
    if perturb:
        rng = np.random.default_rng(7)
        for i, (x, y) in enumerate(nodes):
            if 0.0 < x < 1.0 and 0.0 < y < 1.0:
                nodes[i] += perturb * (rng.random(2) - 0.5) / n
    cells = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            cells.append([v00, v10, v01])
            cells.append([v10, v11, v01])
    lines = ["fracfv-mesh 1", "ambient 2", "subdomains 1", "subdomain 0", "dim 2",
             "aperture 1", f"nodes {len(nodes)}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in nodes]
    lines.append(f"cells {len(cells)} simplex")
    lines += [" ".join(str(v) for v in c) for c in cells]
    lines += ["end", "interfaces 0", "end"]
    path.write_text("\n".join(lines) + "\n")
    return nodes, cells


def write_kuhn_mesh(path, cubes: int, seed: int):
    """Kuhn triangulation of a cubes^3 grid on the unit cube (six tetrahedra
    per cube along its main diagonal), interior nodes moved by up to 0.1 h per
    axis from ``seed``. Returns the cell-node lists."""
    n = cubes + 1
    axis = np.linspace(0.0, 1.0, n)
    z, y, x = np.meshgrid(axis, axis, axis, indexing="ij")
    nodes = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    interior = np.all((nodes > 0.0) & (nodes < 1.0), axis=1)
    rng = np.random.default_rng(seed)
    nodes[interior] += 0.1 / cubes * (2.0 * rng.random((interior.sum(), 3)) - 1.0)
    cells = []
    for k, j, i in itertools.product(range(cubes), repeat=3):
        for order in itertools.permutations(range(3)):
            corner = np.array([i, j, k])
            verts = [corner]
            for a in order:
                corner = corner + np.eye(3, dtype=int)[a]
                verts.append(corner)
            cells.append([int(v[0] + n * (v[1] + n * v[2])) for v in verts])
    lines = ["fracfv-mesh 1", "ambient 3", "subdomains 1", "subdomain 0", "dim 3",
             "aperture 1", f"nodes {len(nodes)}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in nodes]
    lines += [f"cells {len(cells)} simplex"] + [" ".join(map(str, c)) for c in cells]
    lines += ["end", "interfaces 0", "end"]
    path.write_text("\n".join(lines) + "\n")
    return cells
