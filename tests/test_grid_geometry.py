"""One geometry builder for generated and loaded grids.

``structured_grid`` lays out a tensor grid's nodes, node lists and face-cell
table and hands them to ``build_grid``, the builder ``load_mesh`` uses. The
analytic tensor-grid builder it replaced is kept here as a reference oracle;
every preset mesh must reload from its saved document with the grid it was
built with.
"""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sps

from fracfv.harness import cases
from fracfv.mdmesh import load_mesh, save_mesh, structured_grid
from fracfv.mdmesh.grids import SubdomainGrid

# ---------------------------------------------------------------------------
# Reference oracle: centroids, measures and normals of a tensor grid from its
# node coordinates, axis by axis
# ---------------------------------------------------------------------------


def analytic_point_grid(point, ambient_dim, aperture):
    point = np.asarray(point, dtype=float).reshape(1, ambient_dim)
    empty_f = np.zeros((0, ambient_dim))
    return SubdomainGrid(
        dim=0,
        ambient_dim=ambient_dim,
        nodes=point.copy(),
        cell_centres=point.copy(),
        geometric_cell_measures=np.array([1.0]),
        face_centres=empty_f,
        face_normals=empty_f.copy(),
        geometric_face_measures=np.zeros(0),
        face_cells=np.zeros((0, 2), dtype=int),
        face_nodes=sps.csc_matrix((1, 0), dtype=bool),
        cell_nodes=sps.csc_matrix(np.ones((1, 1), dtype=bool)),
        aperture=float(aperture),
        internal_boundary=np.zeros(0, dtype=bool),
        kind="cartesian",
    )


def analytic_structured_grid(ambient_dim, active_axes, axis_nodes, fixed_coords, aperture):
    d = len(active_axes)
    if d == 0:
        point = np.array([fixed_coords[k] for k in range(ambient_dim)])
        return analytic_point_grid(point, ambient_dim, aperture)

    n_cells_axis = [len(a) - 1 for a in axis_nodes]
    mids = [0.5 * (a[:-1] + a[1:]) for a in axis_nodes]
    widths = [np.diff(a) for a in axis_nodes]
    cell_shape = tuple(n_cells_axis)
    node_shape = tuple(n + 1 for n in n_cells_axis)
    n_cells = int(np.prod(cell_shape))
    n_nodes = int(np.prod(node_shape))

    def fill_fixed(arr_per_active):
        n = arr_per_active[0].size
        out = np.empty((n, ambient_dim))
        for k in range(ambient_dim):
            if k in fixed_coords:
                out[:, k] = fixed_coords[k]
        for j, k in enumerate(active_axes):
            out[:, k] = arr_per_active[j]
        return out

    nodes = fill_fixed([g.ravel() for g in np.meshgrid(*axis_nodes, indexing="ij")])
    cell_centres = fill_fixed([g.ravel() for g in np.meshgrid(*mids, indexing="ij")])
    cell_measures = np.ones(n_cells)
    for g in np.meshgrid(*widths, indexing="ij"):
        cell_measures = cell_measures * g.ravel()

    cell_idx = np.arange(n_cells)
    cell_multi = np.unravel_index(cell_idx, cell_shape)
    cn_rows, cn_cols = [], []
    for corner in itertools.product((0, 1), repeat=d):
        node_multi = tuple(cell_multi[j] + corner[j] for j in range(d))
        cn_rows.append(np.ravel_multi_index(node_multi, node_shape))
        cn_cols.append(cell_idx)
    cell_nodes = sps.csc_matrix(
        (np.ones(n_cells * 2**d, dtype=bool), (np.concatenate(cn_rows), np.concatenate(cn_cols))),
        shape=(n_nodes, n_cells),
    )

    face_centres, face_measures, face_normals, face_cells = [], [], [], []
    fn_node, fn_face = [], []
    face_offset = 0
    for j, axis in enumerate(active_axes):
        fshape = tuple(n + 1 if i == j else n for i, n in enumerate(n_cells_axis))
        n_block = int(np.prod(fshape))
        coords = [axis_nodes[i] if i == j else mids[i] for i in range(d)]
        face_centres.append(fill_fixed([g.ravel() for g in np.meshgrid(*coords, indexing="ij")]))
        msr = np.ones(n_block)
        for i in range(d):
            if i != j:
                ones = [widths[i] if ii == i else np.ones(fshape[ii]) for ii in range(d)]
                msr = msr * np.meshgrid(*ones, indexing="ij")[i].ravel()
        face_measures.append(msr)
        normal = np.zeros(ambient_dim)
        normal[axis] = 1.0
        face_normals.append(np.broadcast_to(normal, (n_block, ambient_dim)))

        fidx = np.arange(n_block)
        fmulti = np.unravel_index(fidx, fshape)
        pos_j = fmulti[j]
        table = np.full((n_block, 2), -1)
        below = pos_j >= 1
        cmulti = tuple(fmulti[i][below] - (1 if i == j else 0) for i in range(d))
        table[below, 0] = np.ravel_multi_index(cmulti, cell_shape)
        above = pos_j <= n_cells_axis[j] - 1
        cmulti = tuple(fmulti[i][above] for i in range(d))
        table[above, 1] = np.ravel_multi_index(cmulti, cell_shape)
        face_cells.append(table)

        other = [i for i in range(d) if i != j]
        for corner in itertools.product((0, 1), repeat=d - 1):
            node_multi = tuple(
                fmulti[i] + (corner[other.index(i)] if i in other else 0) for i in range(d)
            )
            fn_node.append(np.ravel_multi_index(node_multi, node_shape))
            fn_face.append(fidx + face_offset)
        face_offset += n_block

    fn_node, fn_face = np.concatenate(fn_node), np.concatenate(fn_face)
    face_nodes = sps.csc_matrix(
        (np.ones(fn_node.size, dtype=bool), (fn_node, fn_face)), shape=(n_nodes, face_offset)
    )
    return SubdomainGrid(
        dim=d,
        ambient_dim=ambient_dim,
        nodes=nodes,
        cell_centres=cell_centres,
        geometric_cell_measures=cell_measures,
        face_centres=np.concatenate(face_centres, axis=0),
        face_normals=np.concatenate(face_normals, axis=0).astype(float),
        geometric_face_measures=np.concatenate(face_measures),
        face_cells=np.concatenate(face_cells, axis=0),
        face_nodes=face_nodes,
        cell_nodes=cell_nodes,
        aperture=float(aperture),
        internal_boundary=np.zeros(face_offset, dtype=bool),
        kind="cartesian",
    )


def _random_tensor_grid(rng):
    """Arguments of a tensor grid with 0-3 active axes in 1-3 dimensions:
    2-5 increasing nodes per active axis, a random coordinate on the others,
    all at a random scale and offset."""
    ambient = int(rng.integers(1, 4))
    d = int(rng.integers(0, ambient + 1))
    active = sorted(rng.choice(ambient, size=d, replace=False).tolist())
    scale = 10.0 ** rng.uniform(-3, 3)
    offset = scale * rng.uniform(-5, 5)
    axis_nodes = [
        offset + scale * np.cumsum(rng.uniform(0.05, 1.0, int(rng.integers(2, 6))))
        for _ in active
    ]
    fixed = {k: offset + scale * rng.uniform(-1, 1) for k in range(ambient) if k not in active}
    return ambient, active, axis_nodes, fixed, float(rng.uniform(0.1, 1.0))


def _sorted_csc(matrix):
    matrix = matrix.tocsc()
    matrix.sort_indices()
    return matrix


def test_structured_grid_matches_analytic_oracle():
    """Over random tensor grids the built topology and normals equal the
    oracle's, centroids and face measures agree to 1e-15 of the coordinate
    scale and cell measures to 1e-12 relative."""
    rng = np.random.default_rng(20261020)
    worst = {"centres": 0.0, "face_measures": 0.0, "cell_measures": 0.0}
    for _ in range(300):
        args = _random_tensor_grid(rng)
        grid, oracle = structured_grid(*args), analytic_structured_grid(*args)
        assert (grid.dim, grid.ambient_dim, grid.aperture) == (oracle.dim, *args[::4])
        assert grid.kind == oracle.kind == "cartesian"
        assert np.array_equal(grid.nodes, oracle.nodes)
        assert grid.face_cells.dtype == oracle.face_cells.dtype
        assert np.array_equal(grid.face_cells, oracle.face_cells)
        assert np.array_equal(grid.internal_boundary, oracle.internal_boundary)
        for name in ("face_nodes", "cell_nodes"):
            a, b = _sorted_csc(getattr(grid, name)), _sorted_csc(getattr(oracle, name))
            assert a.shape == b.shape, name
            assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices), name
        assert np.array_equal(grid.face_normals, oracle.face_normals)
        scale = np.abs(grid.nodes).max()
        for name in ("cell_centres", "face_centres"):
            assert getattr(grid, name).shape == getattr(oracle, name).shape
            if getattr(grid, name).size:
                error = np.abs(getattr(grid, name) - getattr(oracle, name)).max() / scale
                worst["centres"] = max(worst["centres"], error)
        if grid.n_faces:
            # A face measure is a product of d - 1 node spacings.
            face_scale = scale ** (grid.dim - 1)
            error = np.abs(grid.geometric_face_measures - oracle.geometric_face_measures).max()
            worst["face_measures"] = max(worst["face_measures"], error / face_scale)
        relative = np.abs(grid.geometric_cell_measures / oracle.geometric_cell_measures - 1.0)
        worst["cell_measures"] = max(worst["cell_measures"], relative.max())
    assert worst["centres"] <= 1e-15, worst
    assert worst["face_measures"] <= 1e-15, worst
    assert worst["cell_measures"] <= 1e-12, worst


# ---------------------------------------------------------------------------
# Saved preset meshes reload with the grids they were built with
# ---------------------------------------------------------------------------

PRESET_MESHES = {
    "1.1": lambda: cases.case11_problem(8)[1],
    "1.2-lite": lambda: cases.case12_problem(16)[1],
    "1.3": lambda: cases.case13_problem(8)[1],
    "3": lambda: cases.case3_problem(8)[1],
    "4": lambda: cases.case4_problem(8)[1],
    **{f"2-coarse-{n}": (lambda n=n: cases.case2_problem(n, 1.0)[1]) for n in (4, 8, 16, 32)},
    "2-fine": lambda: cases.case2_fine_reference(128, 1.0)[0].mesh,
}


def _assert_same_bits(a, b, name):
    assert type(a) is type(b), name
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    else:
        assert a == b, name


@pytest.mark.parametrize("name", PRESET_MESHES)
def test_saved_preset_mesh_reloads_bit_for_bit(tmp_path, name):
    """Every grid field of a reloaded preset mesh has the bits of the built
    one, and so do the CSC arrays of its node incidences. Only the sign of a
    zero normal component may differ: a split face's copy negates its
    original's normal where the reader derives it afresh, and the writer may
    list a 3D face's nodes the other way round its boundary."""
    mesh = PRESET_MESHES[name]()
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    assert len(loaded.subdomains) == len(mesh.subdomains)
    for built, grid in zip(mesh.subdomains, loaded.subdomains):
        for field in dataclasses.fields(grid):
            if field.name == "metadata":
                continue
            a, b = getattr(built, field.name), getattr(grid, field.name)
            if sps.issparse(a):
                a, b = _sorted_csc(a), _sorted_csc(b)
                for part in ("indptr", "indices", "data"):
                    _assert_same_bits(getattr(a, part), getattr(b, part), field.name)
            elif field.name == "face_normals":
                _assert_same_bits(a + 0.0, b + 0.0, field.name)  # -0.0 + 0.0 is 0.0
            else:
                _assert_same_bits(a, b, field.name)
