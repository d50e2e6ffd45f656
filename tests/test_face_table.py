"""The face-neighbour table and the array kernels built on it.

The per-face loop versions of TPFA assembly, interface coupling, flux-graph
construction, upwind assembly and face-node ordering are kept here as
reference oracles. They read the signed incidence ``cell_faces`` row by row
and never the table, so they check the table too. The array versions must
reproduce them on all six preset cases, on a perturbed simplex mesh and on
random fracture networks.
"""

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_triangle_square_mesh
from fracfv import coupling, transport
from fracfv.coupling import conservation_residual, uniform_problem
from fracfv.elimination import schur_reduce
from fracfv.errors import DegenerateGeometryError, InflowBoundaryError, MeshError
from fracfv.fvdiscretize import DIRICHLET, NEUMANN, flow_bc, transport_bc
from fracfv.harness import cases
from fracfv.harness.cases import CaseSpec, run_case
from fracfv.linsolve import direct_solve
from fracfv.mdmesh import FractureNetworkSpec, FracturePatch, build_cartesian_with_fractures, load_mesh
from fracfv.mdmesh.grids import face_cells_of
from fracfv.mdmesh.meshio import _ordered_face_nodes
from fracfv.tensors import PermeabilityTensor, tensor_field

# ---------------------------------------------------------------------------
# Reference oracles: the per-face loops the array code replaced
# ---------------------------------------------------------------------------


def _rows(grid):
    """Per face: its cells and their signs, from the incidence matrix."""
    csr = grid.cell_faces.tocsr()
    for f in range(grid.n_faces):
        sl = slice(csr.indptr[f], csr.indptr[f + 1])
        yield f, csr.indices[sl], csr.data[sl]


def loop_half_transmissibility(face_area, normal_out, distance, k_matrix):
    dd = float(distance @ distance)
    if dd == 0.0:
        raise DegenerateGeometryError("zero distance vector between cell and face centre")
    return float(face_area * (normal_out @ k_matrix @ distance) / dd)


def loop_face_transmissibility(alpha_i, alpha_j):
    s = alpha_i + alpha_j
    if s == 0.0:
        return 0.0
    return alpha_i * alpha_j / s


def loop_assemble_tpfa(grid, permeability, bc):
    n_faces, n_cells = grid.n_faces, grid.n_cells
    rows, cols, vals = [], [], []
    flux_boundary = np.zeros(n_faces)
    negative_half = negative_face = blocking = 0
    for f, cells, sgns in _rows(grid):
        if grid.internal_boundary[f]:
            continue
        alphas = []
        for c, s in zip(cells, sgns):
            alpha = loop_half_transmissibility(
                grid.face_areas[f],
                s * grid.face_normals[f],
                grid.face_centres[f] - grid.cell_centres[c],
                permeability[c],
            )
            negative_half += alpha < 0
            alphas.append(alpha)
        if len(cells) == 2:
            t = loop_face_transmissibility(alphas[0], alphas[1])
            negative_face += t < 0
            blocking += alphas[0] + alphas[1] == 0.0 and not (alphas[0] == 0 and alphas[1] == 0)
            (c_a, s_a), (c_b, s_b) = zip(cells, sgns)
            c_plus, c_minus = (c_a, c_b) if s_a > 0 else (c_b, c_a)
            rows += [f, f]
            cols += [c_plus, c_minus]
            vals += [t, -t]
        else:
            c, s = int(cells[0]), float(sgns[0])
            if bc.kind[f] == DIRICHLET:
                rows.append(f)
                cols.append(c)
                vals.append(s * alphas[0])
                flux_boundary[f] = -s * alphas[0] * bc.value_at(f)
            elif bc.kind[f] == NEUMANN:
                flux_boundary[f] = s * bc.value_at(f) * grid.face_areas[f]
    flux_cell = sps.csr_matrix((vals, (rows, cols)), shape=(n_faces, n_cells))
    diagnostics = {
        "negative_half_transmissibilities": int(negative_half),
        "negative_face_transmissibilities": int(negative_face),
        "blocking_faces": int(blocking),
    }
    return flux_cell, flux_boundary, diagnostics


def loop_interface_transmissibility(
    face_area, normal_out, distance, k_higher, aperture, k_lower, lower_dim, distance_correction
):
    if distance_correction:
        dist_norm = float(np.linalg.norm(distance))
        distance = distance * (1.0 - aperture / (2.0 * dist_norm))
    alpha_higher = loop_half_transmissibility(face_area, normal_out, distance, k_higher)
    if lower_dim == 0:
        kappa = float(np.trace(k_lower)) / k_lower.shape[0]
    else:
        kappa = float(normal_out @ k_lower @ normal_out)
    alpha_lower = kappa / (aperture / 2.0) * face_area
    return loop_face_transmissibility(alpha_higher, alpha_lower), alpha_higher, alpha_lower


def loop_discretize_interface(mesh, index, k_higher, k_lower, distance_correction=False):
    intf = mesh.interfaces[index]
    hi, lo = mesh.subdomains[intf.higher], mesh.subdomains[intf.lower]
    csr = hi.cell_faces.tocsr()
    out = []
    for f, c_low in intf.face_cell_pairs:
        cells = csr.indices[csr.indptr[f] : csr.indptr[f + 1]]
        sgns = csr.data[csr.indptr[f] : csr.indptr[f + 1]]
        assert cells.size == 1
        c_hi, sign = int(cells[0]), float(sgns[0])
        out.append((c_hi, *loop_interface_transmissibility(
            float(hi.face_areas[f]),
            sign * hi.face_normals[f],
            hi.face_centres[f] - hi.cell_centres[c_hi],
            k_higher[c_hi],
            float(lo.apertures[c_low]),
            k_lower[c_low],
            lo.dim,
            distance_correction,
        )))
    return np.array(out).reshape(-1, 4)


def loop_flux_graph_from_system(system, p):
    mesh = system.mesh
    conn_i, conn_j, conn_q, boundary = [], [], [], []
    for sd, disc in enumerate(system.discs):
        grid = mesh.subdomains[sd]
        fluxes = disc.flux_cell @ p[mesh.subdomain_slice(sd)] + disc.flux_boundary
        offset = mesh.dof_offset(sd)
        for f, cells, sgns in _rows(grid):
            if cells.size == 2:
                conn_i.append(offset + cells[np.flatnonzero(sgns > 0)[0]])
                conn_j.append(offset + cells[np.flatnonzero(sgns < 0)[0]])
                conn_q.append(fluxes[f])
            elif not grid.internal_boundary[f]:
                boundary.append((sd, f, offset + int(cells[0]), float(sgns[0]) * fluxes[f]))
    for c in system.couplings:
        flux = -c.transmissibility * (p[c.lower_dofs] - p[c.higher_dofs])
        conn_i.extend(c.higher_dofs.tolist())
        conn_j.extend(c.lower_dofs.tolist())
        conn_q.extend(flux.tolist())
    return (np.array(conn_i, dtype=int), np.array(conn_j, dtype=int), np.array(conn_q)), boundary


def loop_flux_graph_boundary_from_reduced(reduced, p_kept):
    system = reduced.system
    mesh = system.mesh
    kept_local = -np.ones(mesh.n_dofs, dtype=int)
    kept_local[reduced.kept] = np.arange(reduced.kept.size)
    boundary = []
    for sd, disc in enumerate(system.discs):
        grid = mesh.subdomains[sd]
        locs = kept_local[np.arange(mesh.dof_offset(sd), mesh.dof_offset(sd) + grid.n_cells)]
        if np.any(locs < 0):
            continue
        fluxes = disc.flux_cell @ p_kept[locs] + disc.flux_boundary
        for f, cells, sgns in _rows(grid):
            if cells.size == 1 and not grid.internal_boundary[f]:
                boundary.append((sd, f, int(locs[cells[0]]), float(sgns[0]) * fluxes[f]))
    return boundary


def loop_upwind_operator(graph, transport_bcs):
    n = graph.n_cells
    rows, cols, vals = [], [], []
    inflow = np.zeros(n)
    for i, j, q in zip(*graph.connections):
        if q > 0.0:
            upstream = i
        elif q < 0.0:
            upstream = j
        else:
            continue
        rows += [i, j]
        cols += [upstream, upstream]
        vals += [q, -q]
    for sd, f, cell, q_out in zip(*graph.boundary):
        bc = transport_bcs[sd]
        kind = bc.kind[f]
        if kind == NEUMANN:
            inflow[cell] -= bc.value_at(f) * bc.grid.face_areas[f]
        elif q_out > 0.0:
            rows.append(cell)
            cols.append(cell)
            vals.append(q_out)
        elif q_out < 0.0:
            if kind == DIRICHLET:
                inflow[cell] += -q_out * bc.value_at(f)
            else:
                raise InflowBoundaryError(f"inflow face {f} of subdomain {sd}")
    operator = sps.csr_matrix((vals, (rows, cols)), shape=(n, n))
    operator.sum_duplicates()
    return operator, inflow


def loop_ordered_face_nodes(grid, face):
    fn = grid.face_nodes.tocsc()
    node_list = list(fn.indices[fn.indptr[face] : fn.indptr[face + 1]])
    if grid.dim < 3 or len(node_list) <= 3:
        return node_list
    shifted = grid.nodes[node_list] - grid.nodes[node_list].mean(axis=0)
    _, _, vt = np.linalg.svd(shifted, full_matrices=False)
    order = np.argsort(np.arctan2(shifted @ vt[1], shifted @ vt[0]))
    return [node_list[i] for i in order]


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

TOL = 1e-15


def _close(new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    scale = max(np.abs(old).max(initial=0.0), 1e-300)
    assert np.abs(new - old).max(initial=0.0) <= TOL * scale


def _close_sparse(new, old):
    assert new.shape == old.shape
    gap = abs(sps.csr_matrix(new) - sps.csr_matrix(old))
    scale = max(abs(old).max() if old.nnz else 0.0, 1e-300)
    assert (gap.max() if gap.nnz else 0.0) <= TOL * scale


def _check_tpfa(disc, grid, permeability, bc):
    flux_cell, flux_boundary, diagnostics = loop_assemble_tpfa(grid, permeability, bc)
    _close_sparse(disc.flux_cell, flux_cell)
    _close(disc.flux_boundary, flux_boundary)
    assert disc.diagnostics == diagnostics


def _check_interface(c, mesh, index, k_higher, k_lower, distance_correction=False):
    oracle = loop_discretize_interface(mesh, index, k_higher, k_lower, distance_correction)
    assert np.array_equal(c.higher_cells, oracle[:, 0].astype(int))
    _close(c.transmissibility, oracle[:, 1])
    _close(c.alpha_higher, oracle[:, 2])
    _close(c.alpha_lower, oracle[:, 3])


def _check_boundary(boundary, oracle):
    sd, faces, cells, q_out = boundary
    assert len(sd) == len(oracle)
    if oracle:
        o_sd, o_faces, o_cells, o_q = (np.array(column) for column in zip(*oracle))
        assert np.array_equal(sd, o_sd) and np.array_equal(faces, o_faces)
        assert np.array_equal(cells, o_cells)
        _close(q_out, o_q)


def _check_system_graph(graph, system, p):
    (ci, cj, cq), boundary = loop_flux_graph_from_system(system, p)
    assert np.array_equal(graph.connections[0], ci) and np.array_equal(graph.connections[1], cj)
    _close(graph.connections[2], cq)
    _check_boundary(graph.boundary, boundary)


def _check_reduced_graph(graph, reduced, p_kept):
    _check_boundary(graph.boundary, loop_flux_graph_boundary_from_reduced(reduced, p_kept))


def _check_upwind(result, graph, transport_bcs):
    operator, inflow = loop_upwind_operator(graph, transport_bcs)
    _close_sparse(result[0], operator)
    _close(result[1], inflow)


class Spies:
    """Wrap the array kernels where the case runners look them up and check
    every call against its oracle."""

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(["tpfa", "interface", "system", "reduced", "upwind"], 0)
        self._wrap(monkeypatch, coupling, "assemble_tpfa", "tpfa", _check_tpfa)
        self._wrap(monkeypatch, coupling, "discretize_interface", "interface", _check_interface)
        self._wrap(monkeypatch, cases, "flux_graph_from_system", "system", _check_system_graph)
        self._wrap(monkeypatch, cases, "flux_graph_from_reduced", "reduced", _check_reduced_graph)
        self._wrap(monkeypatch, transport, "upwind_operator", "upwind", _check_upwind)

    def _wrap(self, monkeypatch, module, name, key, check):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            check(result, *args, **kwargs)
            self.calls[key] += 1
            return result

        monkeypatch.setattr(module, name, wrapper)


# ---------------------------------------------------------------------------
# Array kernels against the oracles
# ---------------------------------------------------------------------------

SMALL_CASES = [
    ("1.1", 4, {}),
    ("1.2-lite", 16, {"fine_resolution": 32}),
    ("1.3", 4, {"n_steps": 4}),
    ("2", None, {"ratio": 3.0, "fine_resolution": 32}),
    ("3", 4, {"n_steps": 4}),
    ("4", 8, {"n_steps": 4}),
]


@pytest.mark.parametrize("case,resolution,overrides", SMALL_CASES, ids=[c[0] for c in SMALL_CASES])
def test_cases_match_loop_oracles(monkeypatch, case, resolution, overrides):
    spies = Spies(monkeypatch)
    run_case(CaseSpec(case=case, resolution=resolution, overrides=overrides))
    assert spies.calls["interface"] > 0
    if case != "2":  # case 2 discretizes every subdomain by MPFA
        assert spies.calls["tpfa"] > 0
    if case in ("1.3", "3", "4"):
        assert spies.calls["system"] > 0 and spies.calls["upwind"] > 0
    if case in ("1.3", "4"):
        assert spies.calls["reduced"] > 0


def test_perturbed_simplex_mesh_matches_loop_oracles(tmp_path):
    path = tmp_path / "triangles.txt"
    write_triangle_square_mesh(path, perturb=0.6)
    mesh = load_mesh(path)
    g = mesh.subdomains[0]
    # Strong anisotropy across the skewed cells gives negative half
    # transmissibilities, which the diagnostics count.
    k = tensor_field(PermeabilityTensor.rotated([100.0, 0.01], 60.0), g.n_cells, 2)
    ext = np.flatnonzero(g.external_boundary)
    left = ext[g.face_centres[ext, 0] < 1e-12]
    right = ext[g.face_centres[ext, 0] > 1.0 - 1e-12]
    bottom = ext[g.face_centres[ext, 1] < 1e-12]

    def flow(sd, grid):
        bc = flow_bc(grid).set_dirichlet(left, lambda x: 1.0 + 0.3 * x[1])
        return bc.set_dirichlet(right, 0.0).set_neumann(bottom, 0.25)

    system = uniform_problem(mesh, [k], flow).assemble()
    _check_tpfa(system.discs[0], g, k, system.bcs[0])
    assert system.discs[0].diagnostics["negative_half_transmissibilities"] > 0

    p = direct_solve(system.matrix, system.rhs)
    graph = transport.flux_graph_from_system(system, p)
    _check_system_graph(graph, system, p)
    tracer = transport_bc(g).set_dirichlet(ext, lambda x: x[0]).set_neumann(bottom, -0.5)
    _check_upwind(transport.upwind_operator(graph, [tracer]), graph, [tracer])


def test_distance_corrected_interfaces_match_loop_oracle():
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
        fractures=[
            FracturePatch(0, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-2, 10.0, "a"),
            FracturePatch(1, 0.5, ((0.25, 0.75), (0.0, 1.0)), 2e-2, 0.1, "b"),
        ],
    )
    mesh = build_cartesian_with_fractures(spec, 4)
    rng = np.random.default_rng(3)
    perms = []
    for g in mesh.subdomains:
        a = rng.random((g.n_cells, 3, 3))
        perms.append(np.einsum("cij,ckj->cik", a, a) + np.eye(3))
    for index, intf in enumerate(mesh.interfaces):
        c = coupling.discretize_interface(
            mesh, index, perms[intf.higher], perms[intf.lower], distance_correction=True
        )
        _check_interface(c, mesh, index, perms[intf.higher], perms[intf.lower], True)


def test_table_derivation():
    # Faces: one interior (cells 0+, 1-), one with only a minus side, one empty.
    incidence = sps.csc_matrix(np.array([[1.0, -1.0], [0.0, -1.0], [0.0, 0.0]]))
    assert face_cells_of(incidence).tolist() == [[0, 1], [-1, 1], [-1, -1]]
    with pytest.raises(MeshError, match="face 1"):
        face_cells_of(sps.csc_matrix(np.array([[1.0, -1.0], [1.0, 1.0]])))


@pytest.mark.parametrize("build", [lambda: cases.case13_problem(4)[1], lambda: cases.case4_problem(8)[1]])
def test_ordered_face_nodes_match_loop(build):
    for grid in build().subdomains:
        ordered = _ordered_face_nodes(grid)
        assert [list(row) for row in ordered] == [
            loop_ordered_face_nodes(grid, f) for f in range(grid.n_faces)
        ]


# ---------------------------------------------------------------------------
# Random axis-aligned networks
# ---------------------------------------------------------------------------


@st.composite
def networks(draw):
    dim = draw(st.sampled_from([2, 3]))
    res = 4
    planes = draw(
        st.lists(
            st.tuples(st.integers(0, dim - 1), st.integers(1, res - 1)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    patches = []
    for n, (axis, index) in enumerate(planes):
        extents = []
        for _ in range(dim - 1):
            lo = draw(st.integers(0, res - 1))
            hi = draw(st.integers(lo + 1, res))
            extents.append((lo / res, hi / res))
        aperture = draw(st.sampled_from([1e-4, 1e-3, 1e-2]))
        permeability = 10.0 ** draw(st.integers(-4, 4))
        patches.append(FracturePatch(axis, index / res, tuple(extents), aperture, permeability, f"p{n}"))
    matrix_k = np.diag([10.0 ** draw(st.integers(-1, 1)) for _ in range(dim)])
    spec = FractureNetworkSpec(domain=((0.0, 1.0),) * dim, fractures=patches)
    return build_cartesian_with_fractures(spec, res), matrix_k


def _x_dirichlet(sd, grid):
    ext = np.flatnonzero(grid.external_boundary)
    bc = flow_bc(grid)
    for value, pressure in ((0.0, 1.0), (1.0, 0.0)):
        faces = ext[np.abs(grid.face_centres[ext, 0] - value) < 1e-12]
        if faces.size:
            bc.set_dirichlet(faces, pressure)
    return bc


@settings(max_examples=30, deadline=None, derandomize=True)
@given(networks())
def test_random_networks(network):
    mesh, matrix_k = network
    for g in mesh.subdomains:
        cf = g.cell_faces.tocoo()
        plus, minus = cf.data > 0, cf.data < 0
        assert np.array_equal(g.face_cells[cf.row[plus], 0], cf.col[plus])
        assert np.array_equal(g.face_cells[cf.row[minus], 1], cf.col[minus])
        assert np.count_nonzero(g.face_cells >= 0) == cf.nnz
    perms = [matrix_k] + [g.metadata["permeability"] for g in mesh.subdomains[1:]]
    system = uniform_problem(mesh, perms, _x_dirichlet).assemble()

    a = system.matrix
    asym = abs(a - a.T)
    assert (asym.max() if asym.nnz else 0.0) <= 1e-15 * abs(a).max()

    p = direct_solve(a, system.rhs)
    assert conservation_residual(system, p) <= 1e-12
    reduced = schur_reduce(system)
    p_kept = direct_solve(reduced.matrix, reduced.rhs)
    assert np.abs(p_kept - p[reduced.kept]).max() <= 1e-10 * np.abs(p).max()
