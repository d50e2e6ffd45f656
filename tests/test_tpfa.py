"""Two-point discretization: transmissibilities, assembly, fluxes."""

import numpy as np
import pytest

from fracfv.errors import DegenerateGeometryError
from fracfv.fvdiscretize import (
    assemble_tpfa,
    face_transmissibility,
    flow_bc,
    half_transmissibility,
    reconstruct_fluxes,
)
from fracfv.linsolve import direct_solve
from fracfv.mdmesh import FractureNetworkSpec, build_cartesian_with_fractures
from fracfv.tensors import PermeabilityTensor, tensor_field


class TestHalfTransmissibility:
    def test_unit_cell(self):
        alpha = half_transmissibility(1.0, np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.eye(2))
        assert alpha == pytest.approx(2.0)

    def test_anisotropic(self):
        alpha = half_transmissibility(
            1.0, np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.diag([4.0, 1.0])
        )
        assert alpha == pytest.approx(8.0)

    def test_skewed_distance(self):
        alpha = half_transmissibility(
            1.0, np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.eye(2)
        )
        assert alpha == pytest.approx(1.0)

    def test_zero_distance_raises(self):
        with pytest.raises(DegenerateGeometryError):
            half_transmissibility(1.0, np.array([1.0, 0.0]), np.zeros(2), np.eye(2))

    def test_negative_values_kept(self):
        # Strong anisotropy against a skewed distance vector: no clamping.
        k = PermeabilityTensor.rotated([100.0, 0.01], 60.0).matrix
        normal = np.array([1.0, 0.0])
        distance = np.array([0.1, -0.9])
        expected = (normal @ k @ distance) / (distance @ distance)
        alpha = half_transmissibility(1.0, normal, distance, k)
        assert alpha == pytest.approx(expected)
        assert alpha < 0.0


class TestFaceTransmissibility:
    @pytest.mark.parametrize(
        "alphas,expected", [((2.0, 2.0), 1.0), ((3.0, 6.0), 2.0), ((0.0, 5.0), 0.0)]
    )
    def test_harmonic(self, alphas, expected):
        assert face_transmissibility(*alphas) == pytest.approx(expected)

    def test_blocking_face_is_zero(self):
        assert face_transmissibility(3.0, -3.0) == 0.0


def series_chain_pressures(conductivities, widths, p_left, p_right):
    """Series-conductance oracle for a one-dimensional chain of cells."""
    k = np.asarray(conductivities, dtype=float)
    w = np.asarray(widths, dtype=float)
    # Resistances: boundary half cells plus interior half-cell pairs.
    resistances = [0.5 * w[0] / k[0]]
    for i in range(len(k) - 1):
        resistances.append(0.5 * w[i] / k[i] + 0.5 * w[i + 1] / k[i + 1])
    resistances.append(0.5 * w[-1] / k[-1])
    flux = (p_left - p_right) / sum(resistances)
    pressures = []
    p = p_left
    for i in range(len(k)):
        p = p - flux * resistances[i]
        pressures.append(p)
    return np.array(pressures), flux


def _chain_problem(conductivities, p_left=1.0, p_right=0.0):
    n = len(conductivities)
    mesh = build_cartesian_with_fractures(FractureNetworkSpec(domain=((0.0, 1.0),)), n)
    g = mesh.subdomains[0]
    k = np.array([c * np.eye(1) for c in conductivities])
    bc = flow_bc(g)
    ext = np.flatnonzero(g.external_boundary)
    left = ext[g.face_centres[ext, 0] < 0.5]
    right = ext[g.face_centres[ext, 0] > 0.5]
    bc.set_dirichlet(left, p_left).set_dirichlet(right, p_right)
    return g, assemble_tpfa(g, k, bc)


class TestAssembly:
    def test_three_cell_chain_matches_series_oracle(self):
        conductivities = [1.0, 2.0, 4.0]
        g, disc = _chain_problem(conductivities)
        p = direct_solve(disc.matrix, disc.rhs)
        expected, _ = series_chain_pressures(conductivities, [1.0 / 3.0] * 3, 1.0, 0.0)
        assert np.allclose(p, expected, rtol=1e-14)
        # Frozen values of the same oracle.
        assert np.allclose(expected, [5.0 / 7.0, 2.0 / 7.0, 1.0 / 14.0], rtol=1e-14)

    def test_linear_field_exact_on_cartesian(self, unit_square_4):
        g = unit_square_4.subdomains[0]
        k = tensor_field(1.0, g.n_cells, 2)
        bc = flow_bc(g).set_dirichlet(
            np.flatnonzero(g.external_boundary), lambda x: 1.0 - x[0]
        )
        disc = assemble_tpfa(g, k, bc)
        p = direct_solve(disc.matrix, disc.rhs)
        assert np.abs(p - (1.0 - g.cell_centres[:, 0])).max() <= 1e-13

    def test_pure_neumann_nullspace(self, unit_square_4):
        g = unit_square_4.subdomains[0]
        disc = assemble_tpfa(g, tensor_field(1.0, g.n_cells, 2), flow_bc(g))
        ones = np.ones(g.n_cells)
        assert np.abs(disc.matrix @ ones).max() <= 1e-14
        from fracfv.errors import SingularMatrixError

        incompatible = np.zeros(g.n_cells)
        incompatible[0] = 1.0  # nonzero net source cannot balance
        with pytest.raises(SingularMatrixError):
            direct_solve(disc.matrix, incompatible)

    def test_dirichlet_eliminated_matrix_symmetric(self, unit_square_4):
        g = unit_square_4.subdomains[0]
        k = tensor_field(np.diag([3.0, 0.5]), g.n_cells, 2)
        ext = np.flatnonzero(g.external_boundary)
        bc = flow_bc(g).set_dirichlet(ext[:6], 2.0)
        disc = assemble_tpfa(g, k, bc)
        assert (disc.matrix - disc.matrix.T).nnz == 0

    def test_diagnostics_counts(self, unit_square_4):
        g = unit_square_4.subdomains[0]
        disc = assemble_tpfa(g, tensor_field(1.0, g.n_cells, 2), flow_bc(g))
        assert disc.diagnostics["negative_half_transmissibilities"] == 0
        assert disc.diagnostics["negative_face_transmissibilities"] == 0


class TestReconstructFluxes:
    def test_constant_pressure_no_flow(self, unit_square_4):
        g = unit_square_4.subdomains[0]
        disc = assemble_tpfa(g, tensor_field(1.0, g.n_cells, 2), flow_bc(g))
        fluxes = reconstruct_fluxes(disc, np.ones(g.n_cells))
        assert np.abs(fluxes).max() == 0.0

    def test_two_cell_unit_flux(self):
        # Two unit-width cells: the interior face transmissibility is 1.
        mesh = build_cartesian_with_fractures(FractureNetworkSpec(domain=((0.0, 2.0),)), 2)
        g = mesh.subdomains[0]
        bc = flow_bc(g)
        disc = assemble_tpfa(g, tensor_field(1.0, g.n_cells, 1), bc)
        fluxes = reconstruct_fluxes(disc, np.array([1.0, 0.0]))
        interior = ~g.boundary_faces
        assert fluxes[interior] == pytest.approx([1.0])
        # Single stored value per face: the flux seen from either side is the
        # same number with opposite orientation signs.
        f = int(np.flatnonzero(interior)[0])
        plus, minus = g.face_cells[f]
        assert g.cell_faces[f, plus] == 1 and g.cell_faces[f, minus] == -1

    def test_divergence_matches_source(self, unit_square_4):
        g = unit_square_4.subdomains[0]
        k = tensor_field(1.0, g.n_cells, 2)
        ext = np.flatnonzero(g.external_boundary)
        bc = flow_bc(g).set_dirichlet(ext, 0.0)
        disc = assemble_tpfa(g, k, bc)
        source = np.zeros(g.n_cells)
        source[5] = 2.5
        p = direct_solve(disc.matrix, disc.rhs + source)
        balance = disc.div @ reconstruct_fluxes(disc, p) - source
        assert np.abs(balance).max() <= 1e-12 * np.abs(source).max()

    def test_neumann_face_returns_prescribed_total(self):
        mesh = build_cartesian_with_fractures(
            FractureNetworkSpec(domain=((0.0, 2.0), (0.0, 1.0))), (2, 1)
        )
        g = mesh.subdomains[0]
        ext = np.flatnonzero(g.external_boundary)
        left = ext[g.face_centres[ext, 0] < 0.25]
        right = ext[g.face_centres[ext, 0] > 1.75]
        bc = flow_bc(g).set_neumann(left, -3.0).set_dirichlet(right, 0.0)
        disc = assemble_tpfa(g, tensor_field(1.0, g.n_cells, 2), bc)
        p = direct_solve(disc.matrix, disc.rhs)
        fluxes = reconstruct_fluxes(disc, p)
        _, sign = g.one_sided_cells(left[0])
        # Outward flux density -3 over unit area.
        assert sign * fluxes[left[0]] == pytest.approx(-3.0)
