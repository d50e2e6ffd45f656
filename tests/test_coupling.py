"""Interdimensional coupling: transmissibilities, assembly, conservation."""

import numpy as np
import pytest

from fracfv.coupling import (
    assemble_global,
    conservation_residual,
    interface_fluxes,
    interface_transmissibility,
    uniform_problem,
)
from fracfv.errors import DegenerateGeometryError, MissingCouplingError
from fracfv.fvdiscretize import assemble_tpfa, flow_bc
from fracfv.harness.cases import case11_problem
from fracfv.linsolve import direct_solve
from fracfv.mdmesh import FractureNetworkSpec, FracturePatch, build_cartesian_with_fractures
from fracfv.tensors import tensor_field


class TestInterfaceTransmissibility:
    def test_direct_formula(self):
        t, a_hi, a_lo = interface_transmissibility(
            face_area=1.0,
            normal_out=np.array([1.0, 0.0]),
            distance=np.array([0.25, 0.0]),
            k_higher=np.eye(2),
            aperture=1e-2,
            k_lower=np.eye(2),
            lower_dim=1,
        )
        assert a_lo == pytest.approx(200.0)
        assert a_hi == pytest.approx(4.0)
        # With a higher-side half transmissibility of 2 the harmonic pair
        # gives 400/202.
        t2, _, _ = interface_transmissibility(
            1.0, np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.eye(2), 1e-2, np.eye(2), 1
        )
        assert t2 == pytest.approx(400.0 / 202.0)

    def test_distance_correction_scales(self):
        base, a_hi0, _ = interface_transmissibility(
            1.0, np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.eye(2), 1e-2, np.eye(2), 1
        )
        _, a_hi1, _ = interface_transmissibility(
            1.0,
            np.array([1.0, 0.0]),
            np.array([0.5, 0.0]),
            np.eye(2),
            1e-2,
            np.eye(2),
            1,
            distance_correction=True,
        )
        assert a_hi1 == pytest.approx(a_hi0 / 0.99)

    def test_vanishing_aperture_approaches_higher_half(self):
        previous = -np.inf
        _, alpha_higher, _ = interface_transmissibility(
            1.0, np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.eye(2), 1e-2, np.eye(2), 1
        )
        gaps = []
        for aperture in (1e-2, 1e-4, 1e-6):
            t, a_hi, a_lo = interface_transmissibility(
                1.0, np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.eye(2), aperture, np.eye(2), 1
            )
            assert t > previous
            previous = t
            gaps.append(alpha_higher - t)
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_point_cell_uses_eigenvalue_mean(self):
        k_point = np.diag([4.0, 1.0])
        _, _, a_lo = interface_transmissibility(
            1.0, np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.eye(2), 1e-2, k_point, 0
        )
        assert a_lo == pytest.approx(2.5 / 0.005)

    def test_large_aperture_with_correction_rejected(self):
        with pytest.raises(DegenerateGeometryError, match="aperture"):
            interface_transmissibility(
                1.0,
                np.array([1.0, 0.0]),
                np.array([0.05, 0.0]),
                np.eye(2),
                0.2,
                np.eye(2),
                1,
                distance_correction=True,
            )


def _fractured_2x1():
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0)),
        fractures=[FracturePatch(0, 0.5, ((0.0, 1.0),), 1e-2, 1.0, "v")],
    )
    return build_cartesian_with_fractures(spec, (2, 1))


class TestGlobalAssembly:
    def test_no_fracture_equals_single_block(self, unit_square_4):
        mesh = unit_square_4
        g = mesh.subdomains[0]
        bc = flow_bc(g).set_dirichlet(np.flatnonzero(g.external_boundary)[:4], 1.0)
        disc = assemble_tpfa(g, tensor_field(1.0, g.n_cells, 2), bc)
        system = assemble_global(mesh, [disc], [], [bc])
        assert abs(system.matrix - disc.matrix).nnz == 0
        assert np.array_equal(system.rhs, disc.rhs)

    def test_fractured_2x1_structure(self):
        mesh = _fractured_2x1()
        prob = uniform_problem(mesh, [1.0, 1.0], None)
        system = prob.assemble()
        assert system.matrix.shape == (3, 3)
        # Dirichlet-free system conserves constants.
        assert np.abs(system.matrix @ np.ones(3)).max() <= 1e-14

    def test_missing_coupling_rejected(self):
        mesh = _fractured_2x1()
        discs = []
        bcs = []
        for g in mesh.subdomains:
            bc = flow_bc(g)
            bcs.append(bc)
            discs.append(assemble_tpfa(g, tensor_field(1.0, g.n_cells, 2), bc))
        with pytest.raises(MissingCouplingError):
            assemble_global(mesh, discs, [], bcs)

    def test_uniform_permeability_solution_linear(self):
        problem, mesh = case11_problem(8, 1.0, 1.0)
        system = problem.assemble()
        p = direct_solve(system.matrix, system.rhs)
        expected = 1.0 - mesh.all_cell_centres()[:, 0]
        assert np.abs(p - expected).max() <= 1e-10

    def test_block_structure_dimension_gap(self):
        # No direct couplings between subdomains two dimensions apart.
        spec = FractureNetworkSpec(
            domain=((0.0, 1.0),) * 3,
            fractures=[
                FracturePatch(2, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-3, 1.0, "a"),
                FracturePatch(0, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-3, 1.0, "b"),
            ],
        )
        mesh = build_cartesian_with_fractures(spec, 2)
        prob = uniform_problem(mesh, [1.0] * len(mesh.subdomains), None)
        system = prob.assemble()
        dims = mesh.dof_dims()
        block = system.matrix[np.ix_(dims == 3, dims == 1)]
        assert abs(block).nnz == 0 or abs(block).max() == 0.0

    def test_coupling_is_two_point(self):
        mesh = _fractured_2x1()
        prob = uniform_problem(mesh, [1.0, 1.0], None)
        system = prob.assemble()
        for c in system.couplings:
            assert c.higher_dofs.shape == c.lower_dofs.shape
            assert c.transmissibility.shape == c.higher_dofs.shape


class TestInterfaceFluxes:
    def test_constant_pressure_zero_flux(self):
        mesh = _fractured_2x1()
        prob = uniform_problem(mesh, [1.0, 1.0], None)
        system = prob.assemble()
        for flux in interface_fluxes(system, np.ones(mesh.n_dofs)):
            assert np.abs(flux).max() == 0.0

    def test_linear_solution_interface_fluxes(self):
        problem, mesh = case11_problem(8, 1.0, 1.0)
        system = problem.assemble()
        p = direct_solve(system.matrix, system.rhs)
        h = 1.0 / 8.0
        dims = {i: g.dim for i, g in enumerate(mesh.subdomains)}
        names = {i: g.metadata.get("name") for i, g in enumerate(mesh.subdomains)}
        for c, flux in zip(system.couplings, interface_fluxes(system, p)):
            if names[mesh.interfaces[c.interface].lower] == "vertical":
                # Unit pressure gradient through the plane: flux equals the
                # matrix face area per pair.
                assert np.allclose(np.abs(flux), h, rtol=1e-10)

    def test_fracture_cell_mass_balance(self):
        problem, mesh = case11_problem(8, 1e3, 1e-3)
        system = problem.assemble()
        p = direct_solve(system.matrix, system.rhs)
        assert conservation_residual(system, p) <= 1e-12


class TestVanishingApertureLimit:
    def test_solution_approaches_unfractured(self):
        spec = FractureNetworkSpec(
            domain=((0.0, 1.0), (0.0, 1.0)),
            fractures=[FracturePatch(0, 0.5, ((0.0, 1.0),), 1e-6, 1.0, "v")],
        )
        mesh = build_cartesian_with_fractures(spec, 4)

        def bcb(sd, g):
            bc = flow_bc(g)
            ext = np.flatnonzero(g.external_boundary)
            faces = ext[
                (np.abs(g.face_centres[ext, 0]) < 1e-12)
                | (np.abs(g.face_centres[ext, 0] - 1.0) < 1e-12)
            ]
            if faces.size:
                bc.set_dirichlet(faces, lambda x: np.cos(x[1]) + x[0])
            return bc

        prob = uniform_problem(mesh, [1.0, 1.0], bcb)
        p = direct_solve(*(lambda s: (s.matrix, s.rhs))(prob.assemble()))

        plain = build_cartesian_with_fractures(
            FractureNetworkSpec(domain=((0.0, 1.0), (0.0, 1.0))), 4
        )
        prob0 = uniform_problem(plain, [1.0], bcb)
        p0 = direct_solve(*(lambda s: (s.matrix, s.rhs))(prob0.assemble()))
        n_matrix = plain.subdomains[0].n_cells
        gap = np.abs(p[:n_matrix] - p0) / max(np.abs(p0).max(), 1e-300)
        assert gap.max() <= 1e-4
