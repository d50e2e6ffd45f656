"""Intersection-cell elimination: Schur complement and Star-Delta."""

import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps

from fracfv.elimination import (
    _condense,
    back_substitute,
    limit_equivalence_check,
    reduced_fluxes,
    schur_reduce,
    schur_reduce_matrix,
    star_delta_reduce,
)
from fracfv.errors import EliminationError, UnsupportedSourceError
from fracfv.harness.cases import _dirichlet_planes, case4_problem, case11_problem, case13_problem
from fracfv.linsolve import as_csr, condition_number, direct_solve


class TestSchurMatrixLevel:
    def test_two_by_two_hand_example(self):
        a = sps.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        red = schur_reduce_matrix(a, np.array([1.0, 0.0]), [1])
        assert red.matrix.toarray() == pytest.approx(np.array([[1.5]]))
        assert red.rhs == pytest.approx([1.0])
        p_kept = red.rhs / red.matrix.toarray()[0, 0]
        full = back_substitute(red, p_kept)
        assert full == pytest.approx([2.0 / 3.0, 1.0 / 3.0])

    def test_three_by_three_hand_example(self):
        a = sps.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
        red = schur_reduce_matrix(a, np.zeros(3), [1])
        assert red.matrix.toarray() == pytest.approx(np.array([[1.5, -0.5], [-0.5, 1.5]]))

    def test_zero_rhs_back_substitution(self):
        a = sps.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        red = schur_reduce_matrix(a, np.zeros(2), [1])
        assert back_substitute(red, np.zeros(1)) == pytest.approx([0.0, 0.0])

    def test_random_spd_matches_dense_block_elimination(self):
        rng = np.random.default_rng(1234)
        m = rng.standard_normal((50, 50))
        a = m @ m.T + 50.0 * np.eye(50)
        b = rng.standard_normal(50)
        eliminated = np.arange(12, 31)
        kept = np.setdiff1d(np.arange(50), eliminated)
        # Dense block-elimination oracle.
        a_kk = a[np.ix_(kept, kept)]
        a_ke = a[np.ix_(kept, eliminated)]
        a_ek = a[np.ix_(eliminated, kept)]
        a_ee = a[np.ix_(eliminated, eliminated)]
        oracle_matrix = a_kk - a_ke @ np.linalg.solve(a_ee, a_ek)
        oracle_rhs = b[kept] - a_ke @ np.linalg.solve(a_ee, b[eliminated])

        red = schur_reduce_matrix(sps.csr_matrix(a), b, eliminated)
        assert np.abs(red.matrix.toarray() - oracle_matrix).max() <= 1e-10 * np.abs(
            oracle_matrix
        ).max()
        assert np.abs(red.rhs - oracle_rhs).max() <= 1e-10 * np.abs(oracle_rhs).max()
        p_kept = direct_solve(red.matrix, red.rhs)
        full = back_substitute(red, p_kept)
        reference = np.linalg.solve(a, b)
        assert np.abs(full - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_nonsymmetric_sparse_matches_dense_block_elimination(self):
        # Two eliminated groups, each coupled nonsymmetrically to itself and
        # to the kept rows: the inverse must not be transposed or mirrored.
        rng = np.random.default_rng(7)
        m = sps.random(40, 40, density=0.15, random_state=rng) - sps.random(
            40, 40, density=0.15, random_state=rng
        )
        a = (m + 10.0 * sps.eye(40)).toarray()
        a[np.ix_([3, 4, 5], [20, 21])] = a[np.ix_([20, 21], [3, 4, 5])] = 0.0
        eliminated = np.array([3, 4, 5, 20, 21])
        b = rng.standard_normal(40)
        kept = np.setdiff1d(np.arange(40), eliminated)

        def solve(rhs):
            return np.linalg.solve(a[np.ix_(eliminated, eliminated)], rhs)

        a_ke = a[np.ix_(kept, eliminated)]
        oracle_matrix = a[np.ix_(kept, kept)] - a_ke @ solve(a[np.ix_(eliminated, kept)])
        oracle_rhs = b[kept] - a_ke @ solve(b[eliminated])

        red = schur_reduce_matrix(sps.csr_matrix(a), b, eliminated)
        assert np.abs(red.matrix.toarray() - oracle_matrix).max() <= 1e-13 * np.abs(a).max()
        assert np.abs(red.rhs - oracle_rhs).max() <= 1e-13 * np.abs(oracle_rhs).max()
        full = back_substitute(red, np.linalg.solve(oracle_matrix, oracle_rhs))
        reference = np.linalg.solve(a, b)
        assert np.abs(full - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_symmetric_input_gives_exactly_symmetric_output(self):
        rng = np.random.default_rng(99)
        m = rng.standard_normal((30, 30))
        a = sps.csr_matrix(m + m.T + 60.0 * np.eye(30))
        red = schur_reduce_matrix(a, rng.standard_normal(30), np.arange(5, 17))
        assert (red.matrix - red.matrix.T).nnz == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_one_pass_mirror_matches_triangle_sum(self, seed):
        """The mirrored fill equals the upper triangle plus its transposed
        strict part, bit for bit, explicit zeros and empty rows included."""
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 40), rng.integers(1, 6)
        blocks = [
            sps.random(*shape, density=rng.uniform(0.05, 0.6), random_state=rng, format="csr")
            for shape in ((n, n), (n, m), (m, m), (m, n))
        ]
        a_kk, a_ke, e, a_ek = blocks
        a_kk.data[::3] = 0.0
        fill = (a_ke @ e) @ a_ek
        oracle = as_csr(a_kk - (sps.triu(fill) + sps.triu(fill, 1).T))
        for symmetric, expected in ((True, oracle), (False, as_csr(a_kk - fill))):
            result = _condense(a_kk, a_ke, e, a_ek, symmetric)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(result, attr), getattr(expected, attr))

    def test_singular_block_names_rows(self):
        a = sps.csr_matrix(
            np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        )
        # Eliminating rows 1 and 2 gives a singular 2x2 block (zero entry).
        a = sps.csr_matrix(np.array([[2.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        with pytest.raises(EliminationError):
            schur_reduce_matrix(a, np.zeros(3), [1, 2])

    def test_sparsity_containment(self):
        # Kept cells gain connections only through a shared eliminated group.
        problem, mesh = case13_problem(4)
        system = problem.assemble()
        red = schur_reduce(system)
        a = system.matrix
        fill = red.matrix - a[red.kept][:, red.kept]
        fill_coo = fill.tocoo()
        adjacent = set()
        a_ek = a[red.eliminated][:, red.kept].tocoo()
        neighbours = set(a_ek.col[a_ek.data != 0.0].tolist())
        for r, c, v in zip(fill_coo.row, fill_coo.col, fill_coo.data):
            if v != 0.0:
                assert r in neighbours and c in neighbours


class TestSchurSystemLevel:
    def test_eliminated_set_restricted_to_intersections(self):
        problem, mesh = case11_problem(4)
        system = problem.assemble()
        with pytest.raises(EliminationError, match="intersection"):
            schur_reduce(system, np.array([0]))  # a matrix cell

    def test_default_set_is_low_dimensions(self):
        problem, mesh = case13_problem(4)
        system = problem.assemble()
        red = schur_reduce(system)
        assert np.array_equal(red.eliminated, mesh.intersection_dofs())
        dims = mesh.dof_dims()
        assert set(dims[red.eliminated]) == {1}

    def test_kept_solution_matches_full(self):
        problem, mesh = case13_problem(4)
        system = problem.assemble()
        p_full = direct_solve(system.matrix, system.rhs)
        red = schur_reduce(system)
        p_kept = direct_solve(red.matrix, red.rhs)
        scale = np.abs(p_full).max()
        assert np.abs(p_kept - p_full[red.kept]).max() <= 1e-12 * scale
        full = back_substitute(red, p_kept)
        assert np.abs(full - p_full).max() <= 1e-12 * scale


def star_transmissibilities(alphas) -> np.ndarray:
    """The direct transmissibilities that Star-Delta gives the branch cells of
    one star: kept cells 0..n-1, each coupled to the eliminated centre n by a
    branch of kept-side conductance ``alphas[i]``."""
    alphas = np.asarray(alphas, dtype=float)
    n = alphas.size
    t = alphas / 2.0  # the two-point coupling that the star replaces
    matrix = np.diag(np.append(t, t.sum()))
    matrix[:n, n] = matrix[n, :n] = -t
    coupling = SimpleNamespace(
        higher_dofs=np.arange(n), lower_dofs=np.full(n, n), alpha_higher=alphas, transmissibility=t
    )
    system = SimpleNamespace(
        mesh=SimpleNamespace(intersection_dofs=lambda: np.array([n])),
        matrix=sps.csr_matrix(matrix),
        rhs=np.zeros(n + 1),
        couplings=[coupling],
    )
    delta = -star_delta_reduce(system).matrix.toarray()
    np.fill_diagonal(delta, 0.0)
    return delta


class TestStarDelta:
    def test_two_branch_star_is_harmonic_average(self):
        t = star_transmissibilities(np.array([2.0, 2.0]))
        assert t[0, 1] == pytest.approx(1.0)

    def test_four_equal_branches(self):
        t = star_transmissibilities(np.array([2.0, 2.0, 2.0, 2.0]))
        off = t[~np.eye(4, dtype=bool)]
        assert np.all(off == 0.5)

    def test_three_branch_values(self):
        t = star_transmissibilities(np.array([1.0, 2.0, 3.0]))
        assert t[0, 1] == pytest.approx(2.0 / 6.0)
        assert t[0, 2] == pytest.approx(3.0 / 6.0)
        assert t[1, 2] == pytest.approx(1.0)

    def test_row_sum_identity_exact_for_dyadic_branches(self):
        alphas = np.array([1.0, 1.0, 2.0, 4.0])  # total 8: exact arithmetic
        t = star_transmissibilities(alphas)
        total = alphas.sum()
        for i in range(4):
            assert t[i].sum() == alphas[i] * (total - alphas[i]) / total

    def test_row_sum_identity_general(self):
        alphas = np.array([0.3, 1.7, 2.9, 0.11])
        t = star_transmissibilities(alphas)
        total = alphas.sum()
        for i in range(alphas.size):
            expected = alphas[i] * (total - alphas[i]) / total
            assert t[i].sum() == pytest.approx(expected, rel=1e-14)

    def test_source_in_eliminated_cell_rejected(self):
        problem, mesh, injection_dof = case4_problem(8)
        system = problem.assemble()
        assert injection_dof in mesh.intersection_dofs()
        with pytest.raises(UnsupportedSourceError):
            star_delta_reduce(system, mesh.intersection_dofs())

    def test_dirichlet_outlet_on_eliminated_cell_rejected(self):
        # A zero pressure on the intersection line's y = 1 end face adds only
        # to the eliminated block's diagonal, which the star would drop.
        problem, mesh = case13_problem(4, k_blocking=1e6, aperture=1e-2)
        build = _dirichlet_planes((0, 0.0, 1.0), (1, 1.0, 0.0))
        bcs = [build(sd, grid) for sd, grid in enumerate(mesh.subdomains)]
        system = replace(problem, bcs=bcs).assemble()
        line = mesh.intersection_dofs()
        assert not system.rhs[line].any()
        with pytest.raises(UnsupportedSourceError, match=re.escape(f"cells [{line[-1]}] carry")):
            star_delta_reduce(system)

    def test_reduction_conserves_constants(self):
        problem, mesh = case11_problem(4, 2.0, 0.5)
        # Strip Dirichlet data: use the raw network with no-flow boundaries.
        from fracfv.coupling import uniform_problem

        neutral = uniform_problem(
            mesh, problem.permeability, None, distance_correction=True
        )
        system = neutral.assemble()
        star = star_delta_reduce(system)
        assert np.abs(star.matrix @ np.ones(star.kept.size)).max() <= 1e-13


class TestReducedFluxes:
    def test_two_branch_reduction_matches_two_point_flux(self):
        # A 3-cell chain with the middle cell eliminated behaves like one
        # two-point connection between the outer cells.
        a = sps.csr_matrix(
            np.array([[3.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 3.0]])
        )
        b = np.array([1.0, 0.0, 0.0])
        red = schur_reduce_matrix(a, b, [1])
        p = direct_solve(red.matrix, red.rhs)
        i, j, flux = reduced_fluxes(red, p)
        assert list(i) == [0] and list(j) == [1]
        assert flux[0] == pytest.approx(1.0 * (p[0] - p[1]))  # t = 2*2/4

    def test_requires_symmetric_connections(self):
        a = sps.csr_matrix(np.array([[2.0, -1.0], [-0.5, 2.0]]))
        red = schur_reduce_matrix(a, np.zeros(2), [])
        with pytest.raises(EliminationError, match="symmetric"):
            reduced_fluxes(red, np.array([1.0, 0.0]))


class TestLimitEquivalence:
    def test_boost_sweep_decreases_monotonically(self):
        problem, mesh = case11_problem(8, 1e3, 1e-3)
        report = limit_equivalence_check(problem, None, [1e2, 1e6, 1e10])
        deviations = [e["max_matrix_deviation"] for e in report["sweep"]]
        assert deviations[0] > deviations[1] > deviations[2]
        pressure_gaps = [e["relative_pressure_difference"] for e in report["sweep"]]
        assert pressure_gaps[-1] < 1e-6

    def test_baseline_boost_reports_the_actual_gap(self):
        problem, mesh = case11_problem(4, 1.0, 1e-3)
        report = limit_equivalence_check(problem, None, [1e-3])
        system = problem.assemble()
        schur = schur_reduce(system)
        star = star_delta_reduce(system)
        gap = abs(schur.matrix - star.matrix).max()
        assert report["sweep"][0]["max_matrix_deviation"] == pytest.approx(gap, rel=1e-12)


class TestTangentialLeakage:
    def test_reduced_fluxes_redistribute_tangential_flow(self, capsys):
        # Drive flow along the intersection line: a conductive line carries
        # tangential flow that the direct kept-to-kept stencil spreads over
        # the crossing fractures, while back-substitution keeps it on the
        # line. No tolerance is asserted; the discrepancy is reported.
        from fracfv.coupling import uniform_problem
        from fracfv.fvdiscretize import flow_bc
        from fracfv.mdmesh import (
            FractureNetworkSpec,
            FracturePatch,
            build_cartesian_with_fractures,
        )

        network = FractureNetworkSpec(
            domain=((0.0, 1.0),) * 3,
            fractures=[
                FracturePatch(2, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-3, 1e2, "a"),
                FracturePatch(0, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-3, 1e2, "b"),
            ],
            intersection_permeability="min",
        )
        mesh = build_cartesian_with_fractures(network, 4)

        def bcb(sd, g):
            bc = flow_bc(g)
            ext = np.flatnonzero(g.external_boundary)
            y0 = ext[np.abs(g.face_centres[ext, 1]) < 1e-12]
            y1 = ext[np.abs(g.face_centres[ext, 1] - 1.0) < 1e-12]
            if y0.size:
                bc.set_dirichlet(y0, 1.0)
            if y1.size:
                bc.set_dirichlet(y1, 0.0)
            return bc

        perms = [
            g.metadata["permeability"] if g.metadata.get("role") != "matrix" else 1.0
            for g in mesh.subdomains
        ]
        problem = uniform_problem(mesh, perms, bcb)
        system = problem.assemble()
        p_full = direct_solve(system.matrix, system.rhs)
        reduced = schur_reduce(system)
        p_kept = direct_solve(reduced.matrix, reduced.rhs)

        # Direct kept-to-kept fluxes across the eliminated line.
        i, j, flux = reduced_fluxes(reduced, p_kept)
        fill_mask = np.zeros(flux.size, dtype=bool)
        a_kk = system.matrix[reduced.kept][:, reduced.kept]
        fills = (reduced.matrix - a_kk).tocoo()
        fill_pairs = {(r, c) for r, c, v in zip(fills.row, fills.col, fills.data) if v != 0.0}
        for n, (r, c) in enumerate(zip(i, j)):
            fill_mask[n] = (r, c) in fill_pairs
        direct_through = np.abs(flux[fill_mask]).sum()

        # Back-substituted view: tangential flux along the eliminated line,
        # from its internal discretization.
        from fracfv.fvdiscretize import reconstruct_fluxes

        full = back_substitute(reduced, p_kept)
        line_sd = [i for i, g in enumerate(mesh.subdomains) if g.dim == 1][0]
        line_disc = system.discs[line_sd]
        line_p = full[mesh.subdomain_slice(line_sd)]
        tangential = np.abs(reconstruct_fluxes(line_disc, line_p)).max()
        print(
            f"tangential leakage report: direct-stencil throughflow={direct_through:.6e} "
            f"spread over the crossing fractures, back-substituted tangential line "
            f"flux={tangential:.6e}"
        )
        assert np.isfinite(direct_through) and direct_through > 0.0
        assert np.isfinite(tangential) and tangential > 0.0


class TestConditionImprovement:
    @pytest.mark.parametrize("k_h", [1e-3, 1.0, 1e3])
    def test_low_permeable_intersection_improves_conditioning(self, k_h):
        problem, mesh = case11_problem(8, k_h, 1e-3)
        system = problem.assemble()
        cond_full = condition_number(system.matrix)
        for reducer in (schur_reduce, star_delta_reduce):
            red = reducer(system)
            assert cond_full / condition_number(red.matrix) > 10.0
