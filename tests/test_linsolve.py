"""Direct solver and condition numbers."""

import re
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import assert_reductions_symmetric, write_kuhn_mesh, x_dirichlet
from fracfv import linsolve
from fracfv.coupling import uniform_problem
from fracfv.errors import SingularMatrixError
from fracfv.fvdiscretize import assemble_mpfa, flow_bc
from fracfv.harness.cases import (
    case2_fine_reference,
    case2_problem,
    case3_problem,
    case11_problem,
    case12_problem,
    case13_problem,
    sweep_case11,
)
from fracfv.linsolve import (
    _krylov_route,
    as_csr,
    condition_number,
    direct_solve,
    factorize,
)
from fracfv.mdmesh import (
    FractureNetworkSpec,
    FracturePatch,
    build_cartesian_with_fractures,
    load_mesh,
)
from fracfv.tensors import tensor_field


def dense_condition(matrix) -> float:
    """Oracle: ratio of extreme singular values of the dense matrix."""
    singular_values = np.linalg.svd(sps.csr_matrix(matrix).toarray(), compute_uv=False)
    return float(singular_values[0] / singular_values[-1])


class TestDirectSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(direct_solve(sps.eye(3, format="csr"), b), b)

    def test_two_by_two(self):
        a = sps.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        x = direct_solve(a, np.array([1.0, 0.0]))
        assert np.allclose(x, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_random_spd_against_dense_oracle(self):
        rng = np.random.default_rng(314159)
        m = rng.standard_normal((50, 50))
        a = m @ m.T + 50.0 * np.eye(50)
        b = rng.standard_normal(50)
        reference = np.linalg.solve(a, b)  # dense LU oracle
        x = direct_solve(sps.csr_matrix(a), b)
        assert np.abs(x - reference).max() <= 1e-10 * np.abs(reference).max()

    def test_residual_bound(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((80, 80))
        a = sps.csr_matrix(m @ m.T + 80.0 * np.eye(80))
        b = rng.standard_normal(80)
        x = direct_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_raises(self):
        a = sps.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMatrixError):
            direct_solve(a, np.array([1.0, 0.0]))

    def test_non_square_raises(self):
        with pytest.raises(SingularMatrixError):
            factorize(sps.csr_matrix(np.ones((2, 3))))

    def test_reusable_factorization(self):
        a = sps.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        lu = factorize(a)
        x1 = direct_solve(a, np.array([1.0, 0.0]), factor=lu)
        x2 = direct_solve(a, np.array([0.0, 1.0]), factor=lu)
        assert np.allclose(x1, [2.0 / 3.0, 1.0 / 3.0])
        assert np.allclose(x2, [1.0 / 3.0, 2.0 / 3.0])


def mmd_splu(matrix):
    """The flow policy, applied to any matrix: minimum degree on A^T + A."""
    return spla.splu(
        as_csr(matrix).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.01,
        options={"SymmetricMode": True},
    )


def _lower_triangular(n, seed):
    """Sparse lower-triangular matrix whose diagonal dominates its columns."""
    rng = np.random.default_rng(seed)
    strict = sps.tril(sps.random(n, n, density=0.05, random_state=rng), -1)
    dominance = np.asarray(strict.sum(axis=0)).ravel()
    return as_csr(sps.diags(dominance + rng.random(n) + 0.1) - strict)


class TestOrderingPolicy:
    def test_lower_triangular_factored_without_fill(self):
        a = _lower_triangular(300, seed=5)
        lu = factorize(a)
        n = a.shape[0]
        assert np.array_equal(lu.perm_c, np.arange(n))
        assert np.array_equal(lu.perm_r, np.arange(n))
        assert lu.L.nnz + lu.U.nnz == a.nnz + n
        b = np.random.default_rng(6).standard_normal(n)
        reference = np.linalg.solve(a.toarray(), b)
        assert np.abs(lu.solve(b) - reference).max() <= 1e-13 * np.abs(reference).max()

    @pytest.mark.parametrize(
        "matrix",
        [
            lambda: case11_problem(8)[0].assemble().matrix,
            # One entry above the diagonal is enough to keep minimum degree.
            lambda: _lower_triangular(300, seed=5)
            + sps.csr_matrix(([1e-3], ([0], [299])), shape=(300, 300)),
        ],
        ids=["flow", "nearly-lower"],
    )
    def test_other_matrices_keep_the_flow_policy(self, matrix):
        a = as_csr(matrix())
        lu, reference = factorize(a), mmd_splu(a)
        assert np.array_equal(lu.perm_c, reference.perm_c)
        assert np.array_equal(lu.perm_r, reference.perm_r)
        b = np.arange(a.shape[0], dtype=float)
        assert np.array_equal(lu.solve(b), reference.solve(b))


class TestPivotGuard:
    """A lower-triangular matrix that SuperLU factors with no row swap gives
    its pivots from its own diagonal, without reading ``lu.U``; any other
    takes them from ``lu.U``. Both refuse the same matrices."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(-17.0, 0.0),
        swap=st.booleans(),
    )
    @example(n=3, seed=0, exponent=-15.0, swap=False)
    def test_matches_the_u_factor(self, n, seed, exponent, swap):
        a = _lower_triangular(n, seed).tolil()
        j = int(np.random.default_rng(seed).integers(n - 1))
        a[j, j] *= 10.0**exponent  # one small pivot
        if swap:
            a[n - 1, j] = 1.0  # a larger entry below it, for threshold pivoting
        a = as_csr(a)
        reference = spla.splu(
            a.tocsc(),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.01,
            options={"SymmetricMode": True},
        )
        pivots = np.abs(reference.U.diagonal())
        if np.array_equal(reference.perm_r, np.arange(n)):
            assert np.array_equal(pivots, np.abs(a.diagonal()))
        smallest, largest = pivots.min(), pivots.max()
        if smallest / largest < 1e-14:
            message = re.escape(f"pivot ratio {smallest:.3e} / {largest:.3e}")
            with pytest.raises(SingularMatrixError, match=message):
                factorize(a)
        else:
            assert np.array_equal(factorize(a).perm_r, reference.perm_r)

    def test_diagonal_ratio_below_the_guard_raises(self):
        # Nothing lies below the small pivot, so no row is swapped.
        a = sps.csr_matrix(np.array([[1.0, 0.0, 0.0], [-0.5, 1e-15, 0.0], [-0.5, 0.0, 1.0]]))
        with pytest.raises(SingularMatrixError, match="pivot ratio 1.000e-15 / 1.000e[+]00"):
            factorize(a)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(sps.eye(5, format="csr")) == pytest.approx(1.0)

    def test_diagonal(self):
        a = sps.diags([10.0, 1.0]).tocsr()
        assert condition_number(a) == pytest.approx(10.0)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((30, 30))
        a = sps.csr_matrix(m @ m.T + 30 * np.eye(30))
        c1 = condition_number(a)
        c2 = condition_number(17.5 * a)
        assert abs(c1 - c2) <= 1e-8 * c1

    def test_at_least_one(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            m = sps.csr_matrix(rng.standard_normal((12, 12)))
            assert condition_number(m) >= 1.0

    def test_laplacian_closed_form(self):
        # Five-point Dirichlet Laplacian on an 80 x 80 grid (6,400 unknowns):
        # eigenvalues 4/h^2 (sin^2(j pi h / 2) + sin^2(k pi h / 2)), h = 1/81.
        n = 80
        second = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        laplacian = sps.kron(second, sps.eye(n)) + sps.kron(sps.eye(n), second)
        expected = np.sin(n * np.pi / 162) ** 2 / np.sin(np.pi / 162) ** 2
        assert condition_number(laplacian) == pytest.approx(expected, rel=1e-8)

    def test_repeats_exactly(self):
        # ARPACK draws a new start vector where Lanczos finds an invariant
        # subspace, as on the identity; a fixed generator makes it repeat.
        a = sps.eye(20, format="csr")
        assert {condition_number(a) for _ in range(200)} == {1.0}

    def test_factor_reuse_matches_fresh_factorization(self):
        a = sps.csr_matrix(np.array([[4.0, 1.0, 0.0], [2.0, 5.0, 1.0], [0.0, 1.0, 3.0]]))
        lu = factorize(a)
        assert condition_number(a, factor=lu) == condition_number(a)
        assert condition_number(a) == pytest.approx(dense_condition(a), rel=1e-12)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "nonsymmetric"])
    def test_solve_with_condition_factors_once(self, monkeypatch, symmetric):
        rng = np.random.default_rng(11)
        b = sps.random(300, 300, density=0.02, random_state=rng, data_rvs=rng.standard_normal)
        if symmetric:
            b = b + b.T
        a = (b + sps.diags(np.asarray(abs(b).sum(axis=1)).ravel() + 1.0)).tocsr()
        rhs = rng.standard_normal(300)
        lu = factorize(a)
        x_expected, cond_expected = direct_solve(a, rhs, factor=lu), condition_number(a, factor=lu)
        factors = []
        monkeypatch.setattr(
            linsolve,
            "factorize",
            lambda m, **options: factors.append(m) or factorize(m, **options),
        )
        x, cond = linsolve.solve_with_condition(a, rhs)
        assert len(factors) == 1
        assert x.tobytes() == x_expected.tobytes()
        assert cond == cond_expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 120),
        density=st.floats(0.01, 0.3),
        shift=st.floats(1e-3, 10.0),
        symmetric=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_svd(self, n, density, shift, symmetric, seed):
        rng = np.random.default_rng(seed)
        b = sps.random(n, n, density=density, random_state=rng, data_rvs=rng.standard_normal)
        if symmetric:
            b = b + b.T  # positive definite once the diagonal dominates
        dominance = np.asarray(abs(b).sum(axis=1)).ravel()
        a = (b + sps.diags(dominance + shift)).tocsr()
        assert condition_number(a) == pytest.approx(dense_condition(a), rel=1e-8)

    def test_case11_sweep_against_dense_svd(self):
        for point in sweep_case11(resolution=8)["points"].values():
            cond_full = dense_condition(point["system"].matrix)
            assert point["cond_full"] == pytest.approx(cond_full, rel=1e-8)
            for tag in ("schur", "star_delta"):
                cond = dense_condition(point[tag]["reduced"].matrix)
                assert point[tag]["cond"] == pytest.approx(cond, rel=1e-8)
                assert point[tag]["r_c"] == pytest.approx(cond_full / cond, rel=1e-8)


@st.composite
def dominant_symmetric(draw):
    """A symmetric, Gershgorin-dominant matrix with a positive diagonal: a
    weighted graph Laplacian (a chain plus random edges, conductances spread
    over up to 1e16) with one or two anchors of 1e-8 to 1 of their diagonal,
    or, with no edges, a diagonal from 1 down to 10^-spread, spread <= 16."""
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.integers(0, 64)) / 4
    if draw(st.booleans()):
        diagonal = 10.0 ** (-spread * rng.random(n))
        diagonal[[0, -1]] = 1.0, 10.0**-spread
        return sps.diags(diagonal, format="csr")
    extra = draw(st.integers(0, n))
    i = np.concatenate([np.arange(n - 1), rng.integers(0, n, extra)])
    j = np.concatenate([np.arange(1, n), rng.integers(0, n, extra)])
    i, j = i[i != j], j[i != j]
    weights = 10.0 ** (-spread * rng.random(i.size))
    edges = sps.csr_matrix((weights, (i, j)), shape=(n, n))
    edges = edges + edges.T
    degree = np.asarray(edges.sum(axis=1)).ravel()
    anchors = rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False)
    anchor = np.zeros(n)
    anchor[anchors] = 10.0 ** (-7.9 * rng.random(anchors.size)) * np.maximum(degree[anchors], 1.0)
    return as_csr(sps.diags(degree + anchor) - edges)


class TestPivotGuardBoundByCondition:
    """``solve_with_condition`` reads ``lu.U`` only where kappa_2(A) does not
    bound the pivot ratio; it refuses exactly what the guard refuses."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dominant_symmetric())
    @example(sps.diags([0.737, 3.70e-16, 0.141], format="csr"))  # guard refuses
    @example(sps.diags([1.0, 1e-13], format="csr"))  # kappa 1e13, guard accepts
    @example(sps.eye(4, format="csr"))  # kappa 1
    def test_skips_the_read_only_where_the_guard_accepts(self, a):
        b = np.random.default_rng(0).standard_normal(a.shape[0])
        try:
            lu = factorize(a)
        except SingularMatrixError as exc:
            refusal = str(exc)
        else:
            refusal = None
            x_expected = direct_solve(a, b, factor=lu)
            cond_expected = condition_number(a, factor=lu)
        reads = []
        check_pivots = linsolve._check_pivots
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(
                linsolve, "_check_pivots", lambda *args: reads.append(1) or check_pivots(*args)
            )
            if refusal is not None:
                with pytest.raises(SingularMatrixError) as err:
                    linsolve.solve_with_condition(a, b)
                assert str(err.value) == refusal
                assert "pivot ratio" not in refusal or reads
                event("refused")
                return
            x, cond = linsolve.solve_with_condition(a, b)
        assert x.tobytes() == x_expected.tobytes()
        assert cond == cond_expected
        assert reads == ([] if cond <= linsolve.PIVOT_GUARD_CONDITION else [1])
        event("read skipped" if not reads else "read, accepted")

    def test_flow_matrices_skip_the_read(self, monkeypatch):
        reads = []
        check_pivots = linsolve._check_pivots
        monkeypatch.setattr(
            linsolve, "_check_pivots", lambda *args: reads.append(1) or check_pivots(*args)
        )
        system = case13_problem(4)[0].assemble()
        linsolve.solve_with_condition(system.matrix, system.rhs)
        assert reads == []


def backward_error(a, x, b) -> float:
    """Componentwise backward error max_i |b - A x|_i / (|A| |x| + |b|)_i."""
    residual = np.abs(b - a @ x)
    scale = abs(a) @ np.abs(x) + np.abs(b)
    return float(np.max(np.divide(residual, scale, out=np.zeros_like(scale), where=scale > 0)))


def count_factorizations(monkeypatch) -> list:
    """Record every factorization ``direct_solve`` makes."""
    calls = []
    factorize_ = linsolve.factorize
    monkeypatch.setattr(linsolve, "factorize", lambda a: calls.append(a) or factorize_(a))
    return calls


def _scaled_row(system, row: int, factor: float):
    """The system with one equation multiplied by ``factor``."""
    scale = np.ones(system.matrix.shape[0])
    scale[row] = factor
    return SimpleNamespace(matrix=sps.diags(scale) @ system.matrix, rhs=scale * system.rhs)


@st.composite
def networks_3d(draw):
    """Unit cube at res 6-12, crossed by 1-3 full or partial axis-aligned planes."""
    res = draw(st.integers(6, 12))
    planes = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, res - 1)),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    patches = []
    for n, (axis, index) in enumerate(planes):
        extents = []
        full = draw(st.booleans())
        for _ in range(2):
            lo = 0 if full else draw(st.integers(0, res - 1))
            hi = res if full else draw(st.integers(lo + 1, res))
            extents.append((lo / res, hi / res))
        aperture = 10.0 ** draw(st.floats(-6.0, -2.0))
        permeability = 10.0 ** draw(st.floats(-6.0, 6.0))
        patches.append(
            FracturePatch(axis, index / res, tuple(extents), aperture, permeability, f"p{n}")
        )
    spec = FractureNetworkSpec(((0.0, 1.0),) * 3, patches, intersection_permeability="min")
    return build_cartesian_with_fractures(spec, res)


class TestConjugateGradientRoute:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(networks_3d())
    def test_random_3d_networks_match_lu(self, mesh):
        perms = [1.0] + [g.metadata["permeability"] for g in mesh.subdomains[1:]]
        system = uniform_problem(mesh, perms, x_dirichlet).assemble()
        a, b = as_csr(system.matrix), system.rhs
        assert _krylov_route(a) == "cg"
        x = direct_solve(a, b)
        reference = direct_solve(a, b, factor=factorize(a))  # the LU route is the oracle
        assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()
        assert backward_error(a, x, b) <= 1e-14

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(networks_3d())
    def test_reduced_random_3d_networks_stay_on_cg(self, mesh):
        def matrix_dirichlet(sd, grid):
            # Boundary data on the matrix only, where Star-Delta accepts it.
            return x_dirichlet(sd, grid) if sd == 0 else None

        perms = [1.0] + [g.metadata["permeability"] for g in mesh.subdomains[1:]]
        system = uniform_problem(mesh, perms, matrix_dirichlet).assemble()
        assert min(assert_reductions_symmetric(system)) >= linsolve.CG_MIN_ROWS

    @pytest.mark.parametrize(
        "build",
        [
            # 2D md-mesh above the crossover: 4,593 unknowns, five-point stencil.
            lambda: case12_problem(64)[0].assemble(),
            # Symmetric MPFA with positive off-diagonal entries: 1,056 unknowns.
            lambda: case2_problem(32, 1.0)[0].assemble(),
            # Anisotropic 2D MPFA: 1,056 unknowns, 8.4 entries per row.
            lambda: case2_problem(32, 3.0)[0].assemble(),
            # Case 2's fine reference: 16,512 unknowns, 8.9 entries per row.
            lambda: case2_fine_reference(128, 3.0)[0].assemble(),
            # Nonsymmetric 3D MPFA: 576 unknowns.
            lambda: case3_problem(8, "mpfa")[0].assemble(),
            # A certified 3D TPFA matrix with one row doubled: a nonsymmetric Z-matrix.
            lambda: _scaled_row(case3_problem(8, "tpfa")[0].assemble(), 100, 2.0),
            # 3D TPFA under the crossover: 100 unknowns.
            lambda: case13_problem(4)[0].assemble(),
        ],
        ids=[
            "2d-tpfa",
            "symmetric-mpfa",
            "anisotropic-2d-mpfa",
            "2d-mpfa-reference",
            "nonsymmetric-mpfa",
            "nonsymmetric-z",
            "small-3d",
        ],
    )
    def test_other_matrices_stay_on_lu(self, monkeypatch, build):
        system = build()
        calls = count_factorizations(monkeypatch)
        x = direct_solve(system.matrix, system.rhs)
        assert len(calls) == 1
        reference = direct_solve(system.matrix, system.rhs, factor=factorize(system.matrix))
        assert np.array_equal(x, reference)

    def test_a_miss_falls_back_to_lu(self, monkeypatch):
        system = case3_problem(8, "tpfa")[0].assemble()
        a = as_csr(system.matrix)
        assert _krylov_route(a) == "cg"
        monkeypatch.setattr(linsolve, "CG_BACKWARD_ERROR", -1.0)
        calls = count_factorizations(monkeypatch)
        x = direct_solve(a, system.rhs)
        assert len(calls) == 1
        assert x.tobytes() == direct_solve(a, system.rhs, factor=factorize(a)).tobytes()

    def test_certified_matrix_is_not_factorized(self, monkeypatch):
        system = case3_problem(8, "tpfa")[0].assemble()
        calls = count_factorizations(monkeypatch)
        x = direct_solve(system.matrix, system.rhs)
        assert calls == []
        assert backward_error(as_csr(system.matrix), x, system.rhs) <= 1e-14

    def test_exactly_zero_residual_ends_the_iteration(self):
        # A periodic 7 x 7 x 7 grid with diagonal 8 and A x = b for x = 1:
        # every number in CG's first step is a power of two, so that step
        # lands on x exactly and leaves a zero residual.
        cycle = sps.diags([1.0, 1.0, 1.0, 1.0], [-6, -1, 1, 6], shape=(7, 7))
        eye = sps.eye(7)
        neighbours = (
            sps.kron(sps.kron(cycle, eye), eye)
            + sps.kron(sps.kron(eye, cycle), eye)
            + sps.kron(sps.kron(eye, eye), cycle)
        )
        a = as_csr(8.0 * sps.eye(343) - neighbours)
        assert _krylov_route(a) == "cg"
        assert np.array_equal(direct_solve(a, a @ np.ones(343)), np.ones(343))

    def test_pure_neumann_3d_still_raises(self):
        mesh = case13_problem(8)[1]
        perms = [1.0] + [g.metadata["permeability"] for g in mesh.subdomains[1:]]
        system = uniform_problem(mesh, perms, None).assemble()
        assert system.matrix.shape[0] >= linsolve.CG_MIN_ROWS
        assert _krylov_route(as_csr(system.matrix)) is None
        with pytest.raises(SingularMatrixError):
            direct_solve(system.matrix, system.rhs)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rhs_raises_on_both_routes(self, value):
        a = as_csr(case3_problem(8, "tpfa")[0].assemble().matrix)
        assert _krylov_route(a) == "cg"
        b = np.ones(a.shape[0])
        b[7] = value
        with pytest.raises(SingularMatrixError):
            direct_solve(a, b)
        with pytest.raises(SingularMatrixError):
            direct_solve(a, b, factor=factorize(a))


TENSOR = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.3], [0.5, 0.3, 1.5]])
GRADIENT = np.array([0.8, -1.4, 0.6])


def tetrahedral_mpfa(cubes: int, seed: int, tensor=TENSOR, dirichlet: bool = True):
    """Full-tensor MPFA on a perturbed Kuhn mesh of ``cubes``^3 cubes, with the
    linear pressure 0.25 + GRADIENT . x on the boundary (no-flow without
    ``dirichlet``). Returns the grid, the CSR matrix and the right-hand side."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kuhn.txt"
        write_kuhn_mesh(path, cubes, seed)
        grid = load_mesh(path).subdomains[0]
    bc = flow_bc(grid)
    if dirichlet:
        bc.set_dirichlet(np.flatnonzero(grid.external_boundary), lambda x: 0.25 + GRADIENT @ x)
    disc = assemble_mpfa(grid, tensor_field(tensor, grid.n_cells, 3), bc)
    return grid, as_csr(disc.matrix), disc.rhs


def rotated_tensor(rotation_seed: int, log_eigenvalues) -> np.ndarray:
    """SPD tensor with eigenvalues 10**log_eigenvalues, in axes rotated from
    ``rotation_seed``."""
    rng = np.random.default_rng(rotation_seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return rotation @ np.diag(10.0 ** np.asarray(log_eigenvalues)) @ rotation.T


@st.composite
def spd_tensors(draw):
    """A rotated SPD tensor whose smallest eigenvalue lies in [1e-6, 1e6] and
    whose anisotropy ratio is at most 10^2.5."""
    ratio = draw(st.floats(0.0, 2.5))
    logs = np.array([0.0, draw(st.floats(0.0, 1.0)) * ratio, ratio]) + draw(st.floats(-6.0, 6.0))
    return rotated_tensor(draw(st.integers(0, 2**32 - 1)), logs)


class TestBiCGSTABRoute:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(3, 8), st.integers(0, 2**32 - 1), spd_tensors())
    # The strongest anisotropy on the largest meshes, which the draws miss.
    @example(8, 1, rotated_tensor(1, [0.0, 1.25, 2.5]))
    @example(7, 2, rotated_tensor(2, [-6.0, -6.0, -3.5]))
    @example(6, 3, rotated_tensor(3, [6.0, 8.5, 8.5]))
    def test_tetrahedral_mpfa_matches_lu(self, cubes, seed, tensor):
        _, a, b = tetrahedral_mpfa(cubes, seed, tensor)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = count_factorizations(monkeypatch)
            x = direct_solve(a, b)
        # Three cubes give 162 unknowns, below the crossover: LU.
        assert len(calls) == int(a.shape[0] < linsolve.CG_MIN_ROWS)
        reference = direct_solve(a, b, factor=factorize(a))
        assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()
        assert backward_error(a, x, b) <= 1e-14

    def test_twelve_cubes_reproduce_the_linear_field(self, monkeypatch):
        grid, a, b = tetrahedral_mpfa(12, seed=3)
        assert a.shape[0] == 10_368
        calls = count_factorizations(monkeypatch)
        x = direct_solve(a, b)
        assert calls == []
        assert np.abs(x - (0.25 + grid.cell_centres @ GRADIENT)).max() <= 1e-10

    def test_allocates_one_abs_data_array(self, monkeypatch):
        # Beyond the matrix, the route's checks and iteration hold |A|'s data
        # (A's index arrays are shared) and vectors of A's size: 1.25 data
        # arrays on 3,072 unknowns. Copies of A's indices and off-diagonal
        # entries, of all of |A|, and the transposed copy of an undirected
        # component search took 2.1.
        _, a, b = tetrahedral_mpfa(8, seed=2)
        calls = count_factorizations(monkeypatch)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            direct_solve(a, b)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak <= a.data.nbytes + 20 * b.nbytes

    def test_a_miss_falls_back_to_lu(self, monkeypatch):
        _, a, b = tetrahedral_mpfa(4, seed=1)
        assert _krylov_route(a) == "bicgstab"
        monkeypatch.setattr(linsolve, "BICGSTAB_MAX_ITERATIONS", 0)
        calls = count_factorizations(monkeypatch)
        x = direct_solve(a, b)
        assert len(calls) == 1
        assert np.array_equal(x, direct_solve(a, b, factor=factorize(a)))

    def test_a_stall_hands_over_to_lu_early(self, monkeypatch):
        # Anisotropy ratio 10^5.5 on six cubes: the best backward error stops
        # falling tenfold per 100 steps, and LU takes over after 136 steps
        # instead of the cap's 500.
        _, a, b = tetrahedral_mpfa(6, seed=1, tensor=rotated_tensor(1, [0.0, 3.0, 5.5]))
        assert _krylov_route(a) == "bicgstab"
        checks = []
        backward_error = linsolve._backward_error
        monkeypatch.setattr(
            linsolve, "_backward_error", lambda *args: checks.append(1) or backward_error(*args)
        )
        calls = count_factorizations(monkeypatch)
        x = direct_solve(a, b)
        assert len(calls) == 1
        assert 4 * (len(checks) - 1) <= 200  # one check per 4 steps
        assert np.array_equal(x, direct_solve(a, b, factor=factorize(a)))

    def test_a_slow_steady_solve_keeps_the_krylov_route(self, monkeypatch):
        # Anisotropy ratio 1e4 on five cubes: the stop is met after 396 steps,
        # 76 of them in a row without a tenfold cut of the best backward
        # error, which the stall rule must not take for a stall.
        _, a, b = tetrahedral_mpfa(5, seed=1, tensor=rotated_tensor(1, [0.0, 1.0, 4.0]))
        calls = count_factorizations(monkeypatch)
        x = direct_solve(a, b)
        assert calls == []
        assert backward_error(a, x, b) <= 1e-14

    def test_exactly_zero_residual_ends_the_iteration(self, monkeypatch):
        # Diagonal 64 and 22 off-diagonal entries of alternating sign per row,
        # which cancel on x = 1: the first step lands on x exactly and leaves
        # s = t = 0, where omega = (t . s) / (t . t) is undefined.
        n = 256
        offsets = np.arange(1, 23)
        signs = np.where(offsets % 2, 1.0, -1.0)
        rows = np.repeat(np.arange(n), offsets.size)
        cols = (rows + np.tile(offsets, n)) % n
        a = as_csr(64.0 * sps.eye(n) + sps.csr_matrix((np.tile(signs, n), (rows, cols)), (n, n)))
        assert _krylov_route(a) == "bicgstab"
        calls = count_factorizations(monkeypatch)
        assert np.array_equal(direct_solve(a, a @ np.ones(n)), np.ones(n))
        assert calls == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rhs_raises(self, value):
        _, a, b = tetrahedral_mpfa(4, seed=1)
        assert _krylov_route(a) == "bicgstab"
        b[7] = value
        with pytest.raises(SingularMatrixError, match="right-hand side"):
            direct_solve(a, b)

    @pytest.mark.parametrize("n", [10, 300])
    def test_non_finite_rhs_refused_on_every_route(self, monkeypatch, n):
        # Diagonal systems below and above CG_MIN_ROWS, with and without a
        # factor: the right-hand side is refused before any factor is made.
        a = sps.diags(np.arange(1.0, n + 1.0), format="csr")
        b = np.ones(n)
        b[n // 2] = np.nan
        lu = factorize(a)
        calls = count_factorizations(monkeypatch)
        for factor in (None, lu):
            with pytest.raises(SingularMatrixError, match="right-hand side"):
                direct_solve(a, b, factor=factor)
        assert calls == []

    def test_pure_neumann_stays_on_lu(self, monkeypatch):
        # No anchor: the constant is in the null space, and LU reports it.
        _, a, _ = tetrahedral_mpfa(4, seed=1, dirichlet=False)
        assert a.shape[0] >= linsolve.CG_MIN_ROWS and _krylov_route(a) is None
        b = a @ np.random.default_rng(0).standard_normal(a.shape[0])
        calls = count_factorizations(monkeypatch)
        with pytest.raises(SingularMatrixError):
            direct_solve(a, b)
        assert len(calls) == 1

    def test_pure_neumann_singular_to_round_off_raises(self):
        # Six cubes, seed 1: LU's smallest pivot is 1.5e-14 of its largest,
        # just above the pivot guard, but every row sums to round-off, so the
        # constant is a null vector. Beside an anchored component it still is.
        _, neumann, _ = tetrahedral_mpfa(6, seed=1, dirichlet=False)
        ones = np.ones(neumann.shape[0])
        assert np.all(np.abs(neumann @ ones) <= 1e-15 * (abs(neumann) @ ones))
        anchored = tetrahedral_mpfa(4, seed=1)[1]
        for a in (neumann, as_csr(sps.block_diag((anchored, neumann)))):
            b = a @ np.random.default_rng(0).standard_normal(a.shape[0])
            with pytest.raises(SingularMatrixError, match="null vector"):
                direct_solve(a, b)
            with pytest.raises(SingularMatrixError, match="null vector"):
                factorize(a)


@pytest.mark.parametrize(
    "build, route",
    [
        (lambda: case3_problem(8, "tpfa")[0].assemble().matrix, "cg"),
        (lambda: case13_problem(4)[0].assemble().matrix, None),  # 100 rows
        (lambda: tetrahedral_mpfa(4, seed=1)[1], "bicgstab"),
        (lambda: tetrahedral_mpfa(4, seed=1, dirichlet=False)[1], None),
        (lambda: case2_problem(32, 3.0)[0].assemble().matrix, None),
    ],
    ids=["3d-tpfa", "small-3d-tpfa", "tet-mpfa", "tet-mpfa-no-dirichlet", "2d-mpfa"],
)
def test_route_table(build, route):
    assert _krylov_route(as_csr(build())) == route


def test_as_csr_canonicalizes():
    a = sps.coo_matrix(([1.0, 2.0, 3.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
    csr = as_csr(a)
    assert csr.nnz == 2  # duplicates summed
    assert csr[0, 1] == 3.0
