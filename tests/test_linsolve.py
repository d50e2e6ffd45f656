"""Direct solver and condition numbers."""

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfv.errors import SingularMatrixError
from fracfv.harness.cases import sweep_case11
from fracfv.linsolve import (
    as_csr,
    condition_number,
    direct_solve,
    factorize,
)


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

    def test_factor_reuse_matches_fresh_factorization(self):
        a = sps.csr_matrix(np.array([[4.0, 1.0, 0.0], [2.0, 5.0, 1.0], [0.0, 1.0, 3.0]]))
        lu = factorize(a)
        assert condition_number(a, factor=lu) == condition_number(a)
        assert condition_number(a) == pytest.approx(dense_condition(a), rel=1e-12)

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


def test_as_csr_canonicalizes():
    a = sps.coo_matrix(([1.0, 2.0, 3.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
    csr = as_csr(a)
    assert csr.nnz == 2  # duplicates summed
    assert csr[0, 1] == 3.0
