"""Sparse storage, direct solution and condition numbers.

Matrices are held as scipy CSR with sorted, deduplicated column indices.
Every matrix is factorized by SuperLU under one fixed policy: a minimum
degree ordering of A^T + A in symmetric mode, with threshold pivoting that
keeps a diagonal pivot unless it is below 1% of its column (Li, ACM TOMS 31,
2005). The factor of a matrix serves its solves and its condition number,
which Lanczos (ARPACK) takes from the largest eigenvalues of A and of A^-1.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .errors import SingularMatrixError


def as_csr(matrix) -> sps.csr_matrix:
    """Canonical CSR: sorted column indices, duplicates summed."""
    csr = sps.csr_matrix(matrix)
    csr.sum_duplicates()
    csr.sort_indices()
    return csr


def factorize(matrix) -> spla.SuperLU:
    """LU-factorize a square sparse matrix deterministically.

    Raises:
        SingularMatrixError: On exactly singular pivots.
    """
    csr = as_csr(matrix)
    n, m = csr.shape
    if n != m:
        raise SingularMatrixError(f"matrix is not square: {csr.shape}")
    try:
        lu = spla.splu(
            csr.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.01,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports the failing pivot
        raise SingularMatrixError(f"sparse LU factorization failed: {exc}") from exc
    pivots = np.abs(lu.U.diagonal())
    smallest, largest = pivots.min(), pivots.max()
    if largest == 0.0 or smallest / largest < 1e-14:
        raise SingularMatrixError(
            f"matrix is numerically singular: pivot ratio {smallest:.3e} / {largest:.3e}"
        )
    return lu


def direct_solve(matrix, rhs: np.ndarray, factor: spla.SuperLU | None = None) -> np.ndarray:
    """Solve A x = b by sparse LU and verify the residual.

    Raises:
        SingularMatrixError: Singular factorization or a residual indicating
            numerical breakdown.
    """
    csr = as_csr(matrix)
    b = np.asarray(rhs, dtype=float)
    lu = factor if factor is not None else factorize(csr)
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solution contains non-finite entries (singular matrix?)")
    residual = np.linalg.norm(csr @ x - b)
    scale = np.abs(csr).sum(axis=1).max() * np.linalg.norm(x) + np.linalg.norm(b)
    if residual > 1e-8 * max(scale, 1e-300):
        raise SingularMatrixError(
            f"solve residual {residual:.3e} exceeds breakdown threshold (near-singular matrix)"
        )
    return x


def _largest_eigenvalue(n: int, matvec) -> float:
    """Largest |eigenvalue| of a symmetric operator, to machine precision."""
    operator = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    start = np.random.default_rng(0).standard_normal(n)  # fixed: runs repeat exactly
    values = spla.eigsh(operator, k=1, which="LM", tol=0, v0=start, return_eigenvectors=False)
    return float(abs(values[0]))


def condition_number(matrix, factor: spla.SuperLU | None = None) -> float:
    """2-norm condition number of a square sparse matrix.

    For an exactly symmetric A this is lambda_max(A) * lambda_max(A^-1) in
    magnitude; otherwise the square root of the same product for A^T A.
    A^-1 is applied through ``factor``, the LU factor of the solve, or a new
    factorization when none is given.

    Raises:
        SingularMatrixError: Singular factorization.
    """
    csr = as_csr(matrix)
    n = csr.shape[0]
    lu = factor if factor is not None else factorize(csr)
    if n == 1:
        return 1.0
    if (csr - csr.T).nnz == 0:
        return _largest_eigenvalue(n, csr.dot) * _largest_eigenvalue(n, lu.solve)
    normal = _largest_eigenvalue(n, lambda x: csr.T @ (csr @ x))
    inverse = _largest_eigenvalue(n, lambda x: lu.solve(lu.solve(x, trans="T")))
    return float(np.sqrt(normal * inverse))
