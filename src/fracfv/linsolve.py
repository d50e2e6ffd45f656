"""Sparse storage, linear solves and condition numbers.

Matrices are held as scipy CSR with sorted, deduplicated column indices.
``direct_solve`` without a factor, given a 1-D right-hand side and a matrix of
at least 200 rows (below which LU is as fast), takes one of two Krylov routes.

- Conjugate gradients on D^-1/2 A D^-1/2, D = diag A (Hestenes and Stiefel,
  1952), take a matrix that passes a certificate: exact symmetry, a positive
  diagonal, negative stored off-diagonal entries, row sums of at least -64 eps
  times the diagonal, an anchor in every connected component (a row whose
  sum exceeds 1e-8 times its diagonal) and more than 5.5 entries per row on
  average, a 3D stencil. Such a matrix is a nonsingular Stieltjes matrix, by
  Taussky's theorem, and CG raises rather than return an iterate that misses
  its stop.
- BiCGSTAB with the Jacobi preconditioner D (van der Vorst, 1992) takes any
  other matrix with a positive diagonal, an anchor in every component and
  more than 20 entries per row, such as full-tensor MPFA on tetrahedra
  (44-61 per row from 4 to 12 cubes; 2D MPFA has at most 8.9, where LU is
  faster). BiCGSTAB has no convergence proof: a breakdown, 100 steps that
  do not cut its best backward error tenfold, or 500 steps that miss the
  stop hand the same call on to LU.

Both stop once the componentwise backward error
max_i |b - A x|_i / (|A| |x| + |b|)_i is at most 1e-14 (Oettli and Prager,
1964), so x solves exactly a system within 1e-14 of (A, b), entry by entry.

Every other matrix, every solve given a ``factor`` and every condition number
uses a SuperLU factor. A matrix with a connected component whose rows all sum
to round-off (at most 64 eps times their absolute sums) is refused as
singular before factoring. The factor follows one fixed policy: a minimum
degree ordering of A^T + A in symmetric mode, with threshold pivoting that
keeps a diagonal pivot unless it is below 1% of its column (Li, ACM TOMS 31,
2005). A lower-triangular matrix, such as a transport step matrix in flux
order, keeps its natural order instead and is factored with no fill. The
factor of a matrix serves its solves and its condition number, which Lanczos
(ARPACK) takes from the largest eigenvalues of A and of A^-1. A factor whose
pivot ratio is below 1e-14 is refused; the ratio is read from ``lu.U``,
which makes SuperLU keep copies of L and U, except where the condition
number of ``solve_with_condition`` already bounds it."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import SingularMatrixError


def as_csr(matrix) -> sps.csr_matrix:
    """Canonical CSR: sorted column indices, duplicates summed."""
    csr = sps.csr_matrix(matrix)
    csr.sum_duplicates()
    csr.sort_indices()
    return csr


def _abs(csr: sps.csr_matrix) -> sps.csr_matrix:
    """|A| sharing A's index arrays: only its data is new."""
    return sps.csr_matrix((np.abs(csr.data), csr.indices, csr.indptr), shape=csr.shape)


def _is_lower_triangular(csr: sps.csr_matrix) -> bool:
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    return bool(np.all(csr.indices <= rows))


# A component whose every row sums to at most this many eps times the row's
# absolute sum maps the constant on it to round-off: a null vector.
NULL_ROW_SUM_EPS = 64


def factorize(matrix, *, pivot_guard: bool = True) -> spla.SuperLU:
    """LU-factorize a square sparse matrix deterministically.

    A lower-triangular matrix is factored in its natural order, any other by
    minimum degree on A^T + A. ``pivot_guard=False`` leaves the pivot check
    to the caller (see ``solve_with_condition``).

    Raises:
        SingularMatrixError: On a connected component whose rows all sum to
            round-off, such as a pure-Neumann subdomain, or on exactly
            singular pivots; with the guard, on a pivot ratio below 1e-14.
    """
    csr = as_csr(matrix)
    n, m = csr.shape
    if n != m:
        raise SingularMatrixError(f"matrix is not square: {csr.shape}")
    ones = np.ones(n)
    if not _anchored(csr, csr @ ones, NULL_ROW_SUM_EPS * np.finfo(float).eps * (_abs(csr) @ ones)):
        raise SingularMatrixError(
            "matrix is numerically singular: the rows of a connected component sum to "
            "round-off, so the constant on that component is a null vector"
        )
    try:
        lu = spla.splu(
            csr.tocsc(),
            permc_spec="NATURAL" if _is_lower_triangular(csr) else "MMD_AT_PLUS_A",
            diag_pivot_thresh=0.01,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports the failing pivot
        raise SingularMatrixError(f"sparse LU factorization failed: {exc}") from exc
    if pivot_guard:
        _check_pivots(csr, lu)
    return lu


def _check_pivots(csr: sps.csr_matrix, lu: spla.SuperLU) -> None:
    """Refuse a factor whose smallest pivot is below 1e-14 of its largest."""
    # Reading lu.U makes SuperLU keep copies of L and U for the factor's life;
    # a lower-triangular A factored with no row swap has its diagonal as pivots.
    unswapped = _is_lower_triangular(csr) and np.array_equal(lu.perm_r, np.arange(csr.shape[0]))
    pivots = np.abs(csr.diagonal() if unswapped else lu.U.diagonal())
    smallest, largest = pivots.min(), pivots.max()
    if largest == 0.0 or smallest / largest < 1e-14:
        raise SingularMatrixError(
            f"matrix is numerically singular: pivot ratio {smallest:.3e} / {largest:.3e}"
        )


CG_MIN_ROWS = 200  # below this LU is about as fast (README, "Linear solver")
CG_BACKWARD_ERROR = 1e-14
# 2D MPFA matrices hold at most 8.9 entries per row, where BiCGSTAB loses to
# LU; MPFA on tetrahedra holds 44-61.
BICGSTAB_MIN_ROW_NNZ = 20
# Three times the most steps measured on tetrahedral MPFA with anisotropy
# ratios up to 1e3 (165, at 3,072 unknowns).
BICGSTAB_MAX_ITERATIONS = 500
# BiCGSTAB also hands over to LU once this many steps have not cut its best
# backward error tenfold. Over 122 solves of tetrahedral MPFA (4-8 cubes,
# anisotropy ratios 1 to 1e6), none that met the stop within the cap went
# 80 steps without such a cut; 25 of the 29 that missed it stalled early.
BICGSTAB_STALL_STEPS = 100


def _anchored(csr: sps.csr_matrix, sums: np.ndarray, floor) -> bool:
    """Whether every connected component of A's graph holds an anchor: a row
    whose sum ``sums`` exceeds ``floor`` (per row) in magnitude. A component
    without one, such as a pure-Neumann subdomain, may carry a floating null
    space."""
    n_comp, labels = _components(csr)
    return bool(np.bincount(labels[np.abs(sums) > floor], minlength=n_comp).all())


def _components(csr: sps.csr_matrix) -> tuple[int, np.ndarray]:
    """The connected components of A's graph. Where no edge joins two strong
    components, as in a matrix with a symmetric pattern, the strong
    components are the connected ones, found without the transposed copy
    that scipy's undirected search makes."""
    n_comp, labels = connected_components(csr, directed=True, connection="strong")
    rows = np.flatnonzero(np.diff(csr.indptr))
    if rows.size:
        neighbours, starts = labels[csr.indices], csr.indptr[rows]
        own = labels[rows]
        if not (
            np.array_equal(np.minimum.reduceat(neighbours, starts), own)
            and np.array_equal(np.maximum.reduceat(neighbours, starts), own)
        ):
            return connected_components(csr, directed=False)
    return n_comp, labels


def _certified_stieltjes_3d(csr: sps.csr_matrix) -> bool:
    """Whether A is provably a nonsingular Stieltjes matrix (by Taussky's
    theorem on irreducibly diagonally dominant matrices) with a 3D stencil."""
    n = csr.shape[0]
    if n != csr.shape[1] or csr.nnz <= 5.5 * n:
        return False
    diag = csr.diagonal()
    # With a positive diagonal, all stored, the other nnz - n entries are off
    # it. Off-diagonal zeros are refused: stored, they would join components.
    negative = np.count_nonzero(csr.data < 0)
    if not (np.all(diag > 0) and negative == csr.nnz - n) or (csr - csr.T).nnz:
        return False
    sums = csr @ np.ones(n)
    return _anchored(csr, sums, 1e-8 * diag) and bool(
        np.all(sums >= -64 * np.finfo(float).eps * diag)
    )


def _anchored_wide_stencil(csr: sps.csr_matrix) -> bool:
    """Whether A goes to BiCGSTAB: a positive diagonal, an anchor in every
    component and more than ``BICGSTAB_MIN_ROW_NNZ`` entries per row."""
    n = csr.shape[0]
    if n != csr.shape[1] or csr.nnz <= BICGSTAB_MIN_ROW_NNZ * n:
        return False
    diag = csr.diagonal()
    return bool(np.all(diag > 0)) and _anchored(csr, csr @ np.ones(n), 1e-8 * diag)


def _backward_error(csr: sps.csr_matrix, abs_a: sps.csr_matrix, x, b) -> float:
    """max_i |b - A x|_i / (|A| |x| + |b|)_i, where a zero denominator
    implies a zero residual and the row counts as 0."""
    scale = abs_a @ np.abs(x) + np.abs(b)
    return float(np.max(np.abs(b - csr @ x) / np.where(scale > 0, scale, 1.0)))


def _jacobi_cg(csr: sps.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Conjugate gradients on D^-1/2 A D^-1/2 to ``CG_BACKWARD_ERROR``."""
    inv_diag, abs_a = 1.0 / csr.diagonal(), _abs(csr)
    x, r = np.zeros_like(b), b.copy()
    p = z = inv_diag * r
    rz = r @ z
    for iteration in range(csr.shape[0]):
        # The backward error costs two products, so it is taken every 8 steps,
        # and where the residual is exactly zero, since CG cannot go on.
        if iteration % 8 == 0 or rz == 0.0:
            if _backward_error(csr, abs_a, x, b) <= CG_BACKWARD_ERROR:
                return x
            if rz == 0.0:
                break
        q = csr @ p
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        z = inv_diag * r
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    raise SingularMatrixError(
        f"conjugate gradients did not reach backward error {CG_BACKWARD_ERROR:g} "
        f"within {csr.shape[0]} iterations"
    )


def _jacobi_bicgstab(csr: sps.csr_matrix, b: np.ndarray) -> np.ndarray | None:
    """BiCGSTAB preconditioned by D = diag A (van der Vorst, 1992) to
    ``CG_BACKWARD_ERROR``; None after a breakdown, after
    ``BICGSTAB_STALL_STEPS`` steps that do not cut the best backward error
    tenfold, or after ``BICGSTAB_MAX_ITERATIONS`` steps that miss it."""
    inv_diag, abs_a = 1.0 / csr.diagonal(), _abs(csr)
    x, r = np.zeros_like(b), b.copy()
    shadow, p, v = b.copy(), np.zeros_like(b), np.zeros_like(b)
    rho = alpha = omega = 1.0
    best = []  # the best backward error so far, at every 4th step
    stall = BICGSTAB_STALL_STEPS // 4
    # A breakdown leaves rho or omega zero or non-finite, which ends the loop.
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(BICGSTAB_MAX_ITERATIONS + 1):
            rho, rho_old = shadow @ r, rho
            last = step == BICGSTAB_MAX_ITERATIONS or not (np.isfinite(rho) and rho and omega)
            # A step costs two products and so does the backward error, which
            # is therefore taken every 4 steps and before giving up.
            if step % 4 == 0 or last:
                error = _backward_error(csr, abs_a, x, b)
                if error <= CG_BACKWARD_ERROR:
                    return x
                best.append(min(error, best[-1]) if best else error)
                if last or (len(best) > stall and best[-1] > 0.1 * best[-1 - stall]):
                    return None
            p = r + (rho / rho_old) * (alpha / omega) * (p - omega * v)
            p_hat = inv_diag * p
            v = csr @ p_hat
            alpha = rho / (shadow @ v)
            s = r - alpha * v
            s_hat = inv_diag * s
            t = csr @ s_hat
            tt = t @ t
            omega = (t @ s) / tt if tt else 0.0  # t = 0: x + alpha p_hat solves
            x += alpha * p_hat + omega * s_hat
            r = s - omega * t


def direct_solve(matrix, rhs: np.ndarray, factor: spla.SuperLU | None = None) -> np.ndarray:
    """Solve A x = b, by a Krylov method where the module's rules allow and no
    ``factor`` is given, else by sparse LU with a residual check.

    Conjugate gradients take certified 3D Stieltjes matrices; BiCGSTAB takes
    anchored wide stencils and leaves a breakdown or a miss to LU.

    Raises:
        SingularMatrixError: Singular factorization, a non-finite right-hand
            side, conjugate gradients that miss their backward error, or a
            residual indicating numerical breakdown.
    """
    csr = as_csr(matrix)
    b = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(b)):
        raise SingularMatrixError("right-hand side contains non-finite entries")
    if factor is None and b.ndim == 1 and csr.shape[0] >= CG_MIN_ROWS:
        if _certified_stieltjes_3d(csr):
            return _jacobi_cg(csr, b)
        if _anchored_wide_stencil(csr):
            x = _jacobi_bicgstab(csr, b)
            if x is not None:
                return x
    lu = factor if factor is not None else factorize(csr)
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solution contains non-finite entries (singular matrix?)")
    residual = np.linalg.norm(csr @ x - b)
    scale = _abs(csr).sum(axis=1).max() * np.linalg.norm(x) + np.linalg.norm(b)
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


# Where kappa_2(A) is at most this, a factor that passes
# ``_gershgorin_spd_candidate`` has a pivot ratio of at least
# 1 / kappa_2(A): 100 times the guard's 1e-14.
PIVOT_GUARD_CONDITION = 1e12


def _gershgorin_spd_candidate(csr: sps.csr_matrix, lu: spla.SuperLU) -> bool:
    """Whether A is exactly symmetric with a positive diagonal, each row's
    absolute off-diagonal sum at most (1 + 64 eps) times its diagonal entry,
    and factored with its diagonal pivots (``perm_r == perm_c``)."""
    diag = csr.diagonal()
    if not (np.all(diag > 0) and np.array_equal(lu.perm_r, lu.perm_c)):
        return False
    off_diagonal = _abs(csr) @ np.ones(csr.shape[0]) - diag
    tolerance = 1.0 + NULL_ROW_SUM_EPS * np.finfo(float).eps
    return bool(np.all(off_diagonal <= tolerance * diag)) and not (csr - csr.T).nnz


def solve_with_condition(matrix, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solution of A x = b and the 2-norm condition number of A, both from
    one LU factor.

    The factor's pivot ratio is read from ``lu.U``, which keeps a copy of L
    and U, only where the condition number does not bound it: for a matrix
    that passes ``_gershgorin_spd_candidate`` with kappa_2(A) at most
    ``PIVOT_GUARD_CONDITION``, A is positive definite and every pivot lies in
    [lambda_min(A), max a_ii], so the ratio is at least 1 / kappa_2(A).

    Raises:
        SingularMatrixError: As ``factorize`` and ``direct_solve`` do.
    """
    csr = as_csr(matrix)
    lu = factorize(csr, pivot_guard=False)
    bounded = _gershgorin_spd_candidate(csr, lu)
    if not bounded:
        _check_pivots(csr, lu)
    cond = condition_number(csr, factor=lu)
    if bounded and not cond <= PIVOT_GUARD_CONDITION:
        _check_pivots(csr, lu)
    return direct_solve(csr, rhs, factor=lu), cond
