"""Removal of intersection-cell unknowns from the global system.

Two reductions are provided. The Schur complement
``A_r = A_kk - A_ke A_ee^{-1} A_ek`` eliminates exactly, preserves the
intersection permeabilities, and supports back-substitution of the removed
pressures. The Star-Delta transformation replaces each eliminated cell (or
connected group of eliminated cells) by direct pairwise transmissibilities
``T_ij = alpha_i alpha_j / sum_k alpha_k`` over the branch half
transmissibilities into it, which amounts to giving the intersection
infinite normal permeability and zero tangential permeability.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
from scipy.sparse.csgraph import connected_components

from .coupling import GlobalSystem
from .errors import EliminationError, UnsupportedSourceError
from .linsolve import as_csr, direct_solve


@dataclass
class ReducedSystem:
    """A reduced linear system over the kept degrees of freedom.

    ``kept`` and ``eliminated`` partition the original dofs; ``matrix`` and
    ``rhs`` act on kept unknowns in the order of ``kept``. Schur-type
    reductions retain per-block factors of the eliminated diagonal for
    back-substitution; Star-Delta reductions do not.
    """

    kept: np.ndarray
    eliminated: np.ndarray
    matrix: sps.csr_matrix
    rhs: np.ndarray
    rhs_kept_raw: np.ndarray
    tag: str
    blocks: list | None = None  # [(elim-local idx, LU factors, dense A_ek block)]
    a_ek: sps.csr_matrix | None = None
    b_e: np.ndarray | None = None
    system: GlobalSystem | None = None
    symmetric: bool = False

    @property
    def n_kept(self) -> int:
        return self.kept.size


def _mirror_upper(matrix: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy: the upper triangle mirrored onto the lower."""
    upper = np.triu(matrix)
    return upper + np.triu(matrix, 1).T


def schur_reduce_matrix(
    matrix, rhs: np.ndarray, eliminated: np.ndarray, system: GlobalSystem | None = None
) -> ReducedSystem:
    """Schur-complement reduction of an arbitrary square sparse system.

    The eliminated diagonal block is factorized per connected component, so
    fill-in stays confined to cells adjacent to the same eliminated group
    and a symmetric input yields an exactly symmetric reduced matrix.

    Raises:
        EliminationError: Singular eliminated block (names the offending
            rows).
    """
    a = as_csr(matrix)
    n = a.shape[0]
    eliminated = np.unique(np.asarray(eliminated, dtype=int))
    if eliminated.size and (eliminated.min() < 0 or eliminated.max() >= n):
        raise EliminationError("eliminated indices out of range")
    keep_mask = np.ones(n, dtype=bool)
    keep_mask[eliminated] = False
    kept = np.flatnonzero(keep_mask)

    a_kk = a[kept][:, kept].tocsr()
    a_ke = a[kept][:, eliminated].tocsc()
    a_ek = a[eliminated][:, kept].tocsr()
    a_ee = a[eliminated][:, eliminated].tocsr()
    b = np.asarray(rhs, dtype=float)
    b_k, b_e = b[kept], b[eliminated]

    symmetric = (a - a.T).nnz == 0

    n_e = eliminated.size
    fill = sps.csr_matrix((kept.size, kept.size))
    b_fill = np.zeros(kept.size)
    blocks = []
    if n_e:
        n_comp, labels = connected_components(
            (abs(a_ee) + abs(a_ee.T)).tocsr(), directed=False
        )
        rows_f, cols_f, vals_f = [], [], []
        for comp in range(n_comp):
            loc = np.flatnonzero(labels == comp)
            dense = a_ee[loc][:, loc].toarray()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", sla.LinAlgWarning)
                    lu, piv = sla.lu_factor(dense)
            except sla.LinAlgError as exc:
                raise EliminationError(
                    f"singular eliminated block for rows {eliminated[loc].tolist()}"
                ) from exc
            if np.abs(np.diag(lu)).min() == 0.0:
                raise EliminationError(
                    f"singular eliminated block for rows {eliminated[loc].tolist()}"
                )
            ek_block = a_ek[loc].toarray()
            ke_block = a_ke[:, loc].toarray()
            j_cols = np.flatnonzero(np.any(ek_block != 0.0, axis=0))
            j_rows = np.flatnonzero(np.any(ke_block != 0.0, axis=1))
            blocks.append((loc, (lu, piv), ek_block))
            if j_cols.size and j_rows.size:
                x = sla.lu_solve((lu, piv), ek_block[:, j_cols])
                m = ke_block[j_rows] @ x
                if symmetric and j_rows.size == j_cols.size and np.array_equal(j_rows, j_cols):
                    m = _mirror_upper(m)
                rr, cc = np.meshgrid(j_rows, j_cols, indexing="ij")
                rows_f.append(rr.ravel())
                cols_f.append(cc.ravel())
                vals_f.append(m.ravel())
            y = sla.lu_solve((lu, piv), b_e[loc])
            b_fill += ke_block @ y
        if rows_f:
            fill = sps.csr_matrix(
                (np.concatenate(vals_f), (np.concatenate(rows_f), np.concatenate(cols_f))),
                shape=(kept.size, kept.size),
            )

    reduced_matrix = as_csr(a_kk - fill)
    return ReducedSystem(
        kept=kept,
        eliminated=eliminated,
        matrix=reduced_matrix,
        rhs=b_k - b_fill,
        rhs_kept_raw=b_k.copy(),
        tag="schur",
        blocks=blocks,
        a_ek=a_ek,
        b_e=b_e,
        system=system,
        symmetric=symmetric,
    )


def _eliminated_dofs(mesh, eliminated: np.ndarray | None) -> np.ndarray:
    """All intersection cells (subdomains of dimension at most N-2) when
    ``eliminated`` is None, else ``eliminated`` checked to lie among them."""
    allowed = mesh.intersection_dofs()
    if eliminated is None:
        return allowed
    eliminated = np.asarray(eliminated, dtype=int)
    outside = eliminated[~np.isin(eliminated, allowed)]
    if outside.size:
        raise EliminationError(f"dofs {outside.tolist()} are not intersection cells")
    return eliminated


def schur_reduce(system: GlobalSystem, eliminated: np.ndarray | None = None) -> ReducedSystem:
    """Schur reduction of a mixed-dimensional system.

    ``eliminated`` defaults to all intersection cells (subdomains of
    dimension at most N-2) and must stay within that set.
    """
    eliminated = _eliminated_dofs(system.mesh, eliminated)
    return schur_reduce_matrix(system.matrix, system.rhs, eliminated, system=system)


def back_substitute(reduced: ReducedSystem, p_kept: np.ndarray) -> np.ndarray:
    """Recover the full pressure field from kept pressures.

    Only available for Schur-type reductions.
    """
    if reduced.tag != "schur" or reduced.blocks is None:
        raise EliminationError(f"back-substitution is not defined for tag {reduced.tag!r}")
    n = reduced.kept.size + reduced.eliminated.size
    full = np.empty(n)
    full[reduced.kept] = p_kept
    rhs_e = reduced.b_e - reduced.a_ek @ p_kept
    for loc, lu_piv, _ in reduced.blocks:
        full[reduced.eliminated[loc]] = sla.lu_solve(lu_piv, rhs_e[loc])
    return full


def star_transmissibilities(alphas: np.ndarray) -> np.ndarray:
    """Pairwise direct transmissibilities of one star of branch conductances.

    Entry (i, j) holds ``alpha_i alpha_j / sum_k alpha_k`` for i != j; the
    diagonal is zero. An n-branch star yields n(n-1)/2 distinct connections.
    """
    alphas = np.asarray(alphas, dtype=float)
    total = alphas.sum()
    if total == 0.0:
        raise EliminationError("star with zero total conductance")
    t = np.outer(alphas, alphas) / total
    np.fill_diagonal(t, 0.0)
    return t


def star_delta_reduce(system: GlobalSystem, eliminated: np.ndarray | None = None) -> ReducedSystem:
    """Star-Delta elimination of intersection cells.

    Each connected group of eliminated cells (connected through coupling
    pairs among themselves) becomes one star whose branches are the coupling
    half transmissibilities from the kept side. Tangential connections inside
    eliminated subdomains are dropped, matching the interpretation of the
    eliminated cells as infinitely permeable normal to the branches and
    impermeable along themselves.

    Raises:
        UnsupportedSourceError: A source or boundary contribution sits in an
            eliminated cell; there is no cell left to carry it.
    """
    eliminated = np.unique(_eliminated_dofs(system.mesh, eliminated))
    n = system.matrix.shape[0]
    elim_mask = np.zeros(n, dtype=bool)
    elim_mask[eliminated] = True
    if np.any(system.rhs[eliminated] != 0.0):
        bad = eliminated[system.rhs[eliminated] != 0.0]
        raise UnsupportedSourceError(
            f"eliminated cells {bad.tolist()} carry sources or boundary data; "
            "the Star-Delta reduction has no cell to attach them to"
        )

    kept = np.flatnonzero(~elim_mask)
    kept_local = -np.ones(n, dtype=int)
    kept_local[kept] = np.arange(kept.size)
    elim_local = -np.ones(n, dtype=int)
    elim_local[eliminated] = np.arange(eliminated.size)

    # Branches are coupling pairs from a kept cell into an eliminated one;
    # bonds among eliminated cells merge their stars.
    def stacked(attr, dtype):
        arrays = [np.asarray(getattr(c, attr), dtype=dtype) for c in system.couplings]
        return np.concatenate(arrays + [np.empty(0, dtype)])

    higher, lower = stacked("higher_dofs", int), stacked("lower_dofs", int)
    h_el, l_el = elim_mask[higher], elim_mask[lower]
    if np.any(h_el & ~l_el):
        raise EliminationError(
            "coupling from an eliminated cell into a kept lower-dimensional cell"
        )
    bond = h_el & l_el
    bonds = sps.csr_matrix(
        (np.ones(np.count_nonzero(bond)), (elim_local[higher[bond]], elim_local[lower[bond]])),
        shape=(eliminated.size, eliminated.size),
    )
    n_comp, labels = connected_components(bonds, directed=False)

    # Branches grouped by star, in coupling order within each star.
    branch = l_el & ~h_el
    star = labels[elim_local[lower[branch]]]
    order = np.argsort(star, kind="stable")
    star = star[order]
    loc = kept_local[higher[branch]][order]
    alpha = stacked("alpha_higher", float)[branch][order]
    t = stacked("transmissibility", float)[branch][order]

    size = np.bincount(star, minlength=n_comp)
    if np.any(size == 0):
        members = eliminated[labels == np.argmax(size == 0)]
        raise EliminationError(f"eliminated cells {members.tolist()} have no branch connections")
    total = np.bincount(star, weights=alpha, minlength=n_comp)
    if np.any(total == 0.0):
        raise EliminationError("star with zero total branch conductance")

    # Branch i meets every other branch j of its star: j runs over the star's
    # slice of the grouped branches.
    width = size[star]
    first = np.cumsum(size) - size
    i = np.repeat(np.arange(star.size), width)
    j = first[star[i]] + np.arange(i.size) - np.repeat(np.cumsum(width) - width, width)
    i, j = i[i != j], j[i != j]

    # The two-point couplings t_i into the star are removed; the star adds
    # alpha_i - alpha_i^2 / sum alpha to each branch cell's diagonal and
    # couples each pair directly by alpha_i alpha_j / sum alpha. Removing
    # first and adding second rounds each entry as (a - t) + d, as an
    # entry-by-entry update does.
    shape = (kept.size, kept.size)
    removed = sps.csr_matrix((t, (loc, loc)), shape=shape)
    diagonal = alpha - alpha * alpha / total[star]
    pairs = -(alpha[i] * alpha[j] / total[star[i]])
    rows, cols = np.concatenate([loc, loc[i]]), np.concatenate([loc, loc[j]])
    correction = sps.csr_matrix(
        (np.concatenate([diagonal, pairs]), (rows, cols)), shape=shape
    )
    a = as_csr(system.matrix)
    a_kk = a[kept][:, kept] - removed + correction

    return ReducedSystem(
        kept=kept,
        eliminated=eliminated,
        matrix=as_csr(a_kk),
        rhs=system.rhs[kept].copy(),
        rhs_kept_raw=system.rhs[kept].copy(),
        tag="star_delta",
        system=system,
        symmetric=(a - a.T).nnz == 0,
    )


def reduced_fluxes(reduced: ReducedSystem, p_kept: np.ndarray):
    """Direct fluxes between kept cells from the reduced connection stencil.

    Returns (i, j, flux) arrays over the strict upper-triangle connections of
    the reduced matrix, in kept-local indices; flux is positive from i to j.
    Requires a symmetric (two-point style) reduced matrix.
    """
    m = reduced.matrix
    asym = abs(m - m.T)
    scale = np.abs(m.data).max() if m.nnz else 0.0
    if asym.nnz and asym.data.max() > 1e-12 * max(scale, 1e-300):
        raise EliminationError("reduced fluxes require a symmetric reduced system")
    upper = sps.triu(m, k=1).tocoo()
    # t = -A[i, j]; flux(i->j) = t * (p_i - p_j)
    flux = -upper.data * (p_kept[upper.row] - p_kept[upper.col])
    return upper.row.copy(), upper.col.copy(), flux


def inherited_source_rates(reduced: ReducedSystem) -> np.ndarray:
    """Per-kept-cell source rates redistributed from eliminated cells.

    For a Schur reduction this is the difference between the reduced
    right-hand side and the raw kept one; Star-Delta reductions redistribute
    nothing.
    """
    return reduced.rhs - reduced.rhs_kept_raw


def limit_equivalence_check(
    problem,
    eliminated: np.ndarray | None,
    k_boost_values,
    solve=None,
) -> dict:
    """Compare Schur reductions at boosted intersection permeability with Star-Delta.

    Rebuilds the problem with every intersection subdomain's tensor replaced
    by ``k_boost * I``, Schur-reduces, and reports the maximum entrywise
    deviation of the reduced matrix from the Star-Delta one, plus the
    relative difference of the kept pressures. Deviations shrink as the boost
    grows, reflecting that Star-Delta is the infinite-permeability limit.
    """
    solve = solve or direct_solve
    mesh = problem.mesh
    base = problem.assemble()
    if eliminated is None:
        eliminated = mesh.intersection_dofs()
    star = star_delta_reduce(base, eliminated)
    p_star = solve(star.matrix, star.rhs)
    scale = np.abs(star.matrix.data).max()
    intersection_sds = [
        i for i, g in enumerate(mesh.subdomains) if g.dim <= mesh.ambient_dim - 2
    ]

    entries = []
    for k_boost in np.atleast_1d(k_boost_values):
        boosted = problem.with_subdomain_permeability(intersection_sds, float(k_boost))
        sys_b = boosted.assemble()
        schur = schur_reduce(sys_b, eliminated)
        dev = abs(schur.matrix - star.matrix)
        max_dev = dev.data.max() if dev.nnz else 0.0
        p_schur = solve(schur.matrix, schur.rhs)
        p_scale = np.linalg.norm(p_star)
        entries.append(
            {
                "k_boost": float(k_boost),
                "max_matrix_deviation": float(max_dev),
                "relative_matrix_deviation": float(max_dev / max(scale, 1e-300)),
                "relative_pressure_difference": float(
                    np.linalg.norm(p_schur - p_star) / max(p_scale, 1e-300)
                ),
            }
        )
    return {"matrix_scale": float(scale), "sweep": entries}
