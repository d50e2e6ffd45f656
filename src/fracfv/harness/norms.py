"""Discrete error norms and grid-to-grid field projection.

The discrete L2 error is volume weighted and relative:
``sqrt(sum V_i (x_i - r_i)^2) / sqrt(sum V_i r_i^2)``. When the reference
norm vanishes the unnormalized error is returned. Coarse-to-fine comparisons
inject coarse cell values as piecewise constants onto the fine cells (nearest
coarse centre, which equals containment on nested Cartesian grids).

The nearest centre is found exactly by a row sweep in array code: the coarse
centres are sorted lexicographically, a row is a run of centres whose
coordinates after the first are equal, and in each row the two centres on
either side of a fine point's first coordinate are the only candidates. The
cost is O(N R) array work for N fine points and R rows; a Cartesian 2D grid
of n x n centres has n rows. No spatial index is built: importing
``scipy.spatial`` for one would cost every fracfv process its load time and
memory, including runs that never project a field.
"""

from __future__ import annotations

import numpy as np

NORM_VERSION = "l2-rel-volume-weighted-v1"


def l2_error(values, reference, volumes, subset=None) -> float:
    """Volume-weighted relative discrete L2 error (absolute if ref is zero)."""
    x = np.asarray(values, dtype=float)
    r = np.asarray(reference, dtype=float)
    v = np.asarray(volumes, dtype=float)
    if subset is not None:
        x, r, v = x[subset], r[subset], v[subset]
    if x.shape != r.shape or x.shape != v.shape:
        raise ValueError("values, reference and volumes must agree in shape")
    num = float(np.sqrt(v @ (x - r) ** 2))
    den = float(np.sqrt(v @ r**2))
    return num if den == 0.0 else num / den


def nearest_cell_map(fine_centres: np.ndarray, coarse_centres: np.ndarray) -> np.ndarray:
    """Index of the nearest coarse centre for every fine centre.

    The squared distance is summed axis by axis, ``dx0**2 + dx1**2 + ...``.
    In a row of the lexicographically sorted coarse centres (equal
    coordinates after the first) that sum grows with ``dx0**2`` in floating
    point too, so the row's centres just below and at-or-above the fine
    point's first coordinate (``searchsorted``) hold the row's minimum. A
    running minimum over all rows, updated on strictly smaller distances, is
    then the exact minimum over all centres, however the centres fall into
    rows: with one centre per row the sweep is a brute-force search. Ties go
    to the candidate met first: rows in ``np.lexsort`` order (last
    coordinate first), and in a row the centre below before the one at or
    above. The cost is O(N R) array work for N fine points and R rows; a row
    with the same first coordinates as the row before it reuses that row's
    candidates, so a lattice pays for one binary search per fine point.

    No fine points give an empty map; fine points without coarse centres
    raise ``ValueError``.
    """
    fine = np.atleast_2d(np.asarray(fine_centres, dtype=float))
    coarse = np.atleast_2d(np.asarray(coarse_centres, dtype=float))
    if fine.shape[1] != coarse.shape[1]:
        raise ValueError(
            f"fine centres have {fine.shape[1]} coordinates, coarse centres {coarse.shape[1]}"
        )
    if len(fine) == 0:
        return np.zeros(0, dtype=int)
    if len(coarse) == 0:
        raise ValueError("no coarse centres to map fine centres onto")
    order = np.lexsort(coarse.T)
    ordered = coarse[order]
    new_row = np.any(ordered[1:, 1:] != ordered[:-1, 1:], axis=1)
    bounds = np.concatenate([[0], np.flatnonzero(new_row) + 1, [len(ordered)]])
    first, *rest = (np.ascontiguousarray(column) for column in fine.T)
    best = np.full(len(fine), np.inf)
    nearest = np.zeros(len(fine), dtype=int)  # a position in ``ordered``
    row_firsts = None
    for start, stop in zip(bounds[:-1], bounds[1:]):
        row = ordered[start:stop]
        # Rows of a lattice share their first coordinates, and with them the
        # candidates and their first squared differences.
        if row_firsts is None or not np.array_equal(row[:, 0], row_firsts):
            row_firsts = row[:, 0]
            above = np.searchsorted(row_firsts, first)
            candidates = [
                (i, (first - row_firsts[i]) ** 2)
                for i in (np.maximum(above - 1, 0), np.minimum(above, len(row) - 1))
            ]
        others = [(column - value) ** 2 for column, value in zip(rest, row[0, 1:])]
        for i, d2 in candidates:
            for term in others:
                d2 = d2 + term
            closer = d2 < best
            np.copyto(best, d2, where=closer)
            np.copyto(nearest, start + i, where=closer)
    return order[nearest]


def least_squares_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Slope of log(y) against log(x) by least squares."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    a = np.vstack([lx, np.ones_like(lx)]).T
    slope, _ = np.linalg.lstsq(a, ly, rcond=None)[0]
    return float(slope)
