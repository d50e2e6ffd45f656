"""Discrete error norms and grid-to-grid field projection.

The discrete L2 error is volume weighted and relative:
``sqrt(sum V_i (x_i - r_i)^2) / sqrt(sum V_i r_i^2)``. When the reference
norm vanishes the unnormalized error is returned. Coarse-to-fine comparisons
inject coarse cell values as piecewise constants onto the fine cells (nearest
coarse centre, which equals containment on nested Cartesian grids).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

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
    """Index of the nearest coarse centre for every fine centre."""
    tree = cKDTree(np.atleast_2d(coarse_centres))
    _, idx = tree.query(np.atleast_2d(fine_centres))
    return np.asarray(idx, dtype=int)


def least_squares_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Slope of log(y) against log(x) by least squares."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    a = np.vstack([lx, np.ones_like(lx)]).T
    slope, _ = np.linalg.lstsq(a, ly, rcond=None)[0]
    return float(slope)
