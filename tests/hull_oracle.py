"""Float reference for convex-hull membership.

This is the dense Phase-I simplex (Bland's rule) that
``depth_analysis.hull_membership`` ran before it moved to non-negative least
squares, kept verbatim with the decision it made by default: members at a
Phase-I objective of at most 1e-9, non-members from 1e-6, and the exact
rational solve in between.  A capped exact solve counted as a non-member here;
``hull_membership`` now raises instead.
"""

from __future__ import annotations

import numpy as np

from depth_analysis import _phase_one_exact
from privpredict.core import CapabilityError, UsageError

FEAS_TOL = 1e-9
INDETERMINATE_TOL = 1e-6


def _phase_one_float(a_mat: np.ndarray, b_vec: np.ndarray, max_iter: int):
    m, n = a_mat.shape
    a_mat = a_mat.copy()
    b_vec = b_vec.copy()
    flip = b_vec < 0
    a_mat[flip] *= -1.0
    b_vec[flip] *= -1.0
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a_mat
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b_vec
    tableau[m, :] = -tableau[:m, :].sum(axis=0)
    tableau[m, n : n + m] = 0.0
    basis = list(range(n, n + m))
    for _ in range(max_iter):
        negative = tableau[m, : n + m] < -FEAS_TOL
        if not negative.any():
            return -float(tableau[m, -1])
        entering = int(np.argmax(negative))  # first negative reduced cost (Bland)
        col = tableau[:m, entering]
        ok = col > FEAS_TOL
        if not np.any(ok):
            return None
        ratios = np.full(m, np.inf)
        ratios[ok] = tableau[:m, -1][ok] / col[ok]
        best = float(np.min(ratios))
        ties = [i for i in range(m) if ratios[i] <= best + 1e-12]
        leaving = min(ties, key=lambda i: basis[i])
        pivot_row = tableau[leaving, :] / tableau[leaving, entering]
        factors = tableau[:, entering].copy()
        factors[leaving] = 0.0
        tableau -= np.outer(factors, pivot_row)
        tableau[leaving, :] = pivot_row
        basis[leaving] = entering
    return None


def hull_membership(points, z) -> bool:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    z = np.asarray(z, dtype=float)
    n_pts, dim = pts.shape
    if n_pts == 0:
        return False
    if n_pts > 1000 or dim > 4:
        raise CapabilityError("hull membership supports <= 10^3 points in dimension <= 4")
    if z.shape != (dim,):
        raise UsageError("query point dimension does not match the hull points")
    if np.min(np.linalg.norm(pts - z[None, :], axis=1)) <= 1e-12:
        return True
    a_mat = np.vstack([pts.T, np.ones((1, n_pts))])
    b_vec = np.concatenate([z, [1.0]])
    max_iter = 50 * (n_pts + dim + 2)
    value = _phase_one_float(a_mat, b_vec, max_iter)
    if value is not None:
        if value <= FEAS_TOL:
            return True
        if value >= INDETERMINATE_TOL:
            return False
    value = _phase_one_exact(a_mat.tolist(), b_vec.tolist(), 4 * max_iter)
    if value is None:
        return False
    return value == 0
