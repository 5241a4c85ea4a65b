"""Analysis-only halfspace geometry: convex-hull membership, convexified depth
over explicit candidate sets, and the cdepth subsampling check.

The predictor never runs this code.  It checks the two geometric facts the
adaptive-halfspace bound rests on: depth transfers to convexified depth
(acceptance gate 05) and cdepth fractions survive subsampling (gate 06).
Hull membership is decided by non-negative least squares, with an exact
rational Phase-I LP as the certifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import nnls

from privpredict.core import (
    CapabilityError,
    ConfigurationError,
    NoiseSource,
    Point,
    UsageError,
)
from privpredict.geometry import (
    DEPTH_TOL,
    DepthProfile,
    FeasibleSubspace,
    arrangement_candidates,
    subsample_size_bound,
)

# An NNLS residual (an L2 norm, never more than the distance from z to the hull)
# at or below this certifies membership without the exact solve.  It must sit
# well under the distances the exact band settles: at 1e-9, points ~1e-10
# outside the hull pass as members.
FEAS_TOL = 1e-12
INDETERMINATE_TOL = 1e-6   # residuals in (FEAS_TOL, this) trigger the exact re-solve


def to_constraint(x: Point, lab: int) -> np.ndarray:
    """Homogeneous constraint normal lab * (x_1..x_d, -1) for a labeled point."""
    return float(lab) * np.asarray(tuple(x) + (-1.0,), dtype=float)


def depth(profile: DepthProfile, z) -> int:
    """The number of the profile's constraints that z satisfies."""
    if len(profile) == 0:
        return 0
    z = np.asarray(z, dtype=float)
    return int(np.count_nonzero(profile.normals @ z >= -DEPTH_TOL))


# ---------------------------------------------------------------------------
# Hull membership (non-negative least squares, exact rational certifier)
# ---------------------------------------------------------------------------


def _phase_one_exact(a_rows, b_vec, max_iter: int):
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    rows = []
    rhs = []
    for i in range(m):
        sign = -1 if b_vec[i] < 0 else 1
        rows.append([Fraction(v) * sign for v in a_rows[i]])
        rhs.append(Fraction(b_vec[i]) * sign)
    width = n + m + 1
    tableau = []
    for i in range(m):
        line = rows[i] + [Fraction(0)] * m + [rhs[i]]
        line[n + i] = Fraction(1)
        tableau.append(line)
    obj = [Fraction(0)] * width
    for i in range(m):
        for j in range(width):
            obj[j] -= tableau[i][j]
    for i in range(m):
        obj[n + i] = Fraction(0)
    basis = list(range(n, n + m))
    for _ in range(max_iter):
        entering = -1
        for j in range(n + m):
            if obj[j] < 0:
                entering = j
                break
        if entering < 0:
            return -obj[-1]
        leaving = -1
        best = None
        for i in range(m):
            if tableau[i][entering] > 0:
                ratio = tableau[i][-1] / tableau[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return None
        pivot = tableau[leaving][entering]
        tableau[leaving] = [v / pivot for v in tableau[leaving]]
        for i in range(m):
            if i != leaving and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [v - factor * w for v, w in zip(tableau[i], tableau[leaving])]
        factor = obj[entering]
        if factor != 0:
            obj = [v - factor * w for v, w in zip(obj, tableau[leaving])]
        basis[leaving] = entering
    return None


def hull_membership(points, z) -> bool:
    """Whether z is a convex combination of the points.

    Decided by the residual of the non-negative least-squares fit
    min ||[P^T; 1^T] lam - [z; 1]|| over lam >= 0 (Lawson-Hanson, scipy's
    ``nnls``), which is zero exactly when z lies in the hull.  A residual at
    most FEAS_TOL is a member, one at least INDETERMINATE_TOL a non-member.
    In between, or when ``nnls`` stops at its iteration limit, the Phase-I LP
    in exact rational arithmetic decides; if that hits its pivot cap, the
    call raises CapabilityError.
    """
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
    try:
        residual = nnls(a_mat, b_vec)[1]
    except RuntimeError:  # iteration limit; NaN fails both tests below
        residual = math.nan
    if residual <= FEAS_TOL:
        return True
    if residual >= INDETERMINATE_TOL:
        return False
    cap = 200 * (n_pts + dim + 2)
    value = _phase_one_exact(a_mat.tolist(), b_vec.tolist(), cap)
    if value is None:
        raise CapabilityError(f"exact hull membership hit its pivot cap of {cap}")
    return value == 0


# ---------------------------------------------------------------------------
# cdepth against explicit candidate witness sets
# ---------------------------------------------------------------------------


def cdepth(profile: DepthProfile, z, candidates) -> int:
    """Largest y such that z lies in the hull of candidates with depth >= y.

    z itself is always an admissible witness, so the result is at least
    depth(z).  Over candidate witnesses this is a lower bound on the true
    convexified depth, exact when the candidates cover the arrangement.
    """
    cand = np.atleast_2d(np.asarray(candidates, dtype=float))
    if cand.size == 0:
        raise ConfigurationError("cdepth needs a nonempty candidate witness set")
    z = np.asarray(z, dtype=float)
    cand_depths = profile.depths(cand)
    base = depth(profile, z)
    levels = sorted({int(v) for v in cand_depths if v > base})
    lo, hi = 0, len(levels) - 1
    best = base
    # binary search over achieved depth values; feasibility is monotone in y
    while lo <= hi:
        mid = (lo + hi) // 2
        y = levels[mid]
        witnesses = cand[cand_depths >= y]
        if len(witnesses) > 0 and hull_membership(witnesses, z):
            best = y
            lo = mid + 1
        else:
            hi = mid - 1
    return int(best)


# ---------------------------------------------------------------------------
# Subsample approximation check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsampleReport:
    trials: int
    probe_count: int
    trial_violation_fraction: float
    probe_violation_fraction: float
    tolerance: float
    threshold: float
    passed: bool


def default_probes(profile: DepthProfile, subspace: FeasibleSubspace, sphere_samples: int = 24,
                   boundary_constraints: int = 8) -> np.ndarray:
    """Fixed probe set: sphere samples plus boundary candidates of a leading subset."""
    head = DepthProfile(profile.normals[: min(boundary_constraints, len(profile))])
    return arrangement_candidates(head, subspace, sphere_samples=sphere_samples)


def cdepth_subsample_check(
    normals,
    d: int,
    m: int,
    trials: int,
    alpha: float,
    beta: float,
    noise: NoiseSource,
    probes=None,
    slack: float = 0.04,
) -> SubsampleReport:
    """Empirical check that random m-subsets preserve cdepth fractions to alpha.

    Violations are counted at trial level (any probe off by more than alpha);
    the check passes when that fraction is at most beta + slack.
    """
    profile = DepthProfile(normals)
    n = len(profile)
    bound = subsample_size_bound(d, alpha, beta)
    if m < bound:
        raise ConfigurationError(f"subset size {m} is below the required bound {bound}")
    if m > n:
        raise ConfigurationError("subset size cannot exceed the constraint count")
    space = FeasibleSubspace.full(profile.dim)
    if probes is None:
        probes = default_probes(profile, space)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    full_fracs = np.array([cdepth(profile, p, probes) / n for p in probes])
    trial_bad = 0
    probe_bad = 0
    for t in range(trials):
        idx = noise.child(t).rng.choice(n, size=m, replace=False)
        sub = DepthProfile(profile.normals[idx])
        sub_fracs = np.array([cdepth(sub, p, probes) / m for p in probes])
        bad = np.abs(full_fracs - sub_fracs) > alpha + 1e-12
        probe_bad += int(bad.sum())
        trial_bad += int(bad.any())
    trial_frac = trial_bad / trials
    probe_frac = probe_bad / (trials * len(probes))
    threshold = beta + slack
    return SubsampleReport(
        trials=trials,
        probe_count=len(probes),
        trial_violation_fraction=trial_frac,
        probe_violation_fraction=probe_frac,
        tolerance=alpha,
        threshold=threshold,
        passed=trial_frac <= threshold,
    )
