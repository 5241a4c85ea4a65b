"""Linear-feasibility geometry for halfspace prediction: homogeneous constraints,
depth and convexified depth over explicit candidate sets, hyperplane-intersection
subspaces, and a small dense Phase-I feasibility solver.

Everything is homogeneous: a labeled point (x, y) becomes the through-origin
constraint <y*(x_1..x_d, -1), z> >= 0 on the parameter vector z, so feasible
regions of hard-query intersections are linear subspaces and intersecting with
a hyperplane is a rank-one basis update.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .core import (
    CapabilityError,
    ConfigurationError,
    NoiseSource,
    Point,
    UsageError,
)

log = logging.getLogger(__name__)

DEPTH_TOL = 1e-12      # inner products down to -DEPTH_TOL still count as satisfied
FEAS_TOL = 1e-9        # Phase-I objective below this certifies feasibility
INDETERMINATE_TOL = 1e-6   # objectives in (FEAS_TOL, this) trigger the exact re-solve
REDUNDANCY_TOL = 1e-9  # projections below this leave a subspace unchanged
DEDUP_DECIMALS = 8

_SPHERE_SEED = 0x5EED  # candidate sphere samples are fixed across runs by design


def to_constraint(x: Point, lab: int) -> np.ndarray:
    """Homogeneous constraint normal lab * (x_1..x_d, -1) for a labeled point."""
    return float(lab) * np.asarray(tuple(x) + (-1.0,), dtype=float)


class DepthProfile:
    """A multiset of homogeneous constraints with vectorized depth evaluation."""

    def __init__(self, normals):
        self.normals = np.atleast_2d(np.asarray(normals, dtype=float))
        if self.normals.size == 0:
            self.normals = self.normals.reshape(0, 0)
        if not np.all(np.isfinite(self.normals)):
            raise ConfigurationError("constraint normals must be finite")

    def __len__(self) -> int:
        return self.normals.shape[0]

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def depth(self, z) -> int:
        if len(self) == 0:
            return 0
        z = np.asarray(z, dtype=float)
        return int(np.count_nonzero(self.normals @ z >= -DEPTH_TOL))

    def depths(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if len(self) == 0:
            return np.zeros(len(pts), dtype=int)
        return (self.normals @ pts.T >= -DEPTH_TOL).sum(axis=0).astype(int)


class FeasibleSubspace:
    """Linear subspace of the parameter space, stored as an orthonormal basis."""

    def __init__(self, basis: np.ndarray):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2:
            raise ConfigurationError("basis must be a (ambient_dim x r) matrix")
        if basis.shape[1] > 0:
            gram = basis.T @ basis
            if not np.allclose(gram, np.eye(basis.shape[1]), atol=1e-9):
                raise ConfigurationError("basis columns must be orthonormal to 1e-9")
        self.basis = basis

    @classmethod
    def full(cls, ambient_dim: int) -> "FeasibleSubspace":
        return cls(np.eye(ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    def project(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.dimension == 0:
            return np.zeros_like(z)
        return self.basis @ (self.basis.T @ z)

    def contains(self, z, tol: float = 1e-8) -> bool:
        z = np.asarray(z, dtype=float)
        return bool(np.linalg.norm(z - self.project(z)) <= tol)

    def intersect(self, normal) -> tuple["FeasibleSubspace", bool]:
        """Intersect with the hyperplane {z : <normal, z> = 0}.

        Returns (subspace, redundant).  A normal whose projection onto the
        subspace is below REDUNDANCY_TOL changes nothing and is flagged
        redundant; otherwise the dimension drops by exactly one.
        """
        a = np.asarray(normal, dtype=float)
        if a.shape != (self.ambient_dim,) or not np.all(np.isfinite(a)):
            raise UsageError("normal must be a finite vector of the ambient dimension")
        norm = float(np.linalg.norm(a))
        if norm == 0.0:
            raise UsageError("cannot intersect with a zero normal")
        if self.dimension == 0:
            return self, True
        p = self.basis.T @ (a / norm)
        if float(np.linalg.norm(p)) <= REDUNDANCY_TOL:
            return self, True
        p_hat = p / np.linalg.norm(p)
        r = self.dimension
        e1 = np.zeros(r)
        e1[0] = 1.0
        u = p_hat - e1
        if float(np.linalg.norm(u)) <= 1e-12:
            reflector = np.eye(r)
        else:
            reflector = np.eye(r) - 2.0 * np.outer(u, u) / float(u @ u)
        # reflector maps e1 to p_hat; its remaining columns span the complement of p_hat
        new_basis = self.basis @ reflector[:, 1:]
        return FeasibleSubspace(new_basis), False


# ---------------------------------------------------------------------------
# Phase-I feasibility (dense, Bland's rule, exact rational fallback)
# ---------------------------------------------------------------------------


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


def hull_membership(points, z, exact: bool | None = None) -> bool:
    """Whether z is a convex combination of the points.

    Decided by Phase-I feasibility of {lam >= 0, sum lam = 1, sum lam_i p_i = z}
    with Bland's rule.  Objectives inside the indeterminate band are re-solved
    in exact rational arithmetic; a capped exact solve is logged and treated as
    non-membership.
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
    max_iter = 50 * (n_pts + dim + 2)
    if exact is not True:
        value = _phase_one_float(a_mat, b_vec, max_iter)
        if value is not None:
            if value <= FEAS_TOL:
                return True
            if value >= INDETERMINATE_TOL:
                return False
        if exact is False:
            log.warning("hull membership indeterminate at float precision; treating as non-member")
            return False
    value = _phase_one_exact(a_mat.tolist(), b_vec.tolist(), 4 * max_iter)
    if value is None:
        log.warning("exact hull membership hit the iteration cap; treating as non-member")
        return False
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
    base = profile.depth(z)
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


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit-identical to ``np.linalg.norm(row)``.

    A stacked (1 x n) @ (n x 1) matmul runs the same dot kernel per row as
    ``norm`` does for one vector; ``np.linalg.norm(axis=1)`` sums differently
    and disagrees in the last bit.
    """
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def arrangement_candidates(
    profile: DepthProfile,
    subspace: FeasibleSubspace,
    sphere_samples: int = 64,
    cap: int = 20000,
) -> np.ndarray:
    """Candidate maximizer set on the subspace's unit sphere.

    Contains every normalized intersection of r-1 constraint boundaries with
    the subspace (r its dimension) plus a deterministic quasi-uniform sphere
    sample, deduplicated to 1e-8.

    Computed in one batch: a stacked SVD over all (r-1)-subsets of the
    projected normals gives each boundary direction as the pair +dir, -dir in
    subset order (rank-deficient subsets are skipped), then the sphere draws
    follow.  Rows come back in that order, and of points equal after rounding
    to DEDUP_DECIMALS the first one is kept.  The lift into the ambient space
    and the norms are stacked matrix-vector and vector-vector products, which
    run the same kernels as ``basis @ c`` and ``np.linalg.norm`` on one
    candidate, so the result is bit-identical to a per-candidate loop (a
    single ``coeffs @ basis.T`` is not).  No candidates give shape (0,).
    """
    r = subspace.dimension
    if r < 1:
        raise ConfigurationError("candidate generation needs a subspace of dimension >= 1")
    n = len(profile)
    n_boundary = 2 * math.comb(n, r - 1) if r > 1 else 2
    if n_boundary + sphere_samples > cap:
        raise CapabilityError(
            f"{n_boundary} boundary candidates exceed the cap {cap}; reduce the "
            "constraint count or dimension"
        )
    if r == 1:
        coeffs = np.array([[1.0], [-1.0]])
    else:
        directions = np.zeros((0, r))
        subsets = np.array(list(combinations(range(n), r - 1)), dtype=np.intp)
        if len(subsets):
            _, svals, vt = np.linalg.svd((profile.normals @ subspace.basis)[subsets])
            # rank-deficient subsets: their boundaries do not cut down to a line
            directions = vt[svals[:, -1] > 1e-10, -1]
        draws = np.random.default_rng(_SPHERE_SEED).standard_normal((sphere_samples, r))
        draw_norms = _row_norms(draws)
        positive = draw_norms > 0
        coeffs = np.concatenate([
            np.stack([directions, -directions], axis=1).reshape(-1, r),
            draws[positive] / draw_norms[positive, None],
        ])
    points = np.matmul(subspace.basis[None], coeffs[:, :, None])[:, :, 0]
    norms = _row_norms(points)
    nonzero = norms != 0.0
    points = points[nonzero] / norms[nonzero, None]
    if len(points) == 0:
        return np.empty(0)
    _, first = np.unique(np.round(points, DEDUP_DECIMALS), axis=0, return_index=True)
    return points[np.sort(first)]


@dataclass(frozen=True)
class CdepthArgmax:
    point: np.ndarray
    value: int
    degenerate: bool


def argmax_cdepth(
    profile: DepthProfile,
    subspace: FeasibleSubspace,
    sphere_samples: int = 64,
    cap: int = 20000,
) -> CdepthArgmax:
    """Point of the subspace maximizing cdepth over the candidate set.

    Over a finite witness set, cdepth is capped by the maximum witness depth
    and that cap is attained at a maximum-depth candidate, so the argmax
    reduces to a depth argmax over the candidates.  Ties go to the candidate
    whose coordinates, rounded to 9 decimals, are lexicographically smallest,
    then to the earliest candidate; one stable ``np.lexsort`` decides both.
    A zero-dimensional subspace returns the degenerate all-zero hypothesis;
    an empty candidate set (no sphere samples and no r-1 independent
    boundaries) is a ConfigurationError.
    """
    if subspace.dimension == 0:
        zero = np.zeros(subspace.ambient_dim)
        return CdepthArgmax(point=zero, value=profile.depth(zero), degenerate=True)
    candidates = arrangement_candidates(profile, subspace, sphere_samples, cap)
    if len(candidates) == 0:
        raise ConfigurationError(
            "no depth candidates: need sphere_samples > 0 or r-1 independent constraints"
        )
    cand_depths = profile.depths(candidates)
    rounded = np.round(candidates, 9)
    best = np.lexsort((*rounded.T[::-1], -cand_depths))[0]
    return CdepthArgmax(point=candidates[best], value=int(cand_depths[best]), degenerate=False)


# ---------------------------------------------------------------------------
# Subsample approximation check
# ---------------------------------------------------------------------------


def subsample_size_bound(d: int, alpha: float, beta: float) -> int:
    """Subset size above which cdepth fractions are alpha-preserved w.p. 1-beta."""
    if d < 1 or not 0 < alpha <= 1 or not 0 < beta < 1:
        raise ConfigurationError("invalid subsample-bound parameters")
    return math.ceil((d * math.log(d / alpha) + math.log(1.0 / beta)) / alpha**2)


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
