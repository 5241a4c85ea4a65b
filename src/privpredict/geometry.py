"""Linear-feasibility geometry for halfspace prediction: homogeneous constraints,
depth and convexified depth over explicit candidate sets, hyperplane-intersection
subspaces, and convex-hull membership (non-negative least squares, with an
exact rational Phase-I LP as the certifier).

Everything is homogeneous: a labeled point (x, y) becomes the through-origin
constraint <y*(x_1..x_d, -1), z> >= 0 on the parameter vector z, so feasible
regions of hard-query intersections are linear subspaces and intersecting with
a hyperplane is a rank-one basis update.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.optimize import nnls

from .core import (
    CapabilityError,
    ConfigurationError,
    NoiseSource,
    Point,
    UsageError,
)

DEPTH_TOL = 1e-12      # inner products down to -DEPTH_TOL still count as satisfied
# An NNLS residual (an L2 norm, never more than the distance from z to the hull)
# at or below this certifies membership without the exact solve.  It must sit
# well under the distances the exact band settles: at 1e-9, points ~1e-10
# outside the hull pass as members.
FEAS_TOL = 1e-12
INDETERMINATE_TOL = 1e-6   # residuals in (FEAS_TOL, this) trigger the exact re-solve
REDUNDANCY_TOL = 1e-9  # projections below this leave a subspace unchanged
DEDUP_DECIMALS = 8
KERNEL_BYTES = 1 << 20  # working-memory budget of one block chunk of the depth kernel
CANDIDATE_CAP = 20000  # candidate slots per block; more is a CapabilityError

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


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit-identical to ``np.linalg.norm(row)``.

    A stacked (1 x n) @ (n x 1) matmul runs the same dot kernel per row as
    ``norm`` does for one vector; ``np.linalg.norm(axis=1)`` sums differently
    and disagrees in the last bit.
    """
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


@functools.lru_cache(maxsize=64)
def sphere_directions(r: int, samples: int) -> np.ndarray:
    """The fixed sphere sample: ``samples`` seeded normal draws in R^r scaled to
    unit length, zero draws dropped.  Built once per (r, samples), read-only."""
    draws = np.random.default_rng(_SPHERE_SEED).standard_normal((samples, r))
    norms = row_norms(draws)
    positive = norms > 0
    directions = draws[positive] / norms[positive, None]
    directions.flags.writeable = False
    return directions


def _unit_lift(basis: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lift coefficient rows into the ambient space and scale each to unit length.

    Returns the points and which of them are nonzero (zero rows stay zero).
    The lift and the norms are stacked matrix-vector and vector-vector
    products, which run the same kernels as ``basis @ c`` and
    ``np.linalg.norm`` on one row (a single ``coeffs @ basis.T`` does not).
    """
    points = np.matmul(basis[None], coeffs[:, :, None])[:, :, 0]
    norms = row_norms(points)
    nonzero = norms != 0.0
    points[nonzero] /= norms[nonzero, None]
    return points, nonzero


def _check_cap(n: int, r: int, sphere_samples: int) -> int:
    """Candidate slots per block; more than CANDIDATE_CAP is a CapabilityError."""
    n_boundary = 2 * math.comb(n, r - 1) if r > 1 else 2
    if n_boundary + sphere_samples > CANDIDATE_CAP:
        raise CapabilityError(
            f"{n_boundary} boundary candidates exceed the cap {CANDIDATE_CAP}; reduce the "
            "constraint count or dimension"
        )
    return n_boundary + (sphere_samples if r > 1 else 0)


def _block_candidates(normals: np.ndarray, basis: np.ndarray,
                      sphere: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each block's deduplicated candidates, one block after another.

    ``normals`` is a (blocks, n, ambient) stack and ``sphere`` the lifted
    unit sphere sample.  Returns the points and each block's count.
    """
    k, n, ambient = normals.shape
    r = basis.shape[1]
    if r == 1:
        coeffs = np.tile([[1.0], [-1.0]], (k, 1))
    else:
        subsets = np.array(list(combinations(range(n), r - 1)), dtype=np.intp)
        directions = np.zeros((k, len(subsets), r))
        if len(subsets):
            _, svals, vt = np.linalg.svd(np.matmul(normals, basis)[:, subsets])
            # a rank-deficient subset's boundaries do not cut down to a line; its
            # zero direction lifts to a zero point, which is dropped below
            directions = np.where(svals[..., -1:] > 1e-10, vt[..., -1, :], 0.0)
        coeffs = np.stack([directions, -directions], axis=2).reshape(-1, r)
    boundary, nonzero = _unit_lift(basis, coeffs)
    points = np.concatenate([
        boundary.reshape(k, -1, ambient),
        np.broadcast_to(sphere, (k, *sphere.shape)),
    ], axis=1).reshape(-1, ambient)
    keep = np.concatenate([
        nonzero.reshape(k, -1),
        np.ones((k, len(sphere)), dtype=bool),
    ], axis=1).ravel()
    blocks = np.repeat(np.arange(k), len(keep) // k)[keep]
    points = points[keep]
    # first occurrence of each (block, rounded point): a stable sort keeps equal
    # keys in input order
    rounded = np.round(points, DEDUP_DECIMALS)
    order = np.lexsort((*rounded.T[::-1], blocks))
    rounded, sorted_blocks = rounded[order], blocks[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (sorted_blocks[1:] != sorted_blocks[:-1]) | (rounded[1:] != rounded[:-1]).any(axis=1)
    kept = np.sort(order[first])
    return points[kept], np.bincount(blocks[kept], minlength=k)


def _lifted_sphere(basis: np.ndarray, sphere_samples: int) -> np.ndarray:
    """The sphere sample lifted into the ambient space, once for all blocks
    (none when the subspace is a line)."""
    if basis.shape[1] == 1:
        return np.zeros((0, basis.shape[0]))
    points, nonzero = _unit_lift(basis, sphere_directions(basis.shape[1], sphere_samples))
    return points[nonzero]


def _block_argmax(normals: np.ndarray, points: np.ndarray,
                  counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each block's depth argmax over its candidates, as ``argmax_cdepth``."""
    blocks = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    depths = np.empty(len(points), dtype=np.intp)
    # DepthProfile.depths block by block, stacked over blocks with equal
    # candidate counts: the product's bits depend on its width
    for count in np.unique(counts):
        same = np.flatnonzero(counts == count)
        rows = starts[same, None] + np.arange(count)
        product = np.matmul(normals[same], points[rows].transpose(0, 2, 1))
        depths[rows] = (product >= -DEPTH_TOL).sum(axis=1)
    # the lexsort only needs each block's deepest candidates
    deepest = np.flatnonzero(depths == np.maximum.reduceat(depths, starts)[blocks])
    order = np.lexsort((*np.round(points[deepest], 9).T[::-1], blocks[deepest]))
    ties = np.bincount(blocks[deepest], minlength=len(counts))
    best = deepest[order[np.cumsum(ties) - ties]]
    return points[best], depths[best]


def arrangement_candidates(
    profile: DepthProfile,
    subspace: FeasibleSubspace,
    sphere_samples: int = 64,
) -> np.ndarray:
    """Candidate maximizer set on the subspace's unit sphere.

    Contains every normalized intersection of r-1 constraint boundaries with
    the subspace (r its dimension) plus a deterministic quasi-uniform sphere
    sample, deduplicated to 1e-8.

    The one-block case of the kernel behind ``argmax_cdepth_blocks``: a
    stacked SVD over all (r-1)-subsets of the projected normals gives each
    boundary direction as the pair +dir, -dir in subset order (rank-deficient
    subsets are skipped), then the sphere draws follow.  Rows come back in
    that order, and of points equal after rounding to DEDUP_DECIMALS the first
    one is kept.  No candidates give shape (0,).
    """
    r = subspace.dimension
    if r < 1:
        raise ConfigurationError("candidate generation needs a subspace of dimension >= 1")
    _check_cap(len(profile), r, sphere_samples)
    points, _ = _block_candidates(_one_block(profile, subspace), subspace.basis,
                                  _lifted_sphere(subspace.basis, sphere_samples))
    return points if len(points) else np.empty(0)


@dataclass(frozen=True)
class CdepthArgmax:
    point: np.ndarray
    value: int
    degenerate: bool


def argmax_cdepth_blocks(
    normals: np.ndarray,
    subspace: FeasibleSubspace,
    sphere_samples: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Depth argmax of every block inside one shared subspace, in one pass.

    ``normals`` is a (blocks, n, ambient) stack of constraint normals.
    Returns each block's point (blocks x ambient) and its integer depth, each
    equal to ``argmax_cdepth`` on that block alone.  The blocks go through
    the kernel in chunks whose working arrays stay near KERNEL_BYTES; the
    sphere sample is lifted once for all of them.
    """
    normals = np.asarray(normals, dtype=float)
    k, n, ambient = normals.shape
    r = subspace.dimension
    if r == 0:
        # the degenerate all-zero hypothesis satisfies every constraint weakly
        return np.zeros((k, ambient)), np.full(k, n, dtype=np.intp)
    slots = _check_cap(n, r, sphere_samples)
    sphere = _lifted_sphere(subspace.basis, sphere_samples)
    step = max(1, KERNEL_BYTES // (8 * max(slots, 1) * (n + r * r + 4 * ambient)))
    points = np.empty((k, ambient))
    depths = np.empty(k, dtype=np.intp)
    for lo in range(0, k, step):
        chunk = normals[lo:lo + step]
        candidates, counts = _block_candidates(chunk, subspace.basis, sphere)
        if not counts.all():
            raise ConfigurationError(
                "no depth candidates: need sphere_samples > 0 or r-1 independent constraints"
            )
        points[lo:lo + step], depths[lo:lo + step] = _block_argmax(chunk, candidates, counts)
    return points, depths


def argmax_cdepth(
    profile: DepthProfile,
    subspace: FeasibleSubspace,
    sphere_samples: int = 64,
) -> CdepthArgmax:
    """Point of the subspace maximizing cdepth over the candidate set.

    Over a finite witness set, cdepth is capped by the maximum witness depth
    and that cap is attained at a maximum-depth candidate, so the argmax
    reduces to a depth argmax over the candidates.  Ties go to the candidate
    whose coordinates, rounded to 9 decimals, are lexicographically smallest,
    then to the earliest candidate; one stable ``np.lexsort`` decides both.
    A zero-dimensional subspace returns the degenerate all-zero hypothesis;
    an empty candidate set (no sphere samples and no r-1 independent
    boundaries) is a ConfigurationError.  The one-block case of
    ``argmax_cdepth_blocks``.
    """
    points, depths = argmax_cdepth_blocks(_one_block(profile, subspace), subspace,
                                          sphere_samples)
    return CdepthArgmax(point=points[0], value=int(depths[0]),
                        degenerate=subspace.dimension == 0)


def _one_block(profile: DepthProfile, subspace: FeasibleSubspace) -> np.ndarray:
    return profile.normals.reshape(1, len(profile), subspace.ambient_dim)


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
