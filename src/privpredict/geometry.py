"""Linear-feasibility geometry for halfspace prediction: homogeneous constraints,
depth over explicit candidate sets, the batched depth-argmax kernel,
hyperplane-intersection subspaces, and the subsample size bound.

Everything is homogeneous: a labeled point (x, y) becomes the through-origin
constraint <y*(x_1..x_d, -1), z> >= 0 on the parameter vector z, so feasible
regions of hard-query intersections are linear subspaces and intersecting with
a hyperplane is a rank-one basis update.  Convex-hull membership and
convexified depth, which only the offline checks of the depth facts use, live
in ``tests/depth_analysis.py``.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import CapabilityError, ConfigurationError, UsageError

DEPTH_TOL = 1e-12      # inner products down to -DEPTH_TOL still count as satisfied
REDUNDANCY_TOL = 1e-9  # projections below this leave a subspace unchanged
DEDUP_DECIMALS = 8
_DEDUP_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier of the dedup hash
RANK_TOL = 1e-10  # boundary subsets with smallest singular value at most this are skipped
KERNEL_BYTES = 1 << 20  # working-memory budget of one block chunk of the depth kernel
_WORKSPACE = threading.local()  # .buffer: the depth kernel's scratch bytes in this thread
CANDIDATE_CAP = 20000  # candidate slots per block; more is a CapabilityError

_SPHERE_SEED = 0x5EED  # candidate sphere samples are fixed across runs by design


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


def row_norms(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean norm of each row, bit-identical to ``np.linalg.norm(row)``.

    A stacked (1 x n) @ (n x 1) matmul runs the same dot kernel per row as
    ``norm`` does for one vector; ``np.linalg.norm(axis=1)`` sums differently
    and disagrees in the last bit.  ``out``, an (n, 1, 1) float array, takes
    the result in place of a new array.
    """
    norms = np.matmul(rows[:, None, :], rows[:, :, None], out=out)[:, 0, 0]
    return np.sqrt(norms, out=norms)


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


class _Scratch:
    """Consecutive views into the depth kernel's workspace, each at an offset
    that is a multiple of 64 bytes, so each is as aligned as the buffer.

    The workspace is one byte buffer per thread that outlives every call, like
    ``sphere_directions``'s cache, so the kernel's large per-chunk temporaries
    are not allocated, freed and faulted back in on every refit.  It only
    grows: a view that does not fit replaces it with a buffer as long as
    everything taken so far, and views already handed out keep the old one
    alive.  Its size follows the chunks, so a patched KERNEL_BYTES still
    decides it.  Whoever takes a fresh ``_Scratch`` (one per chunk of the
    kernel) lets no view of it out, so the next one may overwrite everything.
    """

    def __init__(self):
        self.buffer = getattr(_WORKSPACE, "buffer", None)
        self.used = 0

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        start = -(-self.used // 64) * 64
        self.used = start + math.prod(shape) * np.dtype(dtype).itemsize
        if self.buffer is None or self.used > len(self.buffer):
            self.buffer = _WORKSPACE.buffer = np.empty(self.used, dtype=np.uint8)
        return self.buffer[start:self.used].view(dtype).reshape(shape)


def _unit_lift(basis: np.ndarray, coeffs: np.ndarray,
               scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """Lift coefficient rows into the ambient space and scale each to unit length.

    Returns the points, a view of ``scratch``, and which of them are nonzero
    (zero rows stay zero).  Each row, such as a boundary line's +dir, takes
    one stacked matrix-vector and one vector-vector product, the kernels of
    ``basis @ c`` and ``np.linalg.norm`` on one row (``coeffs @ basis.T`` is not).
    """
    points = np.matmul(basis[None], coeffs[:, :, None],
                       out=scratch.take((len(coeffs), len(basis), 1)))[:, :, 0]
    norms = row_norms(points, out=scratch.take((len(points), 1, 1)))
    nonzero = norms != 0.0
    np.divide(points, norms[:, None], out=points, where=nonzero[:, None])
    return points, nonzero


def check_cap(n: int, r: int, sphere_samples: int) -> int:
    """Candidate slots per block; more than CANDIDATE_CAP is a CapabilityError."""
    n_boundary = 2 * math.comb(n, r - 1) if r > 1 else 2
    if n_boundary + sphere_samples > CANDIDATE_CAP:
        raise CapabilityError(
            f"{n_boundary} boundary candidates exceed the cap {CANDIDATE_CAP}; reduce the "
            "constraint count or dimension"
        )
    return n_boundary + (sphere_samples if r > 1 else 0)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cross products of two equal-shape stacks of 3-vectors, bit for bit
    as ``np.cross`` rounds them: each component is a difference of two
    products, each rounded on its own.  Writing the components straight into
    the result skips ``np.cross``'s axis moves and copies."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    cross = np.empty(a.shape)
    np.subtract(a1 * b2, a2 * b1, out=cross[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=cross[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=cross[..., 2])
    return cross


@functools.lru_cache(maxsize=64)
def _subsets(n: int, size: int) -> np.ndarray:
    """The ``size``-subsets of range(n) as index rows, in ``combinations``
    order.  Built once per (n, size), read-only."""
    subsets = np.array(list(combinations(range(n), size)), dtype=np.intp)
    subsets.flags.writeable = False
    return subsets


def _null_directions(projected: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """The unit null vector of each block's (r-1) x r matrix projected[:, s]
    for each row s of ``subsets``, or zero where its smallest singular value
    is at most RANK_TOL.

    For r <= 3 both come in closed form.  The direction is the perpendicular
    (-a1, a0) of the one row a at r=2, the cross product a x b of the two rows
    at r=3, scaled to unit length.  The smallest singular value is |a| at r=2;
    at r=3 its square is 2 det G / (tr G + sqrt(tr^2 G - 4 det G)) for the
    Gram matrix G of the rows, where det G = |a x b|^2 and G's diagonal is
    gathered from each normal's square, taken once.  Larger r take both from
    one stacked SVD.  The sign of a direction is arbitrary.
    """
    r = projected.shape[-1]
    if r > 3:
        _, svals, vt = np.linalg.svd(projected[:, subsets])
        return np.where(svals[..., -1:] > RANK_TOL, vt[..., -1, :], 0.0)
    if r == 2:
        a = projected[:, subsets[:, 0]]
        perp = np.stack([-a[..., 1], a[..., 0]], axis=-1)
        square = np.einsum("...i,...i", perp, perp)
        full = square > RANK_TOL**2
    else:
        squares = np.einsum("...i,...i", projected, projected)
        (a, aa), (b, bb) = ((projected[:, i], squares[:, i]) for i in subsets.T)
        # b less its part along a has the same cross product with a, and keeps
        # it accurate when the rows are nearly parallel
        along = np.divide(np.einsum("...i,...i", a, b), aa, out=np.zeros_like(aa), where=aa > 0)
        perp = _cross(a, b - along[..., None] * a)
        square = np.einsum("...i,...i", perp, perp)  # det G
        trace = aa + bb
        discriminant = np.sqrt(np.maximum(trace * trace - 4.0 * square, 0.0))
        # sigma_min^2 > RANK_TOL^2, multiplied out so a zero matrix divides nothing
        full = 2.0 * square > RANK_TOL**2 * (trace + discriminant)
    norms = np.sqrt(square)[..., None]
    return np.divide(perp, norms, out=np.zeros_like(perp), where=full[..., None])


def _block_candidates(normals: np.ndarray, basis: np.ndarray, sphere: np.ndarray,
                      scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """Each block's deduplicated candidates, one block after another.

    ``normals`` is a (blocks, n, ambient) stack and ``sphere`` the lifted
    unit sphere sample.  Each (r-1)-subset of a block's projected normals
    gives its boundary direction from ``_null_directions`` (closed form for
    r <= 3, a stacked SVD above; +1 at r=1), lifted once as +dir, with -dir
    written as 0 - (+dir), bit for bit its own lift.  The pairs go to even
    and odd rows of one (blocks, slots, ambient) view of ``scratch``, the
    sphere rows after them.
    Returns the points, which may be that view, and each block's count.
    """
    k, n, ambient = normals.shape
    r = basis.shape[1]
    if r == 1:
        directions = np.ones((k, 1, 1))
    else:
        subsets = _subsets(n, r - 1)
        directions = np.zeros((k, len(subsets), r))
        if len(subsets):
            # a rank-deficient subset's boundaries do not cut down to a line; its
            # zero direction lifts to a zero point, which is dropped below
            directions = _null_directions(np.matmul(normals, basis), subsets)
    lifted, nonzero = _unit_lift(basis, directions.reshape(-1, r), scratch)
    boundary = 2 * directions.shape[1]
    slots = boundary + len(sphere)
    points = scratch.take((k, slots, ambient))
    points[:, :boundary:2] = lifted.reshape(k, -1, ambient)
    # 0 - p is -p bit for bit, but +0.0 where p is zero, as the lift of -dir sums
    np.subtract(0.0, points[:, :boundary:2], out=points[:, 1:boundary:2])
    points[:, boundary:] = sphere
    points, blocks = points.reshape(-1, ambient), np.repeat(np.arange(k), slots)
    if nonzero.all():
        return _first_occurrences(points, blocks, k)
    keep = np.ones((k, slots), dtype=bool)
    keep[:, :boundary] = np.repeat(nonzero.reshape(k, -1), 2, axis=1)
    return _first_occurrences(points[keep.ravel()], blocks[keep.ravel()], k)


def _first_occurrences(points: np.ndarray, blocks: np.ndarray,
                       k: int) -> tuple[np.ndarray, np.ndarray]:
    """Of the unit points of a block that are equal after rounding to
    DEDUP_DECIMALS, the first; returns the kept points in input order and each
    block's count.

    np.round divides rint(x * 10**DEDUP_DECIMALS) back down, so points equal
    after rounding have equal integers here (-0.0 included), and so equal
    hashes of block and integers.  When all hashes differ nothing is dropped;
    otherwise ``_first_occurrences_sorted`` decides.
    """
    scaled = np.rint(points * 10.0**DEDUP_DECIMALS).astype(np.int64).view(np.uint64)
    key = blocks.astype(np.uint64)
    for column in scaled.T:
        key = key * _DEDUP_MIX + column  # wraps modulo 2**64
    key.sort()
    if (key[1:] != key[:-1]).all():
        return points, np.bincount(blocks, minlength=k)
    return _first_occurrences_sorted(points, blocks, k)


def _first_occurrences_sorted(points: np.ndarray, blocks: np.ndarray,
                              k: int) -> tuple[np.ndarray, np.ndarray]:
    """``_first_occurrences`` by one stable lexsort of (block, rounded point),
    which keeps equal keys in input order."""
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
    points, nonzero = _unit_lift(basis, sphere_directions(basis.shape[1], sphere_samples),
                                 _Scratch())
    return points[nonzero]


def _block_argmax(normals: np.ndarray, points: np.ndarray, counts: np.ndarray,
                  scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """Each block's depth argmax over its candidates, as ``argmax_cdepth``."""
    blocks = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    depths = np.empty(len(points), dtype=np.intp)
    # DepthProfile.depths block by block, stacked over blocks with equal
    # candidate counts: the product's bits depend on its width
    for count in np.unique(counts):
        same = np.flatnonzero(counts == count)
        rows = starts[same, None] + np.arange(count)
        # mode="clip" writes straight into out; the default buffers a copy
        gathered = np.take(points, rows, axis=0, mode="clip",
                           out=scratch.take((len(same), count, points.shape[1])))
        product = np.matmul(normals[same], gathered.transpose(0, 2, 1),
                            out=scratch.take((len(same), normals.shape[1], count)))
        satisfied = np.greater_equal(product, -DEPTH_TOL, out=scratch.take(product.shape, bool))
        depths[rows] = satisfied.view(np.uint8).sum(axis=1, dtype=np.intp)
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

    The one-block case of the kernel behind ``argmax_cdepth_blocks``: every
    (r-1)-subset of the projected normals gives its boundary direction as the
    pair +dir, -dir in subset order, then the sphere draws follow.  The
    direction is the perpendicular of the one row at r=2, the cross product
    of the two rows at r=3, and the null vector of a stacked SVD at r >= 4; a
    subset whose smallest singular value is at most RANK_TOL is skipped.
    Rows come back in that order, and of points equal after rounding to
    DEDUP_DECIMALS the first one is kept.  No candidates give shape (0,).
    """
    r = subspace.dimension
    if r < 1:
        raise ConfigurationError("candidate generation needs a subspace of dimension >= 1")
    check_cap(len(profile), r, sphere_samples)
    points, _ = _block_candidates(_one_block(profile, subspace), subspace.basis,
                                  _lifted_sphere(subspace.basis, sphere_samples), _Scratch())
    return points.copy() if len(points) else np.empty(0)


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
    sphere sample is lifted once for all of them.  A chunk's large arrays
    (the +dir lift and its norms, the candidates built in place with -dir as
    0 - (+dir), their gathered copy, and the (blocks x n x candidates)
    product and its mask) are views of one ``_Scratch`` of a workspace that
    outlives the call, written by the same kernels as a fresh array would
    be, so a refit allocates none of them.  The results are fresh arrays.
    """
    normals = np.asarray(normals, dtype=float)
    k, n, ambient = normals.shape
    r = subspace.dimension
    if r == 0:
        # the degenerate all-zero hypothesis satisfies every constraint weakly
        return np.zeros((k, ambient)), np.full(k, n, dtype=np.intp)
    slots = check_cap(n, r, sphere_samples)
    sphere = _lifted_sphere(subspace.basis, sphere_samples)
    # bytes per slot: a lifted direction and norm (at most every other slot), the
    # point, its gathered copy, and n products and mask bytes
    step = max(1, KERNEL_BYTES // (max(slots, 1) * (9 * n + 20 * ambient + 4)))
    points = np.empty((k, ambient))
    depths = np.empty(k, dtype=np.intp)
    for lo in range(0, k, step):
        chunk, scratch = normals[lo:lo + step], _Scratch()
        candidates, counts = _block_candidates(chunk, subspace.basis, sphere, scratch)
        if not counts.all():
            raise ConfigurationError(
                "no depth candidates: need sphere_samples > 0 or r-1 independent constraints"
            )
        points[lo:lo + step], depths[lo:lo + step] = _block_argmax(chunk, candidates, counts, scratch)
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
# Subsample size bound
# ---------------------------------------------------------------------------


def subsample_size_bound(d: int, alpha: float, beta: float) -> int:
    """Subset size above which every cdepth share is alpha-preserved w.p. 1-beta."""
    if d < 1 or not 0 < alpha <= 1 or not 0 < beta < 1:
        raise ConfigurationError("invalid subsample-bound parameters")
    return math.ceil((d * math.log(d / alpha) + math.log(1.0 / beta)) / alpha**2)
