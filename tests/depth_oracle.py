"""References for the halfspace candidate/depth kernel.

The scalar reference is the per-subset, per-candidate loop that
``geometry.arrangement_candidates`` and ``geometry.argmax_cdepth`` used before
they were batched, kept verbatim as the oracle.  It takes every boundary
direction from an SVD; the kernel takes them in closed form for r <= 3.  So
the kernel must reproduce its candidate counts, rank skips and depths exactly,
and its points to 1e-12, with each boundary's (+dir, -dir) pair in either
order (see ``tests/test_depth_kernel.py``).

The batched reference (``argmax_cdepth_blocks`` and the three functions above
it) is the kernel as it was before it lifted each boundary line once and built
its candidates in place: it lifts +dir and -dir separately, stacks and
concatenates the candidates, and takes the r = 3 Gram diagonal per pair.  The
kernel must reproduce its points bit for bit.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from depth_analysis import depth
from privpredict.core import CapabilityError, ConfigurationError
from privpredict import geometry
from privpredict.geometry import (
    _SPHERE_SEED,
    DEDUP_DECIMALS,
    DEPTH_TOL,
    RANK_TOL,
    CdepthArgmax,
    DepthProfile,
    FeasibleSubspace,
    _cross,
    _first_occurrences,
    _lifted_sphere,
    _Scratch,
    _subsets,
    _unit_lift,
    check_cap,
)


def arrangement_candidates(
    profile: DepthProfile,
    subspace: FeasibleSubspace,
    sphere_samples: int = 64,
    cap: int = 20000,
) -> np.ndarray:
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
    coeffs: list[np.ndarray] = []
    if r == 1:
        coeffs.extend([np.array([1.0]), np.array([-1.0])])
    else:
        projected = profile.normals @ subspace.basis if n else np.zeros((0, r))
        for subset in combinations(range(n), r - 1):
            block = projected[list(subset), :]
            _, svals, vt = np.linalg.svd(block)
            if svals[-1] <= 1e-10:
                continue  # rank-deficient subset, boundaries do not cut down to a line
            direction = vt[-1]
            coeffs.append(direction)
            coeffs.append(-direction)
        rng = np.random.default_rng(_SPHERE_SEED)
        draws = rng.standard_normal((sphere_samples, r))
        for row in draws:
            norm = float(np.linalg.norm(row))
            if norm > 0:
                coeffs.append(row / norm)
    seen: dict[tuple, np.ndarray] = {}
    for c in coeffs:
        point = subspace.basis @ c
        norm = float(np.linalg.norm(point))
        if norm == 0.0:
            continue
        point = point / norm
        key = tuple(np.round(point, DEDUP_DECIMALS))
        if key not in seen:
            seen[key] = point
    return np.array(list(seen.values()))


def argmax_cdepth(
    profile: DepthProfile,
    subspace: FeasibleSubspace,
    sphere_samples: int = 64,
    cap: int = 20000,
) -> CdepthArgmax:
    if subspace.dimension == 0:
        zero = np.zeros(subspace.ambient_dim)
        return CdepthArgmax(point=zero, value=depth(profile, zero), degenerate=True)
    candidates = arrangement_candidates(profile, subspace, sphere_samples, cap)
    cand_depths = profile.depths(candidates)
    best_idx = 0
    best_key = None
    for i in range(len(candidates)):
        key = (-int(cand_depths[i]), tuple(np.round(candidates[i], 9)))
        if best_key is None or key < best_key:
            best_key = key
            best_idx = i
    return CdepthArgmax(point=candidates[best_idx], value=int(cand_depths[best_idx]), degenerate=False)


def _null_directions(rows: np.ndarray) -> np.ndarray:
    r = rows.shape[-1]
    if r > 3:
        _, svals, vt = np.linalg.svd(rows)
        return np.where(svals[..., -1:] > RANK_TOL, vt[..., -1, :], 0.0)
    if r == 2:
        a = rows[..., 0, :]
        perp = np.stack([-a[..., 1], a[..., 0]], axis=-1)
        square = np.einsum("...i,...i", perp, perp)
        full = square > RANK_TOL**2
    else:
        a, b = rows[..., 0, :], rows[..., 1, :]
        aa = np.einsum("...i,...i", a, a)
        # b less its part along a has the same cross product with a, and keeps
        # it accurate when the rows are nearly parallel
        along = np.divide(np.einsum("...i,...i", a, b), aa, out=np.zeros_like(aa), where=aa > 0)
        perp = _cross(a, b - along[..., None] * a)
        square = np.einsum("...i,...i", perp, perp)  # det G
        trace = aa + np.einsum("...i,...i", b, b)
        discriminant = np.sqrt(np.maximum(trace * trace - 4.0 * square, 0.0))
        # sigma_min^2 > RANK_TOL^2, multiplied out so a zero matrix divides nothing
        full = 2.0 * square > RANK_TOL**2 * (trace + discriminant)
    norms = np.sqrt(square)[..., None]
    return np.divide(perp, norms, out=np.zeros_like(perp), where=full[..., None])


def _block_candidates(normals: np.ndarray, basis: np.ndarray,
                      sphere: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k, n, ambient = normals.shape
    r = basis.shape[1]
    if r == 1:
        coeffs = np.tile([[1.0], [-1.0]], (k, 1))
    else:
        subsets = _subsets(n, r - 1)
        directions = np.zeros((k, len(subsets), r))
        if len(subsets):
            # a rank-deficient subset's boundaries do not cut down to a line; its
            # zero direction lifts to a zero point, which is dropped below
            directions = _null_directions(np.matmul(normals, basis)[:, subsets])
        coeffs = np.stack([directions, -directions], axis=2).reshape(-1, r)
    boundary, nonzero = _unit_lift(basis, coeffs, _Scratch())
    points = np.concatenate([
        boundary.reshape(k, -1, ambient),
        np.broadcast_to(sphere, (k, *sphere.shape)),
    ], axis=1).reshape(-1, ambient)
    keep = np.concatenate([
        nonzero.reshape(k, -1),
        np.ones((k, len(sphere)), dtype=bool),
    ], axis=1).ravel()
    blocks = np.repeat(np.arange(k), len(keep) // k)[keep]
    return _first_occurrences(points[keep], blocks, k)


def _block_argmax(normals: np.ndarray, points: np.ndarray,
                  counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    blocks = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    depths = np.empty(len(points), dtype=np.intp)
    # DepthProfile.depths block by block, stacked over blocks with equal
    # candidate counts: the product's bits depend on its width
    for count in np.unique(counts):
        same = np.flatnonzero(counts == count)
        rows = starts[same, None] + np.arange(count)
        scratch = _Scratch()
        # mode="clip" writes straight into out; the default buffers a copy
        gathered = np.take(points, rows, axis=0, mode="clip",
                           out=scratch.take((len(same), count, points.shape[1])))
        product = np.matmul(normals[same], gathered.transpose(0, 2, 1),
                            out=scratch.take((len(same), normals.shape[1], count)))
        satisfied = np.greater_equal(product, -DEPTH_TOL, out=scratch.take(product.shape, bool))
        depths[rows] = satisfied.sum(axis=1)
    # the lexsort only needs each block's deepest candidates
    deepest = np.flatnonzero(depths == np.maximum.reduceat(depths, starts)[blocks])
    order = np.lexsort((*np.round(points[deepest], 9).T[::-1], blocks[deepest]))
    ties = np.bincount(blocks[deepest], minlength=len(counts))
    best = deepest[order[np.cumsum(ties) - ties]]
    return points[best], depths[best]


def argmax_cdepth_blocks(
    normals: np.ndarray,
    subspace: FeasibleSubspace,
    sphere_samples: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    normals = np.asarray(normals, dtype=float)
    k, n, ambient = normals.shape
    r = subspace.dimension
    if r == 0:
        # the degenerate all-zero hypothesis satisfies every constraint weakly
        return np.zeros((k, ambient)), np.full(k, n, dtype=np.intp)
    slots = check_cap(n, r, sphere_samples)
    sphere = _lifted_sphere(subspace.basis, sphere_samples)
    step = max(1, geometry.KERNEL_BYTES // (8 * max(slots, 1) * (n + 4 * ambient)))
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
