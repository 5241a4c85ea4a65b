"""Scalar reference for the halfspace candidate/depth kernel.

This is the per-subset, per-candidate loop that ``geometry.arrangement_candidates``
and ``geometry.argmax_cdepth`` used before they were batched, kept verbatim as
the oracle.  It takes every boundary direction from an SVD; the kernel takes
them in closed form for r <= 3.  So the kernel must reproduce its candidate
counts, rank skips and depths exactly, and its points to 1e-12, with each
boundary's (+dir, -dir) pair in either order (see ``tests/test_depth_kernel.py``).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from depth_analysis import depth
from privpredict.core import CapabilityError, ConfigurationError
from privpredict.geometry import (
    _SPHERE_SEED,
    DEDUP_DECIMALS,
    CdepthArgmax,
    DepthProfile,
    FeasibleSubspace,
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
