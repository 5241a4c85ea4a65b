import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depth_analysis
import hull_oracle
from depth_analysis import cdepth, cdepth_subsample_check, depth, hull_membership, to_constraint
from privpredict.core import CapabilityError, ConfigurationError, NoiseSource, UsageError
from privpredict.geometry import (
    DepthProfile,
    FeasibleSubspace,
    arrangement_candidates,
    argmax_cdepth,
    subsample_size_bound,
)


# --- independent exact oracle: Caratheodory search with rational arithmetic ---

def _solve_exact(matrix, rhs):
    """Unique exact solution of an (m x n) rational system, or None."""
    m, n = len(matrix), len(matrix[0])
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None  # inconsistent
    if len(pivots) < n:
        return None  # underdetermined: skip, another subset will witness membership
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def exact_hull_membership(points, z) -> bool:
    """z in conv(points) iff some subset of <= dim+1 points contains it (Caratheodory)."""
    pts = [[Fraction(v) for v in p] for p in points]
    zq = [Fraction(v) for v in z]
    dim = len(zq)
    for size in range(1, dim + 2):
        for subset in itertools.combinations(range(len(pts)), size):
            matrix = [[pts[j][c] for j in subset] for c in range(dim)]
            matrix.append([Fraction(1)] * size)
            sol = _solve_exact(matrix, zq + [Fraction(1)])
            if sol is not None and all(v >= 0 for v in sol):
                return True
    return False


def test_to_constraint_examples():
    assert np.allclose(to_constraint((2.0, 3.0), 1), [2.0, 3.0, -1.0])
    assert np.allclose(to_constraint((2.0, 3.0), -1), [-2.0, -3.0, 1.0])


def test_realizable_target_has_full_depth():
    rng = np.random.default_rng(0)
    target = np.array([0.6, -0.8, 0.1])
    points = rng.uniform(-1, 1, size=(20, 2))
    labels = np.where(points @ target[:2] - target[2] >= 0, 1, -1)
    normals = np.array([to_constraint(tuple(p), int(l)) for p, l in zip(points, labels)])
    profile = DepthProfile(normals)
    assert depth(profile, target) == 20
    # direct inner-product enumeration
    assert int((normals @ target >= 0).sum()) == 20


def test_depth_examples():
    profile = DepthProfile(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert depth(profile, np.array([1.0, 1.0])) == 2
    assert depth(DepthProfile(np.zeros((0, 2))), np.array([1.0, 1.0])) == 0
    rng = np.random.default_rng(3)
    normals = rng.standard_normal((12, 3))
    z = rng.standard_normal(3)
    brute = sum(1 for a in normals if float(a @ z) >= -1e-12)
    assert depth(DepthProfile(normals), z) == brute


def test_hull_membership_examples():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert hull_membership(pts, np.array([0.0, 1.0]))  # vertex
    assert hull_membership(pts, np.array([0.25, 0.25]))
    assert not hull_membership(pts, np.array([1.0, 1.0]))
    with pytest.raises(CapabilityError):
        hull_membership(np.zeros((1001, 2)), np.zeros(2))
    with pytest.raises(UsageError):
        hull_membership(pts, np.zeros(3))


def test_hull_membership_agrees_with_exact_oracle():
    rng = np.random.default_rng(11)
    for trial in range(100):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(dim + 1, 9))
        pts = np.round(rng.uniform(-1, 1, size=(n, dim)), 3)
        if trial % 3 == 0:
            weights = rng.dirichlet(np.ones(n))
            z = np.round(weights @ pts, 3)  # near or inside the hull
        else:
            z = np.round(rng.uniform(-1.2, 1.2, size=dim), 3)
        assert hull_membership(pts, z) == exact_hull_membership(pts, z)


@st.composite
def dyadic_hull_cases(draw):
    """Integer points in [-4, 4]^dim and a query whose coordinates are exact in
    binary: an eighths-weighted combination, a midpoint, a vertex, or a
    half-integer point (inside, on the boundary or outside)."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    coords = st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)
    pts = np.array(draw(st.lists(coords, min_size=n, max_size=n)), dtype=float)
    index = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["combination", "midpoint", "vertex", "half-integer"]))
    if kind == "combination":
        z = pts[draw(st.lists(index, min_size=8, max_size=8))].sum(axis=0) / 8
    elif kind == "midpoint":
        z = (pts[draw(index)] + pts[draw(index)]) / 2
    elif kind == "vertex":
        z = pts[draw(index)]
    else:
        z = np.array(draw(st.lists(st.integers(-9, 9), min_size=dim, max_size=dim))) / 2
    return pts, z


@given(dyadic_hull_cases())
@settings(max_examples=150, deadline=None)
def test_hull_membership_matches_exact_and_float_oracles_on_dyadic_points(case):
    pts, z = case
    expected = exact_hull_membership(pts, z)
    assert hull_membership(pts, z) == expected
    assert hull_oracle.hull_membership(pts, z) == expected


_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_PUSHED_VERTEX = np.array([1.0 + 1e-8, 0.0])  # the vertex (1, 0) moved 1e-8 outward


@pytest.mark.parametrize("push", [1e-8, 1e-10])
def test_hull_membership_pushed_vertex_goes_to_the_exact_solver(monkeypatch, push):
    # a push of 1e-10 leaves an NNLS residual below 1e-9, so a looser FEAS_TOL
    # would call the point a member
    calls = []
    exact = depth_analysis._phase_one_exact

    def spy(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(depth_analysis, "_phase_one_exact", spy)
    assert not hull_membership(_TRIANGLE, np.array([1.0 + push, 0.0]))
    assert len(calls) == 1


def test_hull_membership_exact_solver_decides_when_nnls_stops(monkeypatch):
    def stopped(*args, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(depth_analysis, "nnls", stopped)
    assert hull_membership(_TRIANGLE, np.array([0.25, 0.25]))
    assert hull_membership(_TRIANGLE, np.array([0.5, 0.5]))
    assert not hull_membership(_TRIANGLE, np.array([1.0, 1.0]))
    assert not hull_membership(_TRIANGLE, _PUSHED_VERTEX)


def test_hull_membership_capped_exact_solve_raises(monkeypatch):
    monkeypatch.setattr(depth_analysis, "_phase_one_exact", lambda *args: None)
    with pytest.raises(CapabilityError, match="pivot cap of 1400"):
        hull_membership(_TRIANGLE, _PUSHED_VERTEX)


def test_cdepth_one_dimensional_oracle():
    # scalar constraints z >= 1, z <= 2, z <= 3 in the homogeneous chart (z, 1)
    profile = DepthProfile(np.array([[1.0, -1.0], [-1.0, 2.0], [-1.0, 3.0]]))
    grid = np.array([[x, 1.0] for x in np.linspace(-1, 5, 241)])

    def interval_cdepth(z_scalar):
        depths = profile.depths(grid)
        best = depth(profile, np.array([z_scalar, 1.0]))
        for level in sorted(set(depths.tolist())):
            if level <= best:
                continue
            xs = grid[depths >= level][:, 0]
            if xs.size and xs.min() <= z_scalar <= xs.max():  # 1-D hull is an interval
                best = level
        return best

    for z_scalar in (-0.5, 0.0, 1.5, 2.5, 3.5, 4.5):
        got = cdepth(profile, np.array([z_scalar, 1.0]), grid)
        assert got == interval_cdepth(z_scalar)


def test_cdepth_at_least_depth_and_fact_bound():
    rng = np.random.default_rng(21)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(4, 13))
        normals = rng.standard_normal((n, d + 1))
        profile = DepthProfile(normals)
        space = FeasibleSubspace.full(d + 1)
        cands = arrangement_candidates(profile, space, sphere_samples=16)
        for z in cands[:: max(1, len(cands) // 8)]:
            value = cdepth(profile, z, cands)
            depth_z = depth(profile, z)
            assert value >= depth_z
            assert depth_z >= (d + 1) * value - d * n  # superlevel-hull transfer bound


def test_cdepth_needs_candidates():
    profile = DepthProfile(np.array([[1.0, 0.0]]))
    with pytest.raises(ConfigurationError):
        cdepth(profile, np.array([1.0, 0.0]), np.zeros((0, 2)))


def test_arrangement_candidates_line_and_pairs():
    profile = DepthProfile(np.random.default_rng(1).standard_normal((5, 3)))
    line = FeasibleSubspace(np.array([[1.0], [0.0], [0.0]]))
    cands = arrangement_candidates(profile, line)
    assert sorted(map(tuple, cands.tolist())) == [(-1.0, -0.0, -0.0), (1.0, 0.0, 0.0)]

    plane = FeasibleSubspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    three = DepthProfile(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))
    cands = arrangement_candidates(three, plane, sphere_samples=0)
    assert len(cands) == 6  # one +/- pair per constraint boundary


def test_arrangement_candidates_dedup_and_cap():
    plane = FeasibleSubspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    base = DepthProfile(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    doubled = DepthProfile(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
    a = arrangement_candidates(base, plane, sphere_samples=8)
    b = arrangement_candidates(doubled, plane, sphere_samples=8)
    assert sorted(map(tuple, a.tolist())) == sorted(map(tuple, b.tolist()))
    big = DepthProfile(np.random.default_rng(0).standard_normal((80, 4)))
    with pytest.raises(CapabilityError):
        arrangement_candidates(big, FeasibleSubspace.full(4))


def test_argmax_cdepth_feasible_and_degenerate():
    rng = np.random.default_rng(2)
    target = np.array([0.5, 0.5, 0.1])
    points = rng.uniform(-1, 1, size=(10, 2))
    labels = np.where(points @ target[:2] - target[2] >= 0, 1, -1)
    normals = np.array([to_constraint(tuple(p), int(l)) for p, l in zip(points, labels)])
    profile = DepthProfile(normals)
    result = argmax_cdepth(profile, FeasibleSubspace.full(3))
    assert result.value == 10
    assert not result.degenerate

    empty = FeasibleSubspace(np.zeros((3, 0)))
    res0 = argmax_cdepth(profile, empty)
    assert res0.degenerate
    assert np.allclose(res0.point, 0.0)
    assert res0.value == 10  # the zero vector satisfies every homogeneous constraint


def test_argmax_cdepth_matches_dense_grid():
    rng = np.random.default_rng(14)
    normals = rng.standard_normal((12, 3))
    profile = DepthProfile(normals)
    result = argmax_cdepth(profile, FeasibleSubspace.full(3))
    best = 0
    for theta in np.linspace(0, math.pi, 315):
        azim = np.linspace(0, 2 * math.pi, 629)
        pts = np.stack(
            [np.sin(theta) * np.cos(azim), np.sin(theta) * np.sin(azim),
             np.full_like(azim, np.cos(theta))],
            axis=1,
        )
        best = max(best, int(profile.depths(pts).max()))
    assert abs(result.value - best) <= 1
    # the shortcut agrees with the general cdepth routine at the returned point
    cands = arrangement_candidates(profile, FeasibleSubspace.full(3))
    assert cdepth(profile, result.point, cands) == result.value


def test_intersect_examples_and_chain():
    space = FeasibleSubspace.full(3)
    s1, red = space.intersect(np.array([0.0, 0.0, 1.0]))
    assert not red and s1.dimension == 2
    for z in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        assert np.linalg.norm(z - s1.basis @ (s1.basis.T @ z)) <= 1e-12  # z lies in s1
    s1b, red_again = s1.intersect(np.array([0.0, 0.0, 1.0]))
    assert red_again and s1b.dimension == 2
    s2, _ = s1.intersect(np.array([0.0, 1.0, 0.0]))
    s3, _ = s2.intersect(np.array([1.0, 0.0, 0.0]))
    assert (s2.dimension, s3.dimension) == (1, 0)
    with pytest.raises(UsageError):
        space.intersect(np.zeros(3))


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=40, deadline=None)
def test_intersect_drops_dimension_by_one(seed):
    rng = np.random.default_rng(seed)
    space = FeasibleSubspace.full(4)
    dims = [space.dimension]
    for _ in range(4):
        normal = rng.standard_normal(4)
        space, redundant = space.intersect(normal)
        dims.append(space.dimension)
        assert redundant or dims[-2] - dims[-1] == 1
        if space.dimension and not redundant:
            gram = space.basis.T @ space.basis
            assert np.allclose(gram, np.eye(space.dimension), atol=1e-9)
            residual = np.max(np.abs(space.basis.T @ normal))
            assert residual <= 1e-8 * np.linalg.norm(normal)
    assert dims[-1] >= 0


def test_convexity_transfer_on_segments():
    rng = np.random.default_rng(33)
    normals = rng.standard_normal((14, 3))
    profile = DepthProfile(normals)
    cands = arrangement_candidates(profile, FeasibleSubspace.full(3), sphere_samples=24)
    idx = rng.integers(0, len(cands), size=(10, 2))
    for i, j in idx:
        p, q = cands[i], cands[j]
        cp = cdepth(profile, p, cands)
        cq = cdepth(profile, q, cands)
        mid = 0.5 * p + 0.5 * q
        assert cdepth(profile, mid, cands) >= min(cp, cq) - 1


def test_subsample_check_identity_and_vacuous():
    rng = np.random.default_rng(8)
    normals = rng.standard_normal((60, 3))
    report = cdepth_subsample_check(
        normals, d=2, m=60, trials=4, alpha=0.5, beta=0.2, noise=NoiseSource(1)
    )
    assert report.trial_violation_fraction == 0.0 and report.passed
    vac = cdepth_subsample_check(
        normals, d=2, m=60, trials=4, alpha=1.0, beta=0.2, noise=NoiseSource(1)
    )
    assert vac.passed and vac.probe_violation_fraction == 0.0
    with pytest.raises(ConfigurationError):
        cdepth_subsample_check(normals, d=2, m=5, trials=2, alpha=0.5, beta=0.2,
                               noise=NoiseSource(0))


def test_subsample_bound_value():
    assert subsample_size_bound(2, 0.15, 0.1) == math.ceil(
        (2 * math.log(2 / 0.15) + math.log(10)) / 0.15**2
    )
