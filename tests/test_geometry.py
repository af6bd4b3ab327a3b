import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manipsem.geometry import (
    Aabb,
    DegenerateCloud,
    EmptyCloud,
    RegionClass,
    aabb_gap,
    box_hull,
    classify_points,
    compute_aabb,
    compute_convex_hull,
    gjk_distance,
    hull_surface_distance,
    hull_with_fallback,
    relation_matrix,
    touch,
)
from conftest import box_cloud
from helpers import directed_edge_multiset, euler_counts, hull_volume

CUBE = np.array([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float)


def brute_force_classify(hull, p, tol):
    """Independent oracle: test p against every supporting plane through
    every vertex triple of the hull's vertex set."""
    verts = hull.vertices
    worst = -np.inf
    for i, j, k in itertools.combinations(range(len(verts)), 3):
        n = np.cross(verts[j] - verts[i], verts[k] - verts[i])
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            continue
        n = n / norm
        d = -n @ verts[i]
        side = verts @ n + d
        if side.max() <= 1e-9:
            pass
        elif side.min() >= -1e-9:
            n, d = -n, -d
        else:
            continue  # not a supporting plane
        worst = max(worst, float(p @ n + d))
    if worst < -tol:
        return RegionClass.INTERIOR
    if worst <= tol:
        return RegionClass.BOUNDARY
    return RegionClass.EXTERIOR


class TestHullConstruction:
    def test_cube_is_its_own_hull(self):
        h = compute_convex_hull(CUBE)
        assert len(h.vertices) == 8
        assert len(h.faces) == 12
        assert hull_volume(h) == pytest.approx(1.0, abs=1e-12)

    def test_interior_point_excluded(self):
        h = compute_convex_hull(np.vstack([CUBE, (0.5, 0.5, 0.5)]))
        assert len(h.vertices) == 8
        assert not any(np.allclose(v, (0.5, 0.5, 0.5)) for v in h.vertices)

    def test_sphere_surface_vertices(self):
        rng = np.random.default_rng(0)
        d = rng.normal(size=(50, 3))
        surface = d / np.linalg.norm(d, axis=1, keepdims=True)
        interior = rng.uniform(-0.4, 0.4, size=(50, 3))
        h = compute_convex_hull(np.vstack([surface, interior]))
        assert sorted(h.vertex_indices.tolist()) == list(range(50))

    def test_too_few_points(self):
        with pytest.raises(DegenerateCloud):
            compute_convex_hull(np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0)], dtype=float))

    def test_coplanar_cloud(self):
        with pytest.raises(DegenerateCloud):
            compute_convex_hull(np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
                                         (0.3, 0.4, 0)]))

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            compute_convex_hull(np.empty((0, 3)))

    def test_idempotent_on_own_vertices(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pts = rng.uniform(0, 1, size=(rng.integers(4, 40), 3))
            h = compute_convex_hull(pts)
            h2 = compute_convex_hull(h.vertices)
            assert sorted(map(tuple, h2.vertices)) == sorted(map(tuple, h.vertices))

    def test_lattice_box_with_collinear_face_points(self):
        pts = box_cloud((0, 0, 0), (0.4, 0.2, 0.3), per_edge=4)
        h = compute_convex_hull(pts)
        v, e, f = euler_counts(h)
        assert v - e + f == 2
        assert hull_volume(h) == pytest.approx(0.4 * 0.2 * 0.3, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=50))
def test_hull_invariants_random(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(n, 3))
    h = compute_convex_hull(pts)
    # convexity: every source point on no face's positive side
    worst = (pts @ h.face_planes[:, :3].T + h.face_planes[:, 3]).max()
    assert worst <= 1e-9
    # unit outward normals
    assert np.allclose(np.linalg.norm(h.face_planes[:, :3], axis=1), 1.0, atol=1e-9)
    # closed orientable surface: every edge in exactly two faces, opposite senses
    de = directed_edge_multiset(h)
    assert len(set(de)) == len(de)
    seen = {}
    for a, b in de:
        seen[(min(a, b), max(a, b))] = seen.get((min(a, b), max(a, b)), 0) + 1
    assert set(seen.values()) == {2}
    v, e, f = euler_counts(h)
    assert v - e + f == 2
    # containment: all inputs interior or boundary
    regions = classify_points(h, pts, 1e-7)
    assert not np.any(regions == RegionClass.EXTERIOR)
    # aabb covers hull
    bb = compute_aabb(pts)
    assert np.all(h.vertices >= bb.min_corner - 1e-12)
    assert np.all(h.vertices <= bb.max_corner + 1e-12)


class TestClassifyPoint:
    def setup_method(self):
        self.hull = compute_convex_hull(CUBE)

    def test_interior(self):
        assert classify_points(self.hull, np.array([[0.5, 0.5, 0.5]]))[0] == RegionClass.INTERIOR

    def test_boundary(self):
        assert classify_points(self.hull, np.array([[1.0, 0.5, 0.5]]))[0] == RegionClass.BOUNDARY

    def test_exterior(self):
        assert classify_points(self.hull, np.array([[2.0, 2.0, 2.0]]))[0] == RegionClass.EXTERIOR

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            pts = rng.uniform(0, 1, size=(12, 3))
            h = compute_convex_hull(pts)
            for _ in range(20):
                p = rng.uniform(-0.2, 1.2, size=3)
                assert classify_points(h, p[None], 1e-7)[0] == brute_force_classify(h, p, 1e-7)


class TestAabb:
    def test_two_points(self):
        bb = compute_aabb(np.array([(0, 0, 0), (1, 2, 3)], dtype=float))
        assert np.allclose(bb.min_corner, (0, 0, 0))
        assert np.allclose(bb.max_corner, (1, 2, 3))

    def test_single_point(self):
        bb = compute_aabb(np.array([(0.3, -1, 2)]))
        assert np.allclose(bb.min_corner, bb.max_corner)

    def test_contains_every_point(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(100, 3))
        bb = compute_aabb(pts)
        assert bb.contains(pts).all()

    def test_empty_raises(self):
        with pytest.raises(EmptyCloud):
            compute_aabb(np.empty((0, 3)))

    def test_gap(self):
        a = Aabb(np.zeros(3), np.ones(3))
        b = Aabb(np.array([2.0, 0, 0]), np.array([3.0, 1, 1]))
        assert aabb_gap(a, b) == pytest.approx(1.0)
        assert aabb_gap(a, a) == 0.0


class TestRelationMatrix:
    def test_nested_cubes(self):
        inner = box_cloud((1, 1, 1), (2, 2, 2))
        outer = box_cloud((0, 0, 0), (3, 3, 3), center=False)
        hi = compute_convex_hull(inner)
        ho = compute_convex_hull(outer)
        m = relation_matrix(inner, hi, outer, ho)
        assert m.rows() == ((True, False, False), (False, False, True))

    def test_far_apart(self):
        a = box_cloud((0, 0, 0), (1, 1, 1))
        b = box_cloud((5, 0, 0), (6, 1, 1))
        ha, hb = compute_convex_hull(a), compute_convex_hull(b)
        m = relation_matrix(a, ha, b, hb)
        assert m.rows() == ((False, False, True), (False, False, True))

    def test_coincident_cubes_cross_pattern(self):
        a = box_cloud((0, 0, 0), (1, 1, 1), center=True)
        b = box_cloud((0, 0, 0), (1, 1, 1), center=True)
        ha, hb = compute_convex_hull(a), compute_convex_hull(b)
        m = relation_matrix(a, ha, b, hb)
        assert m.a_in_b0 and m.a0_has_b

    def test_transposition(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = box_cloud((0, 0, 0), rng.uniform(0.5, 1.5, 3))
            b = box_cloud(rng.uniform(-0.5, 0.5, 3), rng.uniform(0.8, 2.0, 3))
            ha, hb = compute_convex_hull(a), compute_convex_hull(b)
            m = relation_matrix(a, ha, b, hb)
            n = relation_matrix(b, hb, a, ha)
            assert m.rows()[0] == n.rows()[1]
            assert m.rows()[1] == n.rows()[0]


class TestTouch:
    def make(self, lo, hi):
        pts = box_cloud(lo, hi)
        return pts, compute_convex_hull(pts)

    def test_shared_face(self):
        a, ha = self.make((0, 0, 0), (1, 1, 1))
        b, hb = self.make((1, 0, 0), (2, 1, 1))
        assert touch(a, ha, b, hb, 5e-3)

    def test_gap(self):
        a, ha = self.make((0, 0, 0), (1, 1, 1))
        b, hb = self.make((1.5, 0, 0), (2.5, 1, 1))
        assert not touch(a, ha, b, hb, 5e-3)

    def test_interpenetration_is_not_touch(self):
        a, ha = self.make((0, 0, 0), (1, 1, 1))
        b, hb = self.make((0.8, 0, 0), (1.8, 1, 1))
        assert not touch(a, ha, b, hb, 5e-3)

    def test_within_tolerance_gap(self):
        a, ha = self.make((0, 0, 0), (1, 1, 1))
        b, hb = self.make((1.004, 0, 0), (2.0, 1, 1))
        assert touch(a, ha, b, hb, 5e-3)
        assert not touch(a, ha, b, hb, 1e-3)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, ha = self.make((0, 0, 0), (1, 1, 1))
            off = rng.uniform(0.8, 1.3)
            b, hb = self.make((off, 0, 0), (off + 1, 1, 1))
            assert touch(a, ha, b, hb, 5e-3) == touch(b, hb, a, ha, 5e-3)

    def test_dense_clouds_allocate_no_pair_matrix(self):
        # 4000 points a side: a point-pair distance matrix alone would be
        # 4000 x 4000 x 3 doubles, 384 MB
        rng = np.random.default_rng(5)

        def dense(lo, hi):
            corners = [[x, y, z] for x in (lo[0], hi[0])
                       for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
            pts = np.vstack([corners, rng.uniform(lo, hi, (3992, 3))])
            return pts, compute_convex_hull(pts)

        a, ha = dense((0, 0, 0), (1, 1, 1))
        b, hb = dense((1.001, 0, 0), (2, 1, 1))
        tracemalloc.start()
        try:
            hit = touch(a, ha, b, hb, 5e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hit
        assert peak < 64 * 2 ** 20


class TestGjk:
    def test_unit_gap(self):
        a = box_hull((0, 0, 0), (1, 1, 1))
        b = box_hull((2, 0, 0), (3, 1, 1))
        assert gjk_distance(a.vertices, b.vertices) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_corner_gap(self):
        a = box_hull((0, 0, 0), (1, 1, 1))
        b = box_hull((1.5, 1.5, 1.5), (2.5, 2.5, 2.5))
        assert gjk_distance(a.vertices, b.vertices) == pytest.approx(math.sqrt(0.75), abs=1e-9)

    def test_overlap_zero(self):
        a = box_hull((0, 0, 0), (1, 1, 1))
        b = box_hull((0.5, 0.5, 0.5), (1.5, 1.5, 1.5))
        assert gjk_distance(a.vertices, b.vertices) == 0.0

    def test_shared_face_zero(self):
        a = box_hull((0, 0, 0), (1, 1, 1))
        b = box_hull((1, 0, 0), (2, 1, 1))
        assert hull_surface_distance(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_point_to_box(self):
        a = box_hull((0, 0, 0), (1, 1, 1))
        p = np.array([[2.0, 0.5, 0.5]])
        assert gjk_distance(a.vertices, p) == pytest.approx(1.0, abs=1e-9)


def _point_segment(p, a, b):
    ab = b - a
    t = np.clip((p - a) @ ab / (ab @ ab), 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


def _point_triangle(p, a, b, c):
    """Minimum over the triangle: the plane projection when it falls
    inside, else the nearest of the three edges."""
    n = np.cross(b - a, c - a)
    n = n / np.linalg.norm(n)
    q = p - ((p - a) @ n) * n
    signs = [np.cross(v1 - v0, q - v0) @ n for v0, v1 in ((a, b), (b, c), (c, a))]
    edges = min(_point_segment(p, a, b), _point_segment(p, b, c), _point_segment(p, c, a))
    if all(s >= 0 for s in signs):
        return min(edges, abs(float((p - a) @ n)))
    return edges


def _segment_segment(p0, p1, q0, q1):
    """Minimum over the parameter square: its stationary point when inside,
    else an endpoint against the other segment."""
    best = min(_point_segment(p0, q0, q1), _point_segment(p1, q0, q1),
               _point_segment(q0, p0, p1), _point_segment(q1, p0, p1))
    d1, d2, r = p1 - p0, q1 - q0, p0 - q0
    m = np.array([[d1 @ d1, -(d1 @ d2)], [-(d1 @ d2), d2 @ d2]])
    if abs(np.linalg.det(m)) > 1e-12:
        s, t = np.linalg.solve(m, [-(d1 @ r), d2 @ r])
        if 0 < s < 1 and 0 < t < 1:
            best = min(best, float(np.linalg.norm(p0 + s * d1 - q0 - t * d2)))
    return best


def brute_force_hull_distance(ha, hb):
    """Surface-to-surface distance of two disjoint hulls: vertex-triangle
    both ways and edge-edge, over the triangulated surfaces."""
    def edges(h):
        return {tuple(sorted((int(i), int(j)))) for tri in h.faces
                for i, j in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))}

    best = math.inf
    for hp, ht in ((ha, hb), (hb, ha)):
        for p in hp.vertices:
            for tri in ht.faces:
                best = min(best, _point_triangle(p, *ht.vertices[tri]))
    for i, j in edges(ha):
        for k, m in edges(hb):
            best = min(best, _segment_segment(ha.vertices[i], ha.vertices[j],
                                              hb.vertices[k], hb.vertices[m]))
    return best


class TestGjkOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
    def test_against_brute_force(self, seed, overlap):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (rng.integers(4, 9), 3))
        b = rng.uniform(-1, 1, (rng.integers(4, 9), 3))
        if overlap:
            b = np.vstack([b, a.mean(axis=0)])   # a point inside a's hull
        else:
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            b += ((a @ n).max() - (b @ n).min() + rng.uniform(0.05, 1.0)) * n
        got = gjk_distance(a, b)
        diff = a[:, None, :] - b[None, :, :]
        assert got <= float(np.sqrt((diff ** 2).sum(axis=2)).min()) + 1e-9
        if overlap:
            assert got == pytest.approx(0.0, abs=1e-9)
        else:
            oracle = brute_force_hull_distance(compute_convex_hull(a), compute_convex_hull(b))
            assert got == pytest.approx(oracle, abs=1e-9)


class TestDegenerateFallback:
    def test_flat_sheet_gets_inflated_box(self):
        pts = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], dtype=float)
        h = hull_with_fallback(pts)
        assert h.degenerate
        box = h.aabb()
        ext = box.max_corner - box.min_corner
        assert ext[2] == pytest.approx(5e-3, abs=1e-12)
        assert ext[0] == pytest.approx(1.0, abs=1e-12)

    def test_regular_cloud_not_flagged(self):
        h = hull_with_fallback(CUBE)
        assert not h.degenerate

    def test_box_hull_rejects_flat_box(self):
        with pytest.raises(DegenerateCloud):
            box_hull((0, 0, 0), (1, 0, 1))
