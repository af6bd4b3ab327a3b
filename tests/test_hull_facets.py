"""Polygon facets of the hull wrap: the single-pass 2-D boundary loop of
one facet against a brute-force boundary, and the one plane row per facet
against a hull whose planes are expanded to one row per triangle."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from manipsem.geometry import (
    ConvexHull,
    _EPS_LINE,
    _chain_2d,
    box_hull,
    classify_points,
    compute_convex_hull,
    wall_contact_distance,
)
from conftest import box_cloud


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def brute_force_boundary(xy):
    """Indices of the points on the boundary of the convex polygon: a point
    is there when it lies on a line through two points that has no point
    strictly on its right."""
    on = set()
    for i, a in enumerate(xy):
        for j, b in enumerate(xy):
            if i == j:
                continue
            side = [_cross(a, b, p) for p in xy]
            if min(side) >= -_EPS_LINE:
                on.update(k for k, s in enumerate(side) if abs(s) <= _EPS_LINE)
    return on


@st.composite
def lattice_points(draw):
    """A subset of an integer lattice, scaled and shifted: rows of equal x,
    long collinear runs on edges, interior points."""
    cells = draw(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                         min_size=3, max_size=40))
    scale = draw(st.floats(0.01, 10.0))
    shift = draw(st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
    cells = draw(st.permutations(sorted(cells)))
    return [(shift[0] + i * scale, shift[1] + j * scale) for i, j in cells]


@st.composite
def triangle_points(draw):
    """A triangle with points spliced onto its edges and inside it."""
    unit = st.floats(-1.0, 1.0)
    corners = [np.array([draw(unit), draw(unit)]) for _ in range(3)]
    a, b, c = corners
    assume(abs(_cross(a, b, c)) > 1e-3)
    pts = [tuple(p) for p in corners]
    fractions = st.sampled_from([0.125, 0.25, 0.375, 0.5, 0.625, 0.75])
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.integers(0, 2))
        t = draw(fractions)
        p, q = corners[k], corners[(k + 1) % 3]
        pts.append(tuple(p + t * (q - p)))
    for _ in range(draw(st.integers(0, 5))):
        w = np.array([draw(st.floats(0.1, 1.0)) for _ in range(3)])
        w /= w.sum()
        pts.append(tuple(w[0] * a + w[1] * b + w[2] * c))
    return list(dict.fromkeys(pts))


# A tilted end column that straddles the snap distance (~6.7e-10 here) from
# the extreme, at either end of the sort: sorted up, its snapped points
# came before the unsnapped one below them, and the loop named a point twice.
TILTED_COLUMN = [(1e-9, 0.0), (0.0, 1.0), (0.5, 0.0), (6.25e-10, 0.375)]

# Point 3 lies within ~1e-202 of the extreme point 2, so within the
# collinearity tolerance of both edges at it: each chain took it, and the
# loop named it twice.
NEAR_REPEAT_OF_EXTREME = [(0, -1), (2.5e-14, -0.75), (1, 1.07e-202), (1, 0)]

# An end column whose x is one ulp below the extreme: a two-pass chain left
# point 0, a corner, off its loop.
ULP_BELOW_EXTREME = [(1 - 2**-53, 1), (0, 0), (1, 0), (1 - 2**-53, 0.625)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(lattice_points(), triangle_points()))
@example(TILTED_COLUMN)
@example([(-x, -y) for x, y in TILTED_COLUMN])
@example(NEAR_REPEAT_OF_EXTREME)
@example([(-x, -y) for x, y in NEAR_REPEAT_OF_EXTREME])
@example(ULP_BELOW_EXTREME)
@example([(-x, -y) for x, y in ULP_BELOW_EXTREME])
def test_chain_2d_equals_oracle_and_walks_the_boundary(xy):
    loop = _chain_2d(xy)
    if len(loop) >= 3:
        # the loop is then the whole brute-force boundary
        assert_walks_the_boundary(xy, loop)
    else:
        # a collinear set: its two ends alone
        assert all(abs(_cross(a, b, c)) <= _EPS_LINE for a, b, c in itertools.combinations(xy, 3))
        assert {xy[i] for i in loop} == {min(xy), max(xy)}


def assert_walks_the_boundary(xy, loop):
    """``loop`` visits each point of the polygon's boundary once, CCW, from
    the lexicographically smallest."""
    assert len(set(loop)) == len(loop)
    assert xy[loop[0]] == min(xy[i] for i in loop)
    assert set(loop) == brute_force_boundary(xy)
    for k, i in enumerate(loop):
        j = loop[(k + 1) % len(loop)]
        assert min(_cross(xy[i], xy[j], p) for p in xy) >= -_EPS_LINE


@st.composite
def column_lattices(draw):
    """Lattice points with whole columns at both ends of the x order, so
    collinear runs sit at the start and end of the sort, repeated x values
    inside, some points repeated exactly, and each point moved off its row
    by up to a tenth of the collinearity tolerance."""
    cols = draw(st.integers(2, 6))
    rows = draw(st.integers(2, 6))
    cells = {(0, j) for j in range(rows)} | {(cols, j) for j in range(rows)}
    cells |= draw(st.sets(st.tuples(st.integers(1, cols - 1), st.integers(0, rows - 1)),
                          max_size=20))
    scale = draw(st.floats(0.01, 10.0))
    shift = draw(st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
    cells = draw(st.permutations(sorted(cells)))
    extent = scale * (cols + rows)
    nudge = st.floats(-0.1, 0.1).map(lambda f: f * _EPS_LINE / extent)
    pts = [(shift[0] + i * scale, shift[1] + j * scale + draw(nudge)) for i, j in cells]
    repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=4))
    return pts + [pts[k] for k in repeats]


@settings(max_examples=300, deadline=None)
@given(column_lattices())
def test_chain_2d_end_columns_repeats_and_near_edge_points(xy):
    loop = _chain_2d(xy)
    distinct = list(dict.fromkeys(xy))
    assert_walks_the_boundary(distinct, [distinct.index(xy[i]) for i in loop])


@settings(max_examples=300, deadline=None)
@given(st.one_of(lattice_points(), column_lattices()), st.floats(0.0, 6.3))
def test_chain_2d_columns_a_few_ulps_apart(xy, angle):
    """Points rotated and rotated back, as a facet chart computes them: a
    column's x values differ in the last bits and sort in any y order."""
    turn = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    coords = (np.array(list(dict.fromkeys(xy))) @ turn) @ turn.T
    pts = [tuple(p) for p in coords.tolist()]
    loop = _chain_2d(pts)
    if len(loop) >= 3:
        assert_walks_the_boundary(pts, loop)


def expanded(hull):
    """The same hull with one plane row per triangle: the row whose plane
    holds the triangle's three vertices."""
    rows = [row_of_triangle(hull, tri) for tri in hull.faces]
    return ConvexHull(hull.vertices, hull.vertex_indices, hull.faces,
                      hull.face_planes[rows], hull.degenerate)


def row_of_triangle(hull, tri):
    dist = hull.vertices[tri] @ hull.face_planes[:, :3].T + hull.face_planes[:, 3]
    rows = np.flatnonzero(np.all(np.abs(dist) <= 1e-12, axis=0))
    assert len(rows) == 1
    return int(rows[0])


def assert_facet_planes(hull, cloud, rng):
    planes = hull.face_planes
    assert len({tuple(r) for r in planes.tolist()}) == len(planes)
    full = expanded(hull)
    lo, hi = cloud.min(axis=0), cloud.max(axis=0)
    probes = np.vstack([cloud, rng.uniform(lo - 0.2, hi + 0.2, size=(200, 3))])
    for tol in (1e-7, 5e-3):
        assert np.array_equal(classify_points(hull, probes, tol),
                              classify_points(full, probes, tol))
    inner = (cloud - cloud.mean(axis=0)) * 0.5 + cloud.mean(axis=0)
    for pts in (cloud, inner, probes):
        assert wall_contact_distance(pts, hull) == wall_contact_distance(pts, full)


@pytest.mark.parametrize("per_edge", [2, 3, 4, 5, 6])
def test_box_lattice_has_one_plane_per_side(per_edge):
    cloud = box_cloud((0.1, 0.0, -0.2), (0.5, 0.3, 0.1), per_edge=per_edge)
    hull = compute_convex_hull(cloud)
    assert hull.face_planes.shape == (6, 4)
    assert_facet_planes(hull, cloud, np.random.default_rng(per_edge))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=50))
def test_random_cloud_facet_planes_match_triangle_planes(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(n, 3))
    assert_facet_planes(compute_convex_hull(pts), pts, rng)


def test_box_hull_has_one_plane_per_side():
    hull = box_hull((0.1, 0.0, -0.2), (0.5, 0.3, 0.1))
    assert hull.face_planes.shape == (6, 4)
    assert_facet_planes(hull, hull.vertices, np.random.default_rng(0))
