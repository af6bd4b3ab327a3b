"""The hull wrap against a frozen copy of the wrap it replaced
(``hull_wrap_frozen.py``): same vertices, vertex indices and triangles,
the same plane rows to 1e-12, the same point classes and GJK distances,
and the same exception on degenerate input."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manipsem.geometry import (
    GeometryError,
    classify_points,
    compute_convex_hull,
    gjk_distance,
)
from manipsem.synth import box_shell_cloud
from hull_wrap_frozen import frozen_convex_hull

SIZE = (0.2, 0.3, 0.15)


def outcome(wrap, pts):
    """The hull with its triangles read, or the type of what the wrap raised
    (the frozen wrap triangulated while wrapping)."""
    try:
        hull = wrap(pts)
        hull.faces
        return hull
    except Exception as exc:     # noqa: BLE001 - the type is compared
        return type(exc)


def assert_same_hull(pts, rng=None):
    want = outcome(frozen_convex_hull, pts)
    got = outcome(compute_convex_hull, pts)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.vertex_indices, want.vertex_indices)
    assert np.array_equal(got.faces, want.faces)
    assert got.face_planes.shape == want.face_planes.shape
    assert np.abs(got.face_planes - want.face_planes).max() <= 1e-12
    rng = rng or np.random.default_rng(0)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    probes = np.vstack([pts, rng.uniform(lo - 0.1, hi + 0.1, size=(100, 3))])
    for tol in (1e-7, 5e-3):
        assert np.array_equal(classify_points(got, probes, tol),
                              classify_points(want, probes, tol))
    other = rng.uniform(-0.5, 0.5, size=(12, 3)) + (hi - lo)
    assert gjk_distance(got.vertices, other) == gjk_distance(want.vertices, other)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=4, max_value=60),
       st.sampled_from([0.0, 0.25, 0.1]))
def test_random_clouds(seed, n, grid):
    """Uniform clouds; a grid step snaps them so that facets hold coplanar
    and collinear points and points repeat."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(n, 3))
    if grid:
        pts = np.round(pts / grid) * grid
    assert_same_hull(pts, rng)


@pytest.mark.parametrize("per_edge", [2, 3, 4, 5])
@pytest.mark.parametrize("open_top", [False, True])
@pytest.mark.parametrize("solid", [False, True])
def test_box_lattices(per_edge, open_top, solid):
    cloud = box_shell_cloud(SIZE, per_edge, open_top, solid)
    for shift in ((0.0, 0.0, 0.0), (0.31, 0.72, -0.2), (-1.5, 0.05, 2.25)):
        assert_same_hull(cloud + shift)


@pytest.mark.parametrize("seed", range(12))
def test_noisy_lattices(seed):
    rng = np.random.default_rng(seed)
    cloud = box_shell_cloud(SIZE, 2 + seed % 4, open_top=seed % 2 == 1)
    assert_same_hull(cloud + rng.normal(0.0, 0.01, cloud.shape) + (0.4, 0.8, 0.1), rng)


def test_duplicates_and_negative_zero():
    cube = box_shell_cloud((2.0, 2.0, 2.0), 2, solid=False) + 1.0
    signed = np.where(cube == 0.0, -0.0, cube)
    assert_same_hull(np.vstack([signed, cube, signed[::-1]]))
    assert_same_hull(np.vstack([cube, signed, cube[:3]]))
    centered = box_shell_cloud((2.0, 2.0, 2.0), 3)
    flipped = np.where(centered == 0.0, -0.0, centered)
    assert_same_hull(np.vstack([flipped, centered, flipped]))
    assert_same_hull(np.repeat(centered[:4] + (0.0, 0.0, 1.0), 3, axis=0))


@pytest.mark.parametrize("lift", [0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 1e-6])
def test_near_coplanar_clouds(lift):
    rng = np.random.default_rng(7)
    sheet = np.array([[x, 0.0, z] for x in np.linspace(0, 1, 4) for z in np.linspace(0, 1, 4)])
    bumped = sheet.copy()
    bumped[5, 1] += lift
    assert_same_hull(bumped, rng)
    bumped[10, 1] -= lift
    assert_same_hull(bumped, rng)
    wobbly = sheet + rng.uniform(-lift, lift, size=sheet.shape) * np.array([0, 1, 0])
    assert_same_hull(np.vstack([wobbly, [[0.5, 0.3, 0.5]]]), rng)


@pytest.mark.parametrize("edge", [1e-3, 1.0])
@pytest.mark.parametrize("offset", [2e-12, 5e-10, 1.5e-9, 2.5e-9, 1e-8])
def test_thin_triangle_facets(edge, offset):
    """A bottom facet of three points, the middle one ``offset`` off the
    line of the other two: a sliver too thin for the orientation sign goes
    through the 2-D chain, which refuses it when its doubled area is below
    the chain's tolerance."""
    pts = np.array([[0, 0, 0], [edge, 0, 0], [edge / 2, offset, 0],
                    [0.3, 0.3, 1.0], [0.6, -0.4, 0.8]])
    assert_same_hull(pts)
    if edge * offset < 1e-9 and offset > 1e-9:
        with pytest.raises(GeometryError, match="degenerate face polygon"):
            compute_convex_hull(pts)


@pytest.mark.parametrize("pts", [
    np.zeros((0, 3)),
    np.zeros((3, 3)),
    np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float),
    np.array([[t, 2 * t, -t] for t in range(6)], dtype=float),
    np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]] * 2, dtype=float),
], ids=["empty", "one_point", "square", "line", "doubled_tetrahedron"])
def test_degenerate_and_small_inputs(pts):
    assert_same_hull(pts)
