"""The hull wrap against brute force: the planes through three points of
the cloud with no point beyond them are its facets, and the boundary of
each facet's points (``brute_force_boundary``) its vertices.  A wrapped
hull has one plane row per facet, each a facet, its vertices are the
facet boundaries' points, named by their first index in the cloud, and its
triangles close an outward surface over those facets.  An empty cloud
raises EmptyCloud, one without a volume DegenerateCloud.  Where the cloud
lies within a few ``_EPS_PLANE`` of a plane, or its facets are undecided at
that tolerance (a point off a near-supporting plane by about that much),
the wrap may refuse it with a GeometryError, and a hull it does wrap is
checked only for supporting rows and a closed outward surface."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manipsem.geometry import (
    _EPS_PLANE,
    EmptyCloud,
    GeometryError,
    compute_convex_hull,
)
from manipsem.synth import box_shell_cloud
from test_hull_facets import brute_force_boundary

SIZE = (0.2, 0.3, 0.15)
# rows and planes this close are taken for the same facet: a facet's
# points lie within _EPS_PLANE of its plane, so planes through different
# triples of them differ by about that much over the cloud's extent
SAME_PLANE = 1e-6


def facet_planes(pts):
    """Brute force over the planes through three points of ``pts``: the
    outward (unit normal, offset) rows of those with no point more than
    ``_EPS_PLANE`` beyond them and points on them (within ``_EPS_PLANE``)
    spanning an area; the cloud's thickness, its least extent along their
    normals (0 if it is collinear); and whether its facets are undecided at
    that tolerance: a plane with no point 100 times further beyond it has
    a point off it by between a hundredth of it and 100 times it."""
    triples = np.array(list(itertools.combinations(range(len(pts)), 3)), dtype=np.intp)
    triples = triples.reshape(-1, 3)
    found, thickness, undecided = [np.empty((0, 4))], 0.0, False
    for i, j, k in (t.T for t in np.array_split(triples, len(triples) // 20000 + 1)):
        nrm = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = np.linalg.norm(nrm, axis=1)
        keep = norm > 1e-15
        nrm = nrm[keep] / norm[keep, None]
        rows = np.hstack([nrm, -np.einsum("ij,ij->i", pts[i[keep]], nrm)[:, None]])
        if not len(rows):
            continue
        off = pts @ rows[:, :3].T + rows[:, 3]
        lo, hi = off.min(axis=0), off.max(axis=0)
        extent = float((hi - lo).min())
        thickness = extent if len(found) == 1 else min(thickness, extent)
        found += [rows[hi <= _EPS_PLANE], -rows[lo >= -_EPS_PLANE]]
        near = (hi <= 100 * _EPS_PLANE) | (lo >= -100 * _EPS_PLANE)
        band = (np.abs(off) > _EPS_PLANE / 100) & (np.abs(off) <= 100 * _EPS_PLANE)
        undecided |= bool((band & near).any())
    planes = []
    for row in np.unique(np.round(np.vstack(found), 10), axis=0):
        on = pts[np.abs(pts @ row[:3] + row[3]) <= _EPS_PLANE]
        if np.linalg.svd(on - on.mean(axis=0), compute_uv=False)[1] > 1e-9:
            planes.append(row)
    return np.array(planes).reshape(-1, 4), thickness, undecided


def boundary_points(pts, plane):
    """Indices of the points on the boundary of the facet in ``plane``."""
    n = np.asarray(plane[:3])
    on = np.flatnonzero(np.abs(pts @ n + plane[3]) <= _EPS_PLANE)
    u = np.cross(n, np.eye(3)[np.argmin(np.abs(n))])
    u /= np.linalg.norm(u)
    chart = pts[on] @ np.stack([u, np.cross(n, u)]).T
    return {int(on[k]) for k in brute_force_boundary([tuple(c) for c in chart.tolist()])}


def assert_wraps_the_hull(pts_in):
    # distinct by value: -0.0 is 0.0
    distinct = np.array(sorted(set(map(tuple, pts_in.tolist())))).reshape(-1, 3)
    planes, thickness, undecided = facet_planes(distinct)
    try:
        hull = compute_convex_hull(pts_in)
        faces = hull.faces
    except EmptyCloud:
        assert len(pts_in) == 0
        return
    except GeometryError:
        # DegenerateCloud, or a facet refused at the plane tolerance
        assert len(distinct) < 4 or thickness <= 10 * _EPS_PLANE or undecided, thickness
        return
    assert len(distinct) >= 4 and thickness > _EPS_PLANE, thickness
    rows, verts = hull.face_planes, hull.vertices
    # vertices: points of the cloud, each named by its first index
    assert verts.tobytes() == pts_in[hull.vertex_indices].tobytes()
    for v, idx in zip(verts, hull.vertex_indices):
        assert not np.all(pts_in[:idx] == v, axis=1).any()
    # supporting rows, one per facet, each a facet; vertices on the facets'
    # boundaries, all of them where the facets are decided
    assert np.allclose(np.linalg.norm(rows[:, :3], axis=1), 1.0, atol=1e-12)
    assert (pts_in @ rows[:, :3].T + rows[:, 3]).max() <= _EPS_PLANE
    if not undecided:
        assert len({tuple(r) for r in rows.tolist()}) == len(rows)
        close = np.abs(planes[:, None] - rows[None]).max(axis=2) <= SAME_PLANE
        assert close.any(axis=1).all() and close.any(axis=0).all()
        want = set()
        for row in rows:
            want |= {tuple(distinct[k]) for k in boundary_points(distinct, row)}
        assert {tuple(v) for v in verts.tolist()} == want
    # the triangles: each in a facet and turned outward, every edge
    # crossed both ways, once each where the facets are decided
    for tri in faces:
        a, b, c = verts[tri]
        row = rows[np.abs(verts[tri] @ rows[:, :3].T + rows[:, 3]).max(axis=0).argmin()]
        assert np.abs(verts[tri] @ row[:3] + row[3]).max() <= _EPS_PLANE
        assert np.cross(b - a, c - a) @ row[:3] > 0
    edges = [(int(p), int(q)) for tri in faces for p, q in zip(tri, np.roll(tri, -1))]
    assert {(q, p) for p, q in edges} == set(edges)
    assert undecided or len(set(edges)) == len(edges)
    assert {int(v) for v in faces.ravel()} == set(range(len(verts)))



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
    assert_wraps_the_hull(pts)


@pytest.mark.parametrize("per_edge", [2, 3, 4, 5])
@pytest.mark.parametrize("open_top", [False, True])
@pytest.mark.parametrize("solid", [False, True])
def test_box_lattices(per_edge, open_top, solid):
    cloud = box_shell_cloud(SIZE, per_edge, open_top, solid)
    for shift in ((0.0, 0.0, 0.0), (0.31, 0.72, -0.2), (-1.5, 0.05, 2.25)):
        assert_wraps_the_hull(cloud + shift)


@pytest.mark.parametrize("seed", range(12))
def test_noisy_lattices(seed):
    rng = np.random.default_rng(seed)
    cloud = box_shell_cloud(SIZE, 2 + seed % 4, open_top=seed % 2 == 1)
    assert_wraps_the_hull(cloud + rng.normal(0.0, 0.01, cloud.shape) + (0.4, 0.8, 0.1))


def test_duplicates_and_negative_zero():
    cube = box_shell_cloud((2.0, 2.0, 2.0), 2, solid=False) + 1.0
    signed = np.where(cube == 0.0, -0.0, cube)
    assert_wraps_the_hull(np.vstack([signed, cube, signed[::-1]]))
    assert_wraps_the_hull(np.vstack([cube, signed, cube[:3]]))
    centered = box_shell_cloud((2.0, 2.0, 2.0), 3)
    flipped = np.where(centered == 0.0, -0.0, centered)
    assert_wraps_the_hull(np.vstack([flipped, centered, flipped]))
    assert_wraps_the_hull(np.repeat(centered[:4] + (0.0, 0.0, 1.0), 3, axis=0))


@pytest.mark.parametrize("lift", [0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 1e-6])
def test_near_coplanar_clouds(lift):
    rng = np.random.default_rng(7)
    sheet = np.array([[x, 0.0, z] for x in np.linspace(0, 1, 4) for z in np.linspace(0, 1, 4)])
    bumped = sheet.copy()
    bumped[5, 1] += lift
    assert_wraps_the_hull(bumped)
    bumped[10, 1] -= lift
    assert_wraps_the_hull(bumped)
    wobbly = sheet + rng.uniform(-lift, lift, size=sheet.shape) * np.array([0, 1, 0])
    assert_wraps_the_hull(np.vstack([wobbly, [[0.5, 0.3, 0.5]]]))


@pytest.mark.parametrize("edge", [1e-3, 1.0])
@pytest.mark.parametrize("offset", [2e-12, 5e-10, 1.5e-9, 2.5e-9, 1e-8])
def test_thin_triangle_facets(edge, offset):
    """A bottom facet of three points, the middle one ``offset`` off the
    line of the other two: a sliver too thin for the orientation sign goes
    through the 2-D chain, which refuses it when its doubled area is below
    the chain's tolerance."""
    pts = np.array([[0, 0, 0], [edge, 0, 0], [edge / 2, offset, 0],
                    [0.3, 0.3, 1.0], [0.6, -0.4, 0.8]])
    if edge * offset < 1e-9 and offset > 1e-9:
        with pytest.raises(GeometryError, match="degenerate face polygon"):
            compute_convex_hull(pts)
    else:
        assert_wraps_the_hull(pts)


@pytest.mark.parametrize("pts", [
    np.zeros((0, 3)),
    np.zeros((3, 3)),
    np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float),
    np.array([[t, 2 * t, -t] for t in range(6)], dtype=float),
    np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]] * 2, dtype=float),
], ids=["empty", "one_point", "square", "line", "doubled_tetrahedron"])
def test_degenerate_and_small_inputs(pts):
    assert_wraps_the_hull(pts)
