"""Convex-hull geometry: hull construction, point classification, the
six-part intersection matrix between two objects, and touch detection.

Conventions used throughout:
  * clouds are (N, 3) float64 arrays of finite coordinates in meters, y is
    the vertical axis.  Every function here takes them as given: the trace
    loader checks each cloud once, with :func:`as_cloud`, and synthetic
    traces are built as such arrays, so nothing here checks one again;
  * face planes satisfy a*x + b*y + c*z + d = 0 with the unit normal
    (a, b, c) pointing outward, so every hull vertex has signed distance <= 0;
  * a point is Interior when it is strictly inside every face plane,
    Boundary when it sits within the tolerance band of some plane and
    outside none, Exterior otherwise.

Hulls are built with a gift-wrapping sweep: faces are discovered one
supporting plane at a time by rotating around exposed boundary edges, each
step reading the cloud relative to the edge's first point.  Coplanar point
sets are gathered into a single polygon facet (boxes are everywhere in this
domain) with one plane row; a facet of three points takes its loop from one
orientation sign, a larger one from a 2-D chain.  The wrap keeps each
facet's boundary loop, and the closed, consistently oriented triangle
surface that volume, Euler and edge checks read is built from the loops on
the first read of ``ConvexHull.faces``: the pipeline reads only vertices,
planes and boxes.

Each of the pipeline's hulls is built from its own cloud on first read
(``ConvexHull.deferred``), and the contact test and the relation matrix
read a hull only where its box and its cloud cannot decide: a point can
lie deeper than the tolerance inside a hull only if it lies that deep
inside a box holding the hull, and GJK over two clouds gives the distance
between their convex hulls.  Surface contact without interpenetration,
such as a hand on an object or one object resting on another, builds no
hull; a point deep in the other object's box (containment, crossing)
reads that object's planes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .config import GeometryConfig

DEFAULT_GEOMETRY = GeometryConfig()

# Plane-side tolerance used internally while wrapping; matches the hull
# invariant tolerance rather than any user-facing knob.
_EPS_PLANE = 1e-9
_EPS_LINE = 1e-9


class GeometryError(Exception):
    pass


class EmptyCloud(GeometryError):
    """Raised when an operation needs at least one point."""


class DegenerateCloud(GeometryError):
    """Cloud has fewer than four points or is coplanar/collinear.

    Callers that must produce some volume anyway should fall back to
    :func:`hull_with_fallback`, which inflates the bounding box.
    """


class RegionClass(IntEnum):
    INTERIOR = 0
    BOUNDARY = 1
    EXTERIOR = 2


@dataclass(frozen=True)
class Aabb:
    min_corner: np.ndarray
    max_corner: np.ndarray

    def contains(self, pts: np.ndarray, tol: float = 0.0) -> np.ndarray:
        return np.all((pts >= self.min_corner - tol) & (pts <= self.max_corner + tol), axis=-1)

    @cached_property
    def corners(self) -> tuple[list[float], list[float]]:
        """(min corner, max corner) as Python floats, for the few comparisons
        made on one box, where numpy's per-call overhead would dominate."""
        return self.min_corner.tolist(), self.max_corner.tolist()

    def center(self) -> np.ndarray:
        return (self.max_corner + self.min_corner) / 2.0


def _built(slot: str) -> property:
    """A hull attribute read from ``slot`` after the hull is built."""
    def read(hull):
        if hull._source is not None:
            hull._build()
        return getattr(hull, slot)
    return property(read)


class ConvexHull:
    """Boundary surface of a point cloud.

    vertices        (V, 3) coordinates of hull vertices (a subset of the input cloud)
    vertex_indices  (V,) index of each vertex in the original input sequence
    faces           (F, 3) triangles as indices into ``vertices``, outward CCW;
                    a wrapped hull keeps each facet's boundary loop and builds
                    the triangles from the loops on first read
    face_planes     (P, 4) rows (a, b, c, d), unit outward normals, one row
                    per polygon facet (a box has 6 rows and 12 triangles)
    degenerate      True when this hull is an inflated-box stand-in for a flat cloud

    A hull made by :meth:`deferred` is built on the first read of one of
    these, and a build error surfaces there.  Until then ``box`` bounds it
    and :meth:`flat` says whether it will be its cloud's convex hull, which
    is what the contact and pattern tests read first.
    """

    __slots__ = ("_vertices", "_vertex_indices", "_face_planes", "_degenerate",
                 "_faces", "_facets", "_source", "_box", "_own", "_flat")

    def __init__(self, vertices: np.ndarray, vertex_indices: np.ndarray,
                 faces: np.ndarray | None, face_planes: np.ndarray,
                 degenerate: bool = False):
        self._vertices = vertices
        self._vertex_indices = vertex_indices
        self._face_planes = face_planes
        self._degenerate = degenerate
        self._faces = faces
        # (loops, loop ends, polygon flags, charts), see compute_convex_hull
        self._facets = None
        # until built: the build, its box and whether its cloud is flat
        self._source = None
        self._box = None
        self._flat = None
        # (cloud, the cloud's box) of a deferred hull, kept once it is built
        self._own = None

    @classmethod
    def deferred(cls, pts: np.ndarray, box: Aabb, cfg: GeometryConfig, build) -> "ConvexHull":
        """The hull of the cloud ``pts``, whose box is ``box``, built on first
        read by ``build()``.  Its ``box`` until then is ``box`` padded on its
        flat axes, which the interior and exterior tests and the cloud GJK of
        ``touch`` take to hold the hull and to span it; so ``build()`` must
        return ``hull_with_fallback(pts, cfg)`` or another hull of the same
        points (a ground box whose corners are ``pts``)."""
        hull = cls(None, None, None, None)
        hull._source, hull._own = build, (pts, box)
        hull._box = _padded(box, cfg)
        return hull

    @property
    def built(self) -> bool:
        return self._source is None

    vertices = _built("_vertices")
    vertex_indices = _built("_vertex_indices")
    face_planes = _built("_face_planes")
    degenerate = _built("_degenerate")

    @property
    def faces(self) -> np.ndarray:
        if self._source is not None:
            self._build()
        if self._faces is None:
            self._faces = _triangulate_facets(*self._facets)
        return self._faces

    @property
    def box(self) -> Aabb:
        """A box holding the hull: its own once built, read without a build."""
        if self._box is None:
            self._box = self.aabb()
        return self._box

    def flat(self) -> bool:
        """``degenerate``, read without a build: whether the hull is a flat
        cloud's padded box rather than its cloud's convex hull."""
        if self._source is None:
            return self._degenerate
        if self._flat is None:
            self._flat = not _spans_volume(self._own[0])
        return self._flat

    def _build(self):
        other = self._source()
        self._vertices, self._vertex_indices = other._vertices, other._vertex_indices
        self._face_planes, self._degenerate = other._face_planes, other._degenerate
        self._faces, self._facets = other._faces, other._facets
        self._source = self._box = None

    def aabb(self) -> Aabb:
        return Aabb(self.vertices.min(axis=0), self.vertices.max(axis=0))


def as_cloud(points) -> np.ndarray:
    """Coerce a point sequence to an (N, 3) float array, checking finiteness:
    the trace loader's one check of a cloud."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    return pts


def compute_aabb(pts: np.ndarray) -> Aabb:
    if pts.shape[0] == 0:
        raise EmptyCloud("cannot build a bounding box from zero points")
    return Aabb(pts.min(axis=0), pts.max(axis=0))


def aabb_gap(a: Aabb, b: Aabb) -> float:
    """Euclidean separation between two boxes (0 when they overlap).

    The per-axis gaps are taken on the boxes' float corners.  Their squares
    are summed by numpy's dot, as ``np.linalg.norm`` sums them: a sum in
    Python rounds differently."""
    (a_lo, a_hi), (b_lo, b_hi) = a.corners, b.corners
    gaps = [max(l1 - h2, l2 - h1, 0.0) for l1, h1, l2, h2 in zip(a_lo, a_hi, b_lo, b_hi)]
    g = max(gaps)
    if g == 0.0:
        return 0.0
    v = np.array(gaps)
    return math.sqrt(v.dot(v))


# Float-tuple 3-vectors: the wrap's per-facet vectors and the GJK simplex are
# a handful of (x, y, z) tuples, where numpy's per-call overhead would
# dominate the arithmetic.

def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _along(a, t, d):
    """a + t * d."""
    return (a[0] + t * d[0], a[1] + t * d[1], a[2] + t * d[2])


def _unit(a):
    s = math.sqrt(_dot(a, a))
    return (a[0] / s, a[1] / s, a[2] / s)


def _toward(n, hint):
    """``n`` or ``-n``, whichever is on the side of ``hint``."""
    return n if _dot(n, hint) >= 0 else (-n[0], -n[1], -n[2])


def _pivot(rel, v, u):
    """Rotate a half-plane hinged on a line through the origin and return
    the index of the point it meets first, or None if no candidate exists.

    ``rel`` holds the cloud relative to a point of the line.  ``v`` is the
    outward normal of the supporting plane we rotate away from, ``u`` points
    away from that plane's side, both orthogonal to the line, so a point's
    offset from the line is ``(rel . u, rel . v)``.  A point within
    ``_EPS_LINE`` of the line has both within ``_EPS_PLANE`` and so lies in
    the excluded quadrant.
    """
    wu = rel @ u
    wv = rel @ v
    theta = np.arctan2(wv, wu)
    theta[(wv >= -_EPS_PLANE) & (wu <= _EPS_PLANE)] = -np.inf
    k = int(theta.argmax())
    return None if theta[k] == -np.inf else k


def _perp1(vec, e):
    """Component of ``vec`` orthogonal to the unit vector ``e``."""
    return _along(vec, -_dot(vec, e), e)


def _offsets(rows, ids, anchor):
    """The rows ``ids`` relative to ``anchor``, as float tuples."""
    ax, ay, az = anchor
    return [(x - ax, y - ay, z - az) for x, y, z in (rows[k] for k in ids)]


def _longest(vecs):
    """The first of the 3-vectors ``vecs`` with the largest squared length."""
    lengths = [x * x + y * y + z * z for x, y, z in vecs]
    return vecs[lengths.index(max(lengths))]


def _chain_2d(xy):
    """CCW boundary loop of the 2D points ``xy`` (a list of (x, y) pairs),
    including collinear boundary points, from the lexicographically
    smallest point.

    One monotone chain each way over the points sorted by (x, y) gives the
    strict corners: a point is popped unless it makes a left turn of more
    than ``_EPS_LINE``.  A point popped as collinear lies on the edge into
    the point that popped it and rides with that point, after the points
    already riding on it; a point popped as a strict right turn is dropped
    with its riders, which lay on an edge that is not on the boundary.  So
    each edge's collinear points come in sort order, which runs along the
    edge, and no second pass is needed.

    Runs of equal x sit at the two ends of the sort order only (a convex
    polygon's vertical edges are its extremes), and there the sort must
    run along the column: the first chain's start column is popped by the
    first point to its right and comes back riding on the start at the end
    of the other chain, and the end column likewise.  Coordinates computed
    in a facet's chart put such a column's x a few ulps apart, so x within
    ``_EPS_LINE / extent`` of either extreme counts as the extreme: the
    turns that distance can change are within the collinearity tolerance.
    A column runs up, unless its top point's x is less than its bottom
    point's: it then runs down, so that a tilted edge whose further points
    lie past that distance stays in x order.
    A point repeated exactly, or within the tolerance of an extreme, is
    taken once.  Fewer than three corners (a
    collinear set) are returned alone.  Facets hold a handful of points,
    so this runs on Python floats, where numpy's per-element overhead would
    dominate.
    """
    if not xy:
        return []
    xs = [p[0] for p in xy]
    ys = [p[1] for p in xy]
    lo, hi = min(xs), max(xs)
    tol = _EPS_LINE / ((hi - lo) + (max(ys) - min(ys)) or 1.0)
    # (sort x, y, index, x); the index breaks ties as a stable sort would
    pts = sorted([(lo if x - lo <= tol else hi if hi - x <= tol else x, y, k, x)
                  for k, (x, y) in enumerate(xy)])
    pts = [p for j, p in enumerate(pts)
           if not j or p[1] != pts[j - 1][1] or p[3] != pts[j - 1][3]]
    # an end column whose x falls as y rises runs down instead
    m = bisect_right(pts, (lo, math.inf))
    if m > 1 and pts[m - 1][3] < pts[0][3]:
        pts[:m] = pts[:m][::-1]
    m = bisect_left(pts, (hi, -math.inf))
    if len(pts) - m > 1 and pts[-1][3] < pts[m][3]:
        pts[m:] = pts[m:][::-1]

    def build(seq):
        chain, riding = [], []     # points, and per point those on the edge into it
        for p in seq:
            _, by, _, bx = p
            riders = None
            while len(chain) > 1:
                _, oy, _, ox = chain[-2]
                _, ay, a, ax = chain[-1]
                turn = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
                if turn > _EPS_LINE:
                    break
                chain.pop()
                a_riders = riding.pop()
                # a right turn takes the edges the riders lay on off the boundary
                if turn >= -_EPS_LINE:
                    riders = (a_riders or []) + [a] + (riders or [])
                else:
                    riders = None
            chain.append(p)
            riding.append(riders)
        return chain, riding

    lower, lower_riding = build(pts)
    upper, upper_riding = build(pts[::-1])
    if len(lower) + len(upper) < 5:
        return [p[2] for p in lower[:-1] + upper[:-1]]
    # A near repeat of an extreme lies within the collinearity tolerance of
    # both edges at it, so it rides into it at the end of one chain and out
    # of it on the other chain's first edge; it is kept on the edge out.
    for into, out in ((lower_riding, upper_riding), (upper_riding, lower_riding)):
        if into[-1] and out[1]:
            into[-1] = [k for k in into[-1] if k not in out[1]]
    loop = [pts[0][2]]
    for p, riders in zip(lower[1:] + upper[1:], lower_riding[1:] + upper_riding[1:]):
        if riders:
            loop.extend(riders)
        loop.append(p[2])
    loop.pop()       # the start again, closing the loop
    first = loop.index(min(loop, key=xy.__getitem__))
    return loop[first:] + loop[:first]


def _triangulate_convex_loop(loop, flat):
    """Triangulate a convex CCW loop that may carry collinear boundary points.

    Fan the polygon of strict corners first (always positive area), then
    split each fan triangle whose boundary edge is subdivided by collinear
    points into a sub-fan from the opposite vertex.  Keeps every triangle
    at positive area and every boundary segment on exactly one triangle.
    """
    n = len(loop)

    def turn(a, b, c):
        pa, pb, pc = flat[a], flat[b], flat[c]
        return (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])

    strict = [i for i in range(n)
              if turn(loop[i - 1], loop[i], loop[(i + 1) % n]) > _EPS_LINE]
    if len(strict) < 3:
        raise GeometryError("face polygon has no area")
    corners = [loop[i] for i in strict]
    tris = [[corners[0], corners[k], corners[k + 1]]
            for k in range(1, len(corners) - 1)]
    for c_idx in range(len(strict)):
        i0 = strict[c_idx]
        i1 = strict[(c_idx + 1) % len(strict)]
        chain = []
        j = (i0 + 1) % n
        while j != i1:
            chain.append(loop[j])
            j = (j + 1) % n
        if not chain:
            continue
        b, c = loop[i0], loop[i1]
        for t_idx, tri in enumerate(tris):
            if b in tri and c in tri:
                apex = next(v for v in tri if v != b and v != c)
                run = [b] + chain + [c]
                tris[t_idx:t_idx + 1] = [[apex, run[k], run[k + 1]]
                                         for k in range(len(run) - 1)]
                break
        else:
            raise GeometryError("boundary chain lost during triangulation")
    return [tuple(t) for t in tris]


def _triangulate_facets(loops, bounds, polygon, charts) -> np.ndarray:
    """Triangles of a wrapped hull's stored facet loops (see
    :func:`compute_convex_hull`), as indices into its vertices: the loops'
    points in sorted order."""
    ids, ends, coords = loops.tolist(), bounds.tolist(), charts.tolist()
    tris, row = [], 0
    for f, is_polygon in enumerate(polygon.tolist()):
        loop = ids[ends[f]:ends[f + 1]]
        if not is_polygon:
            tris.append(loop)
            continue
        flat = dict(zip(loop, coords[row:row + len(loop)]))
        row += len(loop)
        tris.extend(_triangulate_convex_loop(loop, flat))
    return np.searchsorted(np.unique(loops), np.array(tris, dtype=np.intp))


def _triangle_loop(rows, ids, nrm):
    """CCW loop of a three-point facet from one orientation sign, or None
    when the triple is too thin to decide here and must go through
    ``_chain_2d`` (which refuses a collinear one).

    The margin of twice the chain's collinearity tolerance covers the
    rounding between this 3-D triple product and the chain's in-plane
    coordinates for clouds within ~1 km of the origin.
    """
    a, b, c = ids
    turn = _dot(_cross(_sub(rows[b], rows[a]), _sub(rows[c], rows[a])), nrm)
    if turn > 2 * _EPS_LINE:
        return [a, b, c]
    if turn < -2 * _EPS_LINE:
        return [a, c, b]
    return None


def _dedupe(pts):
    """Distinct rows in lexicographic order and the index of each one's first
    occurrence, as ``np.unique(pts, axis=0, return_index=True)`` gives them
    (lexsort is stable and, like it, equates -0.0 with 0.0)."""
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    srt = pts[order]
    first = np.ones(len(srt), dtype=bool)
    np.any(srt[1:] != srt[:-1], axis=1, out=first[1:])
    return srt[first], order[first]


def _distinct(pts_in: np.ndarray):
    """The distinct rows of a cloud and the index of each one's first
    occurrence (see :func:`_dedupe`); raises DegenerateCloud unless they
    span a volume."""
    if pts_in.shape[0] == 0:
        raise EmptyCloud("no points")
    pts, first_idx = _dedupe(pts_in)
    if pts.shape[0] < 4:
        raise DegenerateCloud(f"need >= 4 distinct points, got {pts.shape[0]}")
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[2] <= max(_EPS_PLANE, 1e-12 * sv[0]):
        raise DegenerateCloud("cloud is coplanar or collinear")
    return pts, first_idx


def _spans_volume(pts: np.ndarray) -> bool:
    """True unless the wrap of ``pts`` would give way to the fallback box."""
    try:
        _distinct(pts)
    except DegenerateCloud:
        return False
    return True


def compute_convex_hull(pts_in: np.ndarray) -> ConvexHull:
    """Wrap the convex hull of a 3D cloud.

    Raises DegenerateCloud for fewer than four distinct points or a
    coplanar/collinear cloud; callers wanting a box proxy instead should
    use :func:`hull_with_fallback`.

    numpy makes only the passes over the whole cloud, a few per facet: the
    pivot's projection, the two membership tests and the support check.
    Everything over a facet's members (its normal, chart and loop) runs on
    Python floats.
    """
    pts, first_idx = _distinct(pts_in)
    n_pts = pts.shape[0]
    rows = pts.tolist()
    # Facet loops, CCW and rooted at their smallest id, are kept flat: the
    # loops one after another, where each ends, whether it is a polygon (more
    # than three members), and the polygons' in-plane charts, loop point by
    # loop point, that the triangulation reads.  A hull holds no per-facet
    # objects.
    loops: list[int] = []
    bounds: list[int] = [0]
    polygon: list[bool] = []
    charts: list[float] = []
    planes: list[tuple[float, float, float, float]] = []
    used: set[tuple[int, int]] = set()
    pending: deque = deque()

    def emit_face(seed_normal, i, rel):
        """Facet through pts[i] near the plane of ``seed_normal``; ``rel`` is
        the cloud relative to pts[i]."""
        hint = _unit(seed_normal)
        anchor = rows[i]
        members = np.flatnonzero(np.abs(rel @ hint) <= _EPS_PLANE).tolist()
        qs = _offsets(rows, members, anchor)
        far = _longest(qs)
        if len(members) == 3:
            # the anchor is a member: the normal is the other two's cross
            q1, q2 = (q for k, q in zip(members, qs) if k != i)
            nrm = _toward(_unit(_cross(q1, q2)), hint)
        else:
            # a well-conditioned pair: the farthest member, and the member
            # spanning the largest parallelogram with it
            cx, cy, cz = far
            crosses = [(cy * z - cz * y, cz * x - cx * z, cx * y - cy * x) for x, y, z in qs]
            nrm = _toward(_unit(_longest(crosses)), hint)
        dist = rel @ nrm
        if dist.max() > _EPS_PLANE:
            raise GeometryError("wrapping produced a non-supporting plane")
        ids = np.flatnonzero(np.abs(dist) <= _EPS_PLANE).tolist()
        loop = _triangle_loop(rows, ids, nrm) if len(ids) == 3 else None
        polygon.append(loop is None)
        if loop is None:
            # polygon boundary in an in-plane basis, CCW around the outward normal
            if ids != members:
                qs = _offsets(rows, ids, anchor)
                far = _longest(qs)
            ux, uy, uz = t1 = _unit(far)
            vx, vy, vz = _cross(nrm, t1)
            coords = [(x * ux + y * uy + z * uz, x * vx + y * vy + z * vz) for x, y, z in qs]
            ks = _chain_2d(coords)
            if len(ks) < 3:
                raise GeometryError("degenerate face polygon")
            # the triangulation, built on first read of ``faces``, is
            # rooted at the loop's lexicographically smallest point: pts
            # rows are sorted that way, so that is the smallest index
            root = ks.index(min(ks))
            ks = ks[root:] + ks[:root]
            loop = [ids[k] for k in ks]
            for k in ks:
                charts.extend(coords[k])
        loops.extend(loop)
        bounds.append(len(loops))
        planes.append((*nrm, -_dot(nrm, anchor)))
        for k in range(len(loop)):
            a, b = loop[k], loop[(k + 1) % len(loop)]
            used.add((a, b))
            if (b, a) not in used:
                pending.append((b, a, nrm))

    # Bootstrap in two pivots: pts rows are lexicographically sorted, so
    # pts[0] minimizes (x, y, z) and the vertical line through it admits a
    # supporting plane.  Rotating away from the virtual plane x = x_min
    # yields a genuine hull edge; rotating around that edge yields the
    # first face (unless the edge's supporting plane already holds one).
    rel0 = pts - pts[0]
    e0 = (0.0, 0.0, 1.0)
    v0 = (-1.0, 0.0, 0.0)
    r0 = _pivot(rel0, v0, _cross(v0, e0))
    if r0 is None:
        raise DegenerateCloud("cloud is collinear")
    q0 = _sub(rows[r0], rows[0])
    n1 = _unit(_cross(e0, _perp1(q0, e0)))
    e1 = _unit(q0)
    u1 = _cross(n1, e1)
    # offsets from the line along e1, in the orthonormal (u1, n1)
    wu, wn = rel0 @ u1, rel0 @ n1
    off_line = wu * wu + wn * wn > _EPS_LINE ** 2
    if np.any(off_line & (np.abs(wn) <= _EPS_PLANE)):
        emit_face(n1, 0, rel0)
    else:
        r1 = _pivot(rel0, n1, u1)
        if r1 is None:
            raise DegenerateCloud("cloud is collinear")
        emit_face(_cross(e1, _perp1(_sub(rows[r1], rows[0]), e1)), 0, rel0)

    guard = 0
    while pending:
        guard += 1
        if guard > 64 * n_pts:
            raise GeometryError("wrapping failed to close the surface")
        i, j, n_known = pending.popleft()
        if (i, j) in used:
            continue
        rel = pts - pts[i]
        e = _unit(_sub(rows[j], rows[i]))
        r = _pivot(rel, n_known, _cross(n_known, e))
        if r is None:
            raise GeometryError("no supporting plane found at an open edge")
        emit_face(_cross(e, _perp1(_sub(rows[r], rows[i]), e)), i, rel)

    vert_ids = np.array(sorted(set(loops)), dtype=np.intp)
    hull = ConvexHull(pts[vert_ids], first_idx[vert_ids], None,
                      np.array(planes, dtype=np.float64))
    hull._facets = (np.array(loops, dtype=np.intp), np.array(bounds, dtype=np.intp),
                    np.array(polygon), np.array(charts, dtype=np.float64).reshape(-1, 2))
    return hull


def box_hull(min_corner, max_corner, degenerate: bool = False) -> ConvexHull:
    """Exact hull of an axis-aligned box, bypassing the wrap."""
    lo = np.asarray(min_corner, dtype=np.float64)
    hi = np.asarray(max_corner, dtype=np.float64)
    if np.any(hi <= lo):
        raise DegenerateCloud("box must have positive extent on every axis")
    xs = [lo[0], hi[0]]
    ys = [lo[1], hi[1]]
    zs = [lo[2], hi[2]]
    verts = np.array([[x, y, z] for x in xs for y in ys for z in zs])
    # vertex order: bit 2 = x, bit 1 = y, bit 0 = z
    quads = [
        ((0, 1, 3, 2), (-1, 0, 0, lo[0])),
        ((4, 6, 7, 5), (1, 0, 0, -hi[0])),
        ((0, 4, 5, 1), (0, -1, 0, lo[1])),
        ((2, 3, 7, 6), (0, 1, 0, -hi[1])),
        ((0, 2, 6, 4), (0, 0, -1, lo[2])),
        ((1, 5, 7, 3), (0, 0, 1, -hi[2])),
    ]
    faces = []
    for (a, b, c, d), _ in quads:
        faces.extend([(a, b, c), (a, c, d)])
    return ConvexHull(
        vertices=verts,
        vertex_indices=np.arange(8, dtype=np.intp),
        faces=np.array(faces, dtype=np.intp),
        face_planes=np.array([plane for _, plane in quads], dtype=np.float64),
        degenerate=degenerate,
    )


def hull_with_fallback(pts: np.ndarray, cfg: GeometryConfig = DEFAULT_GEOMETRY) -> ConvexHull:
    """Hull of a cloud, or an inflated-box proxy when the cloud is flat.

    Axes with (near-)zero extent are inflated by eps_touch so thin sheets
    still participate in touch and relation tests; the result is flagged.
    """
    try:
        return compute_convex_hull(pts)
    except DegenerateCloud:
        box = _padded(compute_aabb(pts), cfg)
        return box_hull(box.min_corner, box.max_corner, degenerate=True)


def _padded(box: Aabb, cfg: GeometryConfig) -> Aabb:
    """A cloud's box with its axes thinner than eps_touch inflated to
    eps_touch, as a flat cloud's fallback hull is; the box itself when no
    axis is that thin."""
    lo, hi = box.corners
    eps = cfg.eps_touch
    pad = [eps / 2.0 if h - l < eps else 0.0 for l, h in zip(lo, hi)]
    if not any(pad):
        return box
    return Aabb(np.array([l - p for l, p in zip(lo, pad)]),
                np.array([h + p for h, p in zip(hi, pad)]))


def classify_points(hull: ConvexHull, pts: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    """Vectorized region classification of many points against one hull;
    points within ``tol`` of its surface are on the boundary."""
    if pts.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    worst = (pts @ hull.face_planes[:, :3].T + hull.face_planes[:, 3]).max(axis=1)
    out = np.full(pts.shape[0], RegionClass.BOUNDARY, dtype=np.intp)
    out[worst < -tol] = RegionClass.INTERIOR
    out[worst > tol] = RegionClass.EXTERIOR
    return out


class RelMatrix:
    """Non-emptiness of the six intersections between two clouds.

    Row one looks at cloud A against the interior / boundary / exterior of
    B's hull; row two looks at cloud B against A's hull.  Each entry is
    computed on its first read, reading a hull only where its box cannot
    decide (see :func:`relation_matrix`).
    """

    __slots__ = ("_sides",)

    def __init__(self, side_a: _Side, side_b: _Side):
        self._sides = (side_a, side_b)

    a_in_b0 = property(lambda self: self._sides[0].flag(RegionClass.INTERIOR))
    a_on_db = property(lambda self: self._sides[0].flag(RegionClass.BOUNDARY))
    a_in_bminus = property(lambda self: self._sides[0].flag(RegionClass.EXTERIOR))
    a0_has_b = property(lambda self: self._sides[1].flag(RegionClass.INTERIOR))
    da_has_b = property(lambda self: self._sides[1].flag(RegionClass.BOUNDARY))
    aminus_has_b = property(lambda self: self._sides[1].flag(RegionClass.EXTERIOR))

    def rows(self):
        return ((self.a_in_b0, self.a_on_db, self.a_in_bminus),
                (self.a0_has_b, self.da_has_b, self.aminus_has_b))

    def swapped(self) -> "RelMatrix":
        """The matrix of the pair in the other order: its two rows swapped,
        which is what ``relation_matrix`` returns for the swapped arguments.
        It shares this matrix's entries, each still computed once."""
        return RelMatrix(self._sides[1], self._sides[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, RelMatrix) and self.rows() == other.rows()

    def __repr__(self) -> str:
        return f"RelMatrix{self.rows()}"


def _region_flags(cloud, hull, tol):
    bb = hull.aabb()
    inside_bb = bb.contains(cloud, tol)
    flags = [False, False, bool(np.any(~inside_bb))]
    if np.any(inside_bb):
        regions = classify_points(hull, cloud[inside_bb], tol)
        flags[0] |= bool(np.any(regions == RegionClass.INTERIOR))
        flags[1] |= bool(np.any(regions == RegionClass.BOUNDARY))
        flags[2] |= bool(np.any(regions == RegionClass.EXTERIOR))
    return flags


# A point can lie deeper than tol inside a hull only if it lies that deep
# inside a box holding the hull.  The margin covers the rounding between
# the two depths, a box's and a plane row's.
_DEEP_MARGIN = 1e-9


def _reaches_interior(cloud: np.ndarray, cloud_box: Aabb, hull: ConvexHull, tol: float) -> bool:
    """Whether some point of ``cloud`` lies in the interior of ``hull`` (as
    :func:`classify_points` with ``tol`` says).  Only the points deeper than
    ``tol`` inside ``hull.box`` are classified, so a hull no point comes
    that deep into is not read.  When on some axis ``cloud_box``, the
    cloud's box, reaches no deeper than that into ``hull.box``, no point
    does, and none is visited."""
    box = hull.box
    thr = tol - _DEEP_MARGIN
    # a point's depth on an axis is fl(p - lo) or fl(hi - p), and rounding
    # is monotone, so the cloud's extremes give the deepest of them
    (lo, hi), (c_lo, c_hi) = box.corners, cloud_box.corners
    if any(c_h - l <= thr or h - c_l <= thr for l, h, c_l, c_h in zip(lo, hi, c_lo, c_hi)):
        return False
    depth = np.minimum(cloud - box.min_corner, box.max_corner - cloud).min(axis=1)
    deep = depth > thr
    return bool(deep.any()) and bool(
        np.any(classify_points(hull, cloud[deep], tol) == RegionClass.INTERIOR))


class _Side:
    """One cloud against the interior, boundary and exterior of one hull:
    whether some point lies in each, found on first read.  The interior
    flag classifies only the points deep inside the hull's box, and a point
    beyond that box by more than ``tol`` settles the exterior flag; the
    rest classifies every point within ``tol`` of the hull's own box.
    ``own`` is the cloud's own hull, which may keep the cloud's box (see
    :func:`_cloud_box`) for the interior test."""

    __slots__ = ("cloud", "own", "hull", "tol", "flags")

    def __init__(self, cloud: np.ndarray, own: ConvexHull, hull: ConvexHull, tol: float):
        self.cloud, self.own, self.hull, self.tol = cloud, own, hull, tol
        self.flags = [None, None, None]

    def flag(self, region: RegionClass) -> bool:
        flags = self.flags
        if flags[region] is None:
            if region == RegionClass.INTERIOR:
                flags[region] = _reaches_interior(
                    self.cloud, _cloud_box(self.cloud, self.own), self.hull, self.tol)
            elif (region == RegionClass.EXTERIOR
                  and not self.hull.box.contains(self.cloud, self.tol).all()):
                flags[region] = True
            else:
                full = _region_flags(self.cloud, self.hull, self.tol)
                self.flags = [f if f is not None else g for f, g in zip(flags, full)]
        return self.flags[region]


def relation_matrix(cloud_a: np.ndarray, hull_a: ConvexHull,
                    cloud_b: np.ndarray, hull_b: ConvexHull,
                    tol: float = 1e-7) -> RelMatrix:
    """Evaluate the six-part matrix over the full clouds (not just vertices).

    ``tol`` widens the boundary band; relation classification passes the
    touch tolerance here so shallow contact overlap does not read as
    interior penetration.  Entries are computed on first read: an interior
    entry reads the other hull's planes only for points deeper than ``tol``
    inside its box, and an exterior entry none when some point lies beyond
    that box by more than ``tol``, so a hull whose box decides is not built.
    """
    return RelMatrix(_Side(cloud_a, hull_a, hull_b, tol), _Side(cloud_b, hull_b, hull_a, tol))


# ---------------------------------------------------------------------------
# GJK distance between two convex vertex sets
# ---------------------------------------------------------------------------
# Simplex points are float tuples (helpers above): the simplex holds at most
# four 3-vectors.

def _closest_on_segment(a, b):
    ab = _sub(b, a)
    denom = _dot(ab, ab)
    t = 0.0 if denom <= 0 else min(max(-_dot(a, ab) / denom, 0.0), 1.0)
    if t <= 0.0:
        return a, [0]
    if t >= 1.0:
        return b, [1]
    return _along(a, t, ab), [0, 1]


def _closest_on_triangle(a, b, c):
    ab, ac = _sub(b, a), _sub(c, a)
    d1, d2 = -_dot(ab, a), -_dot(ac, a)
    if d1 <= 0 and d2 <= 0:
        return a, [0]
    d3, d4 = -_dot(ab, b), -_dot(ac, b)
    if d3 >= 0 and d4 <= d3:
        return b, [1]
    vc = d1 * d4 - d3 * d2
    if vc <= 0 <= d1 and d3 <= 0:
        return _along(a, d1 / (d1 - d3), ab), [0, 1]
    d5, d6 = -_dot(ab, c), -_dot(ac, c)
    if d6 >= 0 and d5 <= d6:
        return c, [2]
    vb = d5 * d2 - d1 * d6
    if vb <= 0 <= d2 and d6 <= 0:
        return _along(a, d2 / (d2 - d6), ac), [0, 2]
    va = d3 * d6 - d5 * d4
    if va <= 0 and d4 >= d3 and d5 >= d6:
        return _along(b, (d4 - d3) / ((d4 - d3) + (d5 - d6)), _sub(c, b)), [1, 2]
    denom = va + vb + vc
    return _along(_along(a, vb / denom, ab), vc / denom, ac), [0, 1, 2]


def _closest_on_simplex(simplex):
    if len(simplex) == 1:
        return simplex[0], [0]
    if len(simplex) == 2:
        return _closest_on_segment(simplex[0], simplex[1])
    if len(simplex) == 3:
        return _closest_on_triangle(simplex[0], simplex[1], simplex[2])
    # origin inside the tetrahedron means the sets intersect
    best, keep, best_d = None, None, math.inf
    for ids, other in (((0, 1, 2), 3), ((0, 1, 3), 2), ((0, 2, 3), 1), ((1, 2, 3), 0)):
        p0, p1, p2 = (simplex[k] for k in ids)
        e1, e2 = _sub(p1, p0), _sub(p2, p0)
        nrm = (e1[1] * e2[2] - e1[2] * e2[1],
               e1[2] * e2[0] - e1[0] * e2[2],
               e1[0] * e2[1] - e1[1] * e2[0])
        if -_dot(nrm, p0) * _dot(nrm, _sub(simplex[other], p0)) < 0:
            p, sub = _closest_on_triangle(p0, p1, p2)
            dist = _dot(p, p)
            if dist < best_d:
                best, keep, best_d = p, [ids[k] for k in sub], dist
    if best is None:
        return (0.0, 0.0, 0.0), [0, 1, 2, 3]
    return best, keep


# GJK stops when a support point brings |v|^2 closer by at most this share
# of max(|v|^2, 1): at a distance t its answer then exceeds the true one by
# at most _GJK_STOP * max(t^2, 1) / t.
_GJK_STOP = 1e-10


def gjk_distance(verts_a: np.ndarray, verts_b: np.ndarray, eps: float = 1e-12,
                 max_iter: int = 128) -> float:
    """Distance between the convex hulls of two vertex sets (0 if they meet)."""
    return _gjk(verts_a, verts_b, eps, max_iter)[0]


def _gjk(A: np.ndarray, B: np.ndarray, eps: float = 1e-12, max_iter: int = 128):
    """(:func:`gjk_distance`, False if it stopped on ``max_iter``).

    Each iteration projects both sets with one product over them stacked
    and reads only the two support rows as floats."""
    n = len(A)
    # ndarray.mean's own sum and division, without its per-call overhead
    v = tuple((np.add.reduce(A, axis=0) / n - np.add.reduce(B, axis=0) / len(B)).tolist())
    if _dot(v, v) < eps:
        return 0.0, True
    stacked = np.concatenate((A, B))
    simplex: list[tuple[float, float, float]] = []
    witnesses: list[tuple[int, int]] = []    # vertex pair of each simplex point
    for _ in range(max_iter):
        proj = stacked @ v
        ia = int(proj[:n].argmin())
        ib = int(proj[n:].argmax())
        w = _sub(A[ia].tolist(), B[ib].tolist())
        vv = _dot(v, v)
        # a support point already in the simplex cannot bring v closer; one
        # dropped earlier may re-enter
        if vv - _dot(v, w) <= _GJK_STOP * max(vv, 1.0) or (ia, ib) in witnesses:
            return math.sqrt(vv), True
        witnesses.append((ia, ib))
        simplex.append(w)
        v, keep = _closest_on_simplex(simplex)
        simplex = [simplex[k] for k in keep]
        witnesses = [witnesses[k] for k in keep]
        if _dot(v, v) <= eps:
            return 0.0, True
    return math.sqrt(_dot(v, v)), False


def hull_surface_distance(hull_a: ConvexHull, hull_b: ConvexHull) -> float:
    """Separation between two hulls as convex sets (0 when touching/overlapping)."""
    return gjk_distance(hull_a.vertices, hull_b.vertices)


def _surface_band(tol: float) -> float:
    """Half-width of the band around ``tol`` in which the distance between
    two clouds may decide the surface test otherwise than the distance
    between their hulls' vertices: twice GJK's stopping error there (see
    ``_GJK_STOP``), one for each distance, plus the wrap's plane tolerance,
    by which a cloud may stand out of its hull."""
    if tol <= 0.0:
        return math.inf
    return 2 * _GJK_STOP * max(tol * tol, 1.0) / tol + _EPS_PLANE


def _cloud_box(cloud: np.ndarray, hull: ConvexHull) -> Aabb:
    """``compute_aabb(cloud)``, kept by ``hull`` if it was deferred on ``cloud``."""
    own = hull._own
    return own[1] if own is not None and own[0] is cloud else compute_aabb(cloud)


def touch(cloud_a: np.ndarray, hull_a: ConvexHull, cloud_b: np.ndarray, hull_b: ConvexHull,
          tol: float) -> bool:
    """Contact test: interiors mutually free of the other's points (to depth
    tol) and surfaces within tol of each other.

    Each cloud is its hull's cloud.  The interior tests classify only the
    points deep inside the other hull's box.  GJK over the two clouds, or
    the vertices of a hull already built, gives the surface distance.  A
    cloud's hull is its convex hull, or a larger padded box if the cloud is
    flat, so the hulls lie no further apart than the clouds.  Only when
    that distance lies within :func:`_surface_band` of ``tol``, or beyond
    it for a flat cloud, or GJK stopped on its iteration cap, is it taken
    again over the hulls' vertices, as :func:`hull_surface_distance`.  So a
    pair in surface contact without interpenetration is decided without
    building either hull.
    """
    box_a, box_b = _cloud_box(cloud_a, hull_a), _cloud_box(cloud_b, hull_b)
    if aabb_gap(box_a, box_b) > tol:
        return False
    if (_reaches_interior(cloud_a, box_a, hull_b, tol)
            or _reaches_interior(cloud_b, box_b, hull_a, tol)):
        return False
    dist, converged = _gjk(hull_a.vertices if hull_a.built else cloud_a,
                           hull_b.vertices if hull_b.built else cloud_b)
    if hull_a.built and hull_b.built:
        return dist <= tol
    band = _surface_band(tol)
    if converged and (dist < tol - band or dist > tol + band
                      and not (hull_a.flat() or hull_b.flat())):
        return dist <= tol
    return hull_surface_distance(hull_a, hull_b) <= tol
