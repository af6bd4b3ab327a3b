"""The convex-hull wrap as it was before facets kept their loops and the
triangles were built on first read, frozen as the oracle of
``test_hull_oracle.py``, with the facet chain it used then
(``oracle_chain_2d``, also the oracle of the chain in
``test_hull_facets.py``).

Only the loop triangulation is taken from the package: it did not change.
"""

from collections import deque

import numpy as np

from manipsem.geometry import (
    ConvexHull,
    DegenerateCloud,
    EmptyCloud,
    GeometryError,
    _EPS_LINE,
    _EPS_PLANE,
    _triangulate_convex_loop,
    as_cloud,
)


def oracle_chain_2d(coords):
    """The facet loop as the wrap took it then, in numpy scalar arithmetic:
    strict corners from two monotone chains, then each other point within
    ``_EPS_LINE`` of a corner edge spliced into it by edge parameter."""
    order = np.lexsort((coords[:, 1], coords[:, 0]))

    def build(idx_seq):
        out = []
        for idx in idx_seq:
            while len(out) >= 2:
                o, a = coords[out[-2]], coords[out[-1]]
                b = coords[idx]
                cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                if cross <= _EPS_LINE:
                    out.pop()
                else:
                    break
            out.append(int(idx))
        return out

    lower = build(order)
    upper = build(order[::-1])
    corners = lower[:-1] + upper[:-1]
    if len(corners) < 3:
        return corners
    corner_set = set(corners)
    inserts = [[] for _ in corners]
    for idx in range(coords.shape[0]):
        if idx in corner_set:
            continue
        p = coords[idx]
        for k in range(len(corners)):
            a = coords[corners[k]]
            b = coords[corners[(k + 1) % len(corners)]]
            ab = b - a
            cross = ab[0] * (p[1] - a[1]) - ab[1] * (p[0] - a[0])
            if abs(cross) > _EPS_LINE:
                continue
            denom = ab @ ab
            t = float((p - a) @ ab / denom) if denom > 0 else -1.0
            if 0.0 < t < 1.0:
                inserts[k].append((t, idx))
                break
    loop = []
    for k, corner in enumerate(corners):
        loop.append(corner)
        loop.extend(idx for _, idx in sorted(inserts[k]))
    return loop


def _cross3(a, b):
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _cross_rows(a, rows):
    out = np.empty_like(rows)
    out[:, 0] = a[1] * rows[:, 2] - a[2] * rows[:, 1]
    out[:, 1] = a[2] * rows[:, 0] - a[0] * rows[:, 2]
    out[:, 2] = a[0] * rows[:, 1] - a[1] * rows[:, 0]
    return out

def _perp(vecs, e):
    return vecs - np.outer(vecs @ e, e)


def _perp1(vec, e):
    return vec - (vec @ e) * e


def _pivot(pts, anchor, e, v, u):
    """Rotate a half-plane hinged on the (anchor, e) line and return the
    index of the point it meets first, or None if no candidate exists.

    ``v`` is the outward normal of the supporting plane we rotate away from,
    ``u`` points away from that plane's side, both orthogonal to ``e``.
    """
    w = _perp(pts - anchor, e)
    wu = w @ u
    wv = w @ v
    ok = (np.einsum("ij,ij->i", w, w) > _EPS_LINE ** 2)
    ok &= ~((wv >= -_EPS_PLANE) & (wu <= _EPS_PLANE))
    if not np.any(ok):
        return None
    theta = np.where(ok, np.arctan2(wv, wu), -np.inf)
    return int(np.argmax(theta))


def _face_plane(pts, members, anchor, hint):
    """Well-conditioned unit plane through the coplanar member set."""
    rel = pts[members] - anchor
    i1 = int(np.argmax(np.einsum("ij,ij->i", rel, rel)))
    q1 = rel[i1]
    crosses = _cross_rows(q1, rel)
    i2 = int(np.argmax(np.einsum("ij,ij->i", crosses, crosses)))
    n = crosses[i2]
    n = n / np.linalg.norm(n)
    if n @ hint < 0:
        n = -n
    return n, float(-(n @ anchor))


def frozen_convex_hull(points) -> ConvexHull:
    """Wrap the convex hull of a 3D cloud.

    Raises DegenerateCloud for fewer than four distinct points or a
    coplanar/collinear cloud; callers wanting a box proxy instead should
    use :func:`hull_with_fallback`.
    """
    pts_in = as_cloud(points)
    if pts_in.shape[0] == 0:
        raise EmptyCloud("no points")
    uniq, first_idx = np.unique(pts_in, axis=0, return_index=True)
    if uniq.shape[0] < 4:
        raise DegenerateCloud(f"need >= 4 distinct points, got {uniq.shape[0]}")
    centered = uniq - uniq.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[2] <= max(_EPS_PLANE, 1e-12 * sv[0]):
        raise DegenerateCloud("cloud is coplanar or collinear")

    pts = uniq
    n_pts = pts.shape[0]
    faces: list[tuple[int, int, int]] = []
    planes: list[tuple[float, float, float, float]] = []
    used: set[tuple[int, int]] = set()
    pending: deque = deque()

    def emit_face(seed_normal, anchor):
        nrm_hint = seed_normal / np.linalg.norm(seed_normal)
        d_hint = float(-(nrm_hint @ anchor))
        dist = pts @ nrm_hint + d_hint
        members = np.flatnonzero(np.abs(dist) <= _EPS_PLANE)
        nrm, d = _face_plane(pts, members, anchor, nrm_hint)
        dist = pts @ nrm + d
        if dist.max() > _EPS_PLANE:
            raise GeometryError("wrapping produced a non-supporting plane")
        members = np.flatnonzero(np.abs(dist) <= _EPS_PLANE)
        # polygon boundary in an in-plane basis, CCW around the outward normal
        t1 = pts[members[int(np.argmax(np.linalg.norm(pts[members] - anchor, axis=1)))]] - anchor
        t1 = t1 / np.linalg.norm(t1)
        t2 = _cross3(nrm, t1)
        rel = pts[members] - anchor
        coords = np.stack([rel @ t1, rel @ t2], axis=1)
        ids = members.tolist()
        loop = [ids[k] for k in oracle_chain_2d(coords)]
        if len(loop) < 3:
            raise GeometryError("degenerate face polygon")
        # stable orientation-preserving triangulation; a plain fan would emit
        # zero-area triangles when boundary runs contain collinear points.
        # The loop is rooted at its lexicographically smallest point: pts
        # rows are sorted that way, so that is the smallest index.
        root_pos = loop.index(min(loop))
        loop = loop[root_pos:] + loop[:root_pos]
        flat = dict(zip(ids, coords.tolist()))
        faces.extend(_triangulate_convex_loop(loop, flat))
        planes.append((*nrm.tolist(), d))
        for k in range(len(loop)):
            i, j = loop[k], loop[(k + 1) % len(loop)]
            used.add((i, j))
            if (j, i) not in used:
                pending.append((j, i, nrm))

    # Bootstrap in two pivots: uniq rows are lexicographically sorted, so
    # pts[0] minimizes (x, y, z) and the vertical line through it admits a
    # supporting plane.  Rotating away from the virtual plane x = x_min
    # yields a genuine hull edge; rotating around that edge yields the
    # first face (unless the edge's supporting plane already holds one).
    anchor0 = pts[0]
    e0 = np.array([0.0, 0.0, 1.0])
    v0 = np.array([-1.0, 0.0, 0.0])
    u0 = _cross3(v0, e0)
    r0 = _pivot(pts, anchor0, e0, v0, u0)
    if r0 is None:
        raise DegenerateCloud("cloud is collinear")
    w0 = _perp1(pts[r0] - anchor0, e0)
    n1 = _cross3(e0, w0)
    n1 = n1 / np.linalg.norm(n1)
    e1 = pts[r0] - anchor0
    e1 = e1 / np.linalg.norm(e1)
    offset = _perp(pts - anchor0, e1)
    off_line = np.einsum("ij,ij->i", offset, offset) > _EPS_LINE ** 2
    on_plane = np.abs((pts - anchor0) @ n1) <= _EPS_PLANE
    if np.any(off_line & on_plane):
        emit_face(n1, anchor0)
    else:
        u1 = _cross3(n1, e1)
        r1 = _pivot(pts, anchor0, e1, n1, u1)
        if r1 is None:
            raise DegenerateCloud("cloud is collinear")
        w1 = _perp1(pts[r1] - anchor0, e1)
        emit_face(_cross3(e1, w1), anchor0)

    guard = 0
    while pending:
        guard += 1
        if guard > 64 * n_pts:
            raise GeometryError("wrapping failed to close the surface")
        i, j, n_known = pending.popleft()
        if (i, j) in used:
            continue
        e = pts[j] - pts[i]
        e = e / np.linalg.norm(e)
        u = _cross3(n_known, e)
        r = _pivot(pts, pts[i], e, n_known, u)
        if r is None:
            raise GeometryError("no supporting plane found at an open edge")
        w = _perp1(pts[r] - pts[i], e)
        emit_face(_cross3(e, w), pts[i])

    vert_ids = sorted({i for tri in faces for i in tri})
    remap = {old: new for new, old in enumerate(vert_ids)}
    tris = np.array([[remap[a] for a in tri] for tri in faces], dtype=np.intp)
    return ConvexHull(
        vertices=pts[vert_ids],
        vertex_indices=first_idx[vert_ids],
        faces=tris,
        face_planes=np.array(planes, dtype=np.float64),
    )
