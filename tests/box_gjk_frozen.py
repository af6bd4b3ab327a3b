"""The box tests and the GJK support loop as numpy computed them before
they ran on Python floats: the boxes' gap through ``np.linalg.norm``, the
vertical and footprint tests on numpy scalars, and GJK projecting each
cloud on its own and reading both clouds as lists up front.  Frozen as the
oracle of ``test_box_gjk_identity.py``, which requires equal results bit
for bit.

Only the simplex helpers are taken from the package: they did not change.
"""

import math

import numpy as np

from manipsem.geometry import _GJK_STOP, _closest_on_simplex, _dot, _sub


def frozen_aabb_gap(a, b):
    """Euclidean separation between two boxes (0 when they overlap)."""
    gaps = np.maximum(a.min_corner - b.max_corner, b.min_corner - a.max_corner)
    gaps = np.maximum(gaps, 0.0)
    return float(np.linalg.norm(gaps))


def _interval_overlap(lo_a, hi_a, lo_b, hi_b):
    return min(hi_a, hi_b) - max(lo_a, lo_b)


def frozen_footprint_overlap(a, b, margin):
    """True when the x and z projections genuinely overlap (beyond margin)."""
    return (_interval_overlap(a.min_corner[0], a.max_corner[0],
                              b.min_corner[0], b.max_corner[0]) > margin
            and _interval_overlap(a.min_corner[2], a.max_corner[2],
                                  b.min_corner[2], b.max_corner[2]) > margin)


def frozen_above(a, b, slack):
    """a sits over b: y ranges separated (up to slack)."""
    if a.min_corner[1] < b.max_corner[1] - slack:
        return False
    if a.center()[1] <= b.center()[1]:
        return False
    return True


def frozen_gjk(A, B, eps=1e-12, max_iter=128):
    """(distance between the convex hulls of A and B, False if GJK stopped
    on ``max_iter``)."""
    rows_a, rows_b = A.tolist(), B.tolist()
    v = tuple((A.mean(axis=0) - B.mean(axis=0)).tolist())
    if _dot(v, v) < eps:
        return 0.0, True
    simplex = []
    witnesses = []
    for _ in range(max_iter):
        ia = int(np.argmin(A @ v))
        ib = int(np.argmax(B @ v))
        w = _sub(rows_a[ia], rows_b[ib])
        vv = _dot(v, v)
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
