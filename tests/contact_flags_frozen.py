"""The contact test and the six intersection flags as they were computed
before they read the boxes first: every flag at once, every point
classified against the hull's planes, and the surface test by GJK over the
two hulls' vertices.  Frozen as the oracle of ``test_contact_oracle.py``.

Only the point classification and the cloud's box are taken from the
package: they did not change.  The boxes' gap and GJK are the frozen ones
of ``box_gjk_frozen.py``.
"""

import numpy as np

from manipsem.geometry import RegionClass, as_cloud, classify_points, compute_aabb
from box_gjk_frozen import frozen_aabb_gap, frozen_gjk


def frozen_region_flags(cloud, hull, tol):
    """(interior, boundary, exterior): whether some point of ``cloud`` lies
    in each region of ``hull``."""
    bb = hull.aabb()
    inside_bb = bb.contains(cloud, tol)
    flags = [False, False, bool(np.any(~inside_bb))]
    if np.any(inside_bb):
        regions = classify_points(hull, cloud[inside_bb], tol)
        flags[0] |= bool(np.any(regions == RegionClass.INTERIOR))
        flags[1] |= bool(np.any(regions == RegionClass.BOUNDARY))
        flags[2] |= bool(np.any(regions == RegionClass.EXTERIOR))
    return flags


def frozen_relation_rows(cloud_a, hull_a, cloud_b, hull_b, tol=1e-7):
    """The two rows of ``relation_matrix``: A against B's hull, B against A's."""
    ca, cb = as_cloud(cloud_a), as_cloud(cloud_b)
    return (tuple(frozen_region_flags(ca, hull_b, tol)),
            tuple(frozen_region_flags(cb, hull_a, tol)))


def frozen_touch(cloud_a, hull_a, cloud_b, hull_b, tol):
    """``touch``: interiors mutually free of the other's points (to depth
    tol) and the hulls' vertex sets within tol of each other."""
    ca, cb = as_cloud(cloud_a), as_cloud(cloud_b)
    if frozen_aabb_gap(compute_aabb(ca), compute_aabb(cb)) > tol:
        return False
    if np.any(classify_points(hull_b, ca, tol) == RegionClass.INTERIOR):
        return False
    if np.any(classify_points(hull_a, cb, tol) == RegionClass.INTERIOR):
        return False
    return frozen_gjk(hull_a.vertices, hull_b.vertices)[0] <= tol
