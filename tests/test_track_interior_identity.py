"""Two fast paths against plain definitions.

``events._Track`` stacks runs of rows, tells a run of equal rows by one
comparison and reduces each row's box over a contiguous axis; on tracks of
static runs, rigid shifts, jitter below and above ``_RIGID_TOL``, moves,
point-count changes, box grounds and signed zeros it gives each row's
cloud, first point and centroid (``mean``) bit for bit, its box (``min``
and ``max``) by value, and the segments and poses of a test of each step
on its own.

``geometry._reaches_interior`` settles from the cloud's box when that box
reaches no deeper than the threshold into the hull's box; with the cloud's
box at, one ulp inside and one ulp outside the threshold, against deferred
and built hulls, its answer is that of ``classify_points`` over every point,
and the box path leaves a deferred hull unbuilt.
"""

import itertools
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from manipsem.config import GeometryConfig
from manipsem.events import _RIGID_TOL, _Track, ObjectInstance
from manipsem.geometry import (_DEEP_MARGIN, ConvexHull, RegionClass, _reaches_interior,
                               box_hull, classify_points, compute_aabb, hull_with_fallback)
from conftest import box_cloud

COORDS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.25]),
                   st.floats(-2.0, 2.0, allow_subnormal=False))
# shifts and per-point jitter on both sides of _RIGID_TOL (1e-12)
SMALL = [1e-13, 5e-13, 1e-12, 2e-12, 1e-11, 1e-3, 0.25]


def flip_zeros(a):
    """``a`` with the sign of every zero flipped."""
    return np.where(a == 0, -a, a)


@st.composite
def clouds(draw, n=None):
    n = n or draw(st.integers(1, 5))
    return np.array(draw(st.lists(COORDS, min_size=3 * n, max_size=3 * n))).reshape(n, 3)


@st.composite
def boxes(draw):
    lo = np.array(draw(st.lists(COORDS, min_size=3, max_size=3)))
    size = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=3, max_size=3)))
    return lo, lo + size


def as_box(lo, hi):
    return (tuple(lo.tolist()), tuple(hi.tolist()))


@st.composite
def tracks(draw):
    """An object's appearances: a run of rows, each the previous one kept
    (the same instance or an equal copy), its zeros' signs flipped,
    shifted, jittered, moved, resized or swapped for a box."""
    rows = [draw(clouds()) if draw(st.booleans()) else as_box(*draw(boxes()))]
    for _ in range(draw(st.integers(0, 6))):
        prev = rows[-1]
        how = draw(st.sampled_from(["same", "copy", "zero signs", "shift", "jitter",
                                    "move", "count", "box"]))
        if isinstance(prev, tuple):
            lo, hi = np.array(prev[0]), np.array(prev[1])
            if how in ("shift", "jitter"):
                step = draw(st.sampled_from(SMALL)) * np.array(
                    draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=3, max_size=3)))
                lo, hi = lo + step, hi + step
            elif how == "zero signs":
                lo, hi = flip_zeros(lo), flip_zeros(hi)
            elif how in ("move", "box"):
                lo, hi = draw(boxes())
            rows.append(prev if how == "same" else
                        draw(clouds()) if how == "count" else as_box(lo, hi))
            continue
        if how == "same":
            rows.append(prev)
        elif how == "copy":
            rows.append(prev.copy())
        elif how == "zero signs":
            rows.append(flip_zeros(prev))
        elif how == "shift":
            rows.append(prev + draw(st.sampled_from(SMALL)) * np.array(
                draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=3, max_size=3))))
        elif how == "jitter":
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            rows.append(prev + draw(st.sampled_from(SMALL)) * rng.uniform(-1, 1, prev.shape))
        elif how == "move":
            rows.append(draw(clouds(len(prev))))
        elif how == "count":
            rows.append(draw(clouds()))
        else:
            rows.append(as_box(*draw(boxes())))
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    frames = [sum(gaps[:k + 1]) - 1 for k in range(len(rows))]
    insts = {}
    appearances = []
    for f, row in zip(frames, rows):
        # a row kept as the same object is one instance, as the loader gives
        if id(row) not in insts:
            insts[id(row)] = (ObjectInstance("o", "thing", "object", None, row)
                              if isinstance(row, tuple)
                              else ObjectInstance("o", "thing", "object", row))
        appearances.append((f, insts[id(row)]))
    return appearances, frames[-1] + 1


def bits(a):
    return (a.dtype, a.shape, a.tobytes())


def rows(*rows):
    """A track of ``rows`` (clouds or box tuples) in consecutive frames."""
    insts = [ObjectInstance("o", "thing", "object", None, r) if isinstance(r, tuple)
             else ObjectInstance("o", "thing", "object", r) for r in rows]
    return list(enumerate(insts)), len(insts)


CUBE = box_cloud((0, -0.5, 0), (1, 0.5, 1))
TWIST = np.array([[1.0], [-1.0]] * (len(CUBE) // 2) + [[0.0]] * (len(CUBE) % 2))


def step_flags(prev, obj):
    """(rigid, moved) of the step from object ``prev`` to ``obj``: rigid when
    both are clouds or both boxes, of one point count, and every point moved
    by the first point's shift to ``_RIGID_TOL``; moved when that shift
    exceeds it."""
    a, b = prev.cloud(), obj.cloud()
    if (prev.points is None) != (obj.points is None) or len(a) != len(b):
        return False, True
    shift = b[0] - a[0]
    return bool(np.abs(b - a - shift).max() <= _RIGID_TOL), bool(np.abs(shift).max() > _RIGID_TOL)


@settings(max_examples=300, deadline=None)
@given(tracks())
# per-point steps spreading 1.1e-12 and 0.9e-12 about the first point's,
# either side of _RIGID_TOL; zeros of another sign; a box shifted by 1e-13
@example(rows(CUBE, CUBE + 0.55e-12 * TWIST, CUBE + 0.55e-12 * TWIST + 0.45e-12 * TWIST))
@example(rows(CUBE, flip_zeros(CUBE), CUBE))
@example(rows(((0.0, -1.0, 0.0), (1.0, 0.0, 1.0)), ((1e-13, -1.0, 0.0), (1.0, 1e-13, 1.0)), CUBE))
def test_track_rows_and_steps_match_their_definitions(track):
    appearances, _ = track
    got = _Track(*track)
    objects = [o for _, o in appearances]
    clouds = [o.cloud() for o in objects]
    assert [bits(c) for c in got.clouds] == [bits(c) for c in clouds]
    assert np.array_equal(got.lo, [c.min(axis=0) for c in clouds])
    assert np.array_equal(got.hi, [c.max(axis=0) for c in clouds])
    assert bits(got.centroids) == bits(np.array([c.mean(axis=0) for c in clouds]))
    assert [[x.hex() for x in p] for p in got.first] == [[x.hex() for x in c[0].tolist()]
                                                         for c in clouds]
    segment, pose = [1], [1]
    for prev, obj in zip(objects, objects[1:]):
        rigid, moved = step_flags(prev, obj)
        segment.append(segment[-1] + (not rigid))
        pose.append(pose[-1] + (not rigid or moved))
    assert (got.segment, got.pose) == (segment, pose)


def test_static_run_takes_the_one_comparison_path():
    """Equal rows are one pose and one segment; a step of 1e-13 keeps both,
    one of 2e-12 keeps the segment and starts a pose."""
    cloud = box_cloud((0, 0, 0), (1, 1, 1))
    inst = ObjectInstance("o", "thing", "object", cloud)
    rows = [inst, inst, ObjectInstance("o", "thing", "object", cloud.copy()),
            ObjectInstance("o", "thing", "object", cloud + 1e-13),
            ObjectInstance("o", "thing", "object", cloud + 2e-12)]
    tr = _Track(list(enumerate(rows)), len(rows))
    assert tr.segment == [1, 1, 1, 1, 1]
    assert tr.pose == [1, 1, 1, 1, 2]


GEO = GeometryConfig()
HULL_LO, HULL_HI = np.array([-0.3, 0.1, 0.0]), np.array([0.45, 0.8, 1.0])


def hulls(built: bool):
    """Two equal box-lattice hulls, one for each side of the comparison,
    both built or both deferred."""
    pts = box_cloud(HULL_LO, HULL_HI)
    out = []
    for _ in range(2):
        if built:
            out.append(box_hull(HULL_LO, HULL_HI))
        else:
            out.append(ConvexHull.deferred(pts, compute_aabb(pts), GEO,
                                           lambda: hull_with_fallback(pts, GEO)))
    return out


def test_reaches_interior_matches_the_full_pass():
    """Clouds poking into a hull's box through one face, their deepest
    point a few ulps from ``tol - _DEEP_MARGIN`` deep on that axis and well
    inside on the others; clouds reaching through that face to well inside;
    clouds well inside on every axis; against built and deferred hulls."""
    reaches = set()
    for axis, low_face, ulps, tol, built, reach_to in itertools.product(
            range(3), (True, False), range(-2, 3), (1e-3, 0.01, 0.03), (True, False),
            ("edge", "through", "inside")):
        thr = tol - _DEEP_MARGIN
        hull, oracle = hulls(built)
        lo, hi = hull.box.corners
        edge = lo[axis] + thr if low_face else hi[axis] - thr
        for _ in range(abs(ulps)):
            edge = math.nextafter(edge, math.copysign(math.inf, ulps))
        c_lo, c_hi = [x + 0.1 for x in lo], [x - 0.1 for x in hi]
        if reach_to != "inside" and low_face:
            c_lo[axis] = lo[axis] - 0.05
            if reach_to == "edge":
                c_hi[axis] = edge
        elif reach_to != "inside":
            c_hi[axis] = hi[axis] + 0.05
            if reach_to == "edge":
                c_lo[axis] = edge
        # the box's corners as given: box_cloud's lattice arithmetic may round
        cloud = np.array(list(itertools.product(*zip(c_lo, c_hi))))
        where = (axis, low_face, ulps, tol, built, reach_to)
        got = _reaches_interior(cloud, compute_aabb(cloud), hull, tol)
        assert got == bool(np.any(classify_points(oracle, cloud, tol) == RegionClass.INTERIOR)), \
            where
        assert got == (reach_to != "edge"), where
        if reach_to == "edge":
            reach = edge - lo[axis] if low_face else hi[axis] - edge
            reaches.add((reach > thr) - (reach < thr))
            if reach <= thr:
                assert hull.built == built, where
    # the cloud's box was at, inside and outside the threshold
    assert reaches == {-1, 0, 1}
