"""Contact and intersection flags read from boxes and clouds first, against
their definitions on hulls built up front: on random, grid-snapped, flat
and box-lattice pairs, some at exactly the tolerance and a few ulps either
side, every ``RelMatrix`` flag and every contact decision of hulls built
on first read equals the one from ``classify_points`` over every point of
each cloud and GJK over the two hulls' vertices.

The interior test's inner certificate is checked against its definition
too: it answers exactly where the cloud's point deepest in the other hull's
box has, in each octant around it, a point of that hull's cloud at least
``tol + 2 * _EPS_PLANE`` away on every axis; it then leaves the hull
unbuilt, and ``classify_points`` over the hull built up front agrees.
So are the two containment certificates, on inner clouds set a drawn gap
inside one face of a box lattice, a noisy lattice or a ground box: the
exterior flag answers False without a build exactly where the other
object's cloud surrounds every corner of the cloud's box, and the wall test
answers without a build exactly where the cloud's box comes within
``tol - _DEEP_MARGIN`` of a face of the other hull's box (yes) or cubes of
half-side ``tol + 2 * _EPS_PLANE`` around its corners are surrounded (no);
``classify_points`` and ``wall_contact_distance`` over the hull built up
front agree, also one ulp either side of both margins.

Each pair is compared with its oracle at the same coordinates, never with
the answer for the same relative pose elsewhere: where a point lies
exactly ``eps_touch`` deep, the answer depends on how the position rounds
(the strict xfail at the end pins that fault), so the strategies keep
translated copies of one pose out of every comparison.
"""

import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from manipsem.geometry import (
    ConvexHull,
    DEFAULT_GEOMETRY,
    RegionClass,
    _DEEP_MARGIN,
    _EPS_PLANE,
    _gjk,
    _reaches_interior,
    _surface_band,
    aabb_gap,
    box_hull,
    classify_points,
    compute_aabb,
    hull_surface_distance,
    relation_matrix,
    touch,
    touches_wall,
    wall_contact_distance,
)
from manipsem.relations import ObjectState
from conftest import box_cloud

TOL = DEFAULT_GEOMETRY.eps_touch
NOISY_TOL = 0.03
FLAGS = ("a_in_b0", "a_on_db", "a_in_bminus", "a0_has_b", "da_has_b", "aminus_has_b")


def ulps_from(x, k):
    """x moved by k representable floats, up for k > 0."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, np.inf if k > 0 else -np.inf))
    return x


tols = st.sampled_from([TOL, NOISY_TOL])
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def random_pairs(draw):
    """Two random clouds, from far apart to deep in each other."""
    rng = np.random.default_rng(draw(seeds))
    tol = draw(tols)
    a = rng.uniform(-0.05, 0.05, (draw(st.integers(4, 40)), 3))
    b = rng.uniform(-0.05, 0.05, (draw(st.integers(4, 40)), 3)) * rng.uniform(0.2, 1.5, 3)
    b += rng.uniform(-1, 1, 3) * draw(st.sampled_from([0.0, 0.02, 0.06, 0.1, 0.2]))
    return a, b, tol


@st.composite
def grid_pairs(draw):
    """Two clouds on a lattice whose step divides the tolerance, so points
    sit at exactly the tolerance from each other's faces."""
    rng = np.random.default_rng(draw(seeds))
    tol = draw(tols)
    step = tol / draw(st.sampled_from([1, 2, 4]))
    a = rng.integers(0, 12, (draw(st.integers(4, 40)), 3)) * step
    b = rng.integers(0, 12, (draw(st.integers(4, 40)), 3)) * step
    b += rng.integers(-12, 12, 3) * step
    return a, b, tol


@st.composite
def flat_pairs(draw):
    """A flat cloud (one axis constant, or a tilted plane), whose hull is
    its padded box, against a random cloud or another flat one."""
    rng = np.random.default_rng(draw(seeds))
    tol = draw(tols)

    def flat(n):
        pts = rng.uniform(-0.05, 0.05, (n, 3))
        if draw(st.booleans()):
            pts[:, draw(st.integers(0, 2))] = rng.uniform(-0.01, 0.01)
        else:
            normal = rng.normal(size=3)
            pts -= np.outer(pts @ normal / (normal @ normal), normal)
        return pts

    a = flat(draw(st.integers(4, 30)))
    b = flat(draw(st.integers(4, 30))) if draw(st.booleans()) \
        else rng.uniform(-0.05, 0.05, (draw(st.integers(4, 30)), 3))
    b += rng.uniform(-1, 1, 3) * draw(st.sampled_from([0.0, tol, 0.05, 0.1]))
    return a, b, tol


@st.composite
def lattice_pairs(draw):
    """Box lattices side by side, stacked or sunk into each other, their
    faces apart or overlapping by the tolerance, a few ulps either side."""
    tol = draw(tols)
    lo = np.array([draw(st.floats(-0.5, 0.5)) for _ in range(3)])
    size_a = np.array([draw(st.floats(0.02, 0.2)) for _ in range(3)])
    size_b = np.array([draw(st.floats(0.02, 0.2)) for _ in range(3)])
    a = box_cloud(lo, lo + size_a, per_edge=draw(st.integers(2, 4)))
    axis = draw(st.integers(0, 2))
    offset = ulps_from(draw(st.sampled_from([tol, -tol, 0.0, 2 * tol])), draw(st.integers(-4, 4)))
    lo_b = lo + np.array([draw(st.floats(-0.05, 0.05)) for _ in range(3)])
    lo_b[axis] = lo[axis] + size_a[axis] + offset
    if draw(st.booleans()):
        # sunk into a from inside: b's far face tol inside a's face
        lo_b = lo + size_a / 2 - size_b / 4
        lo_b[axis] = lo[axis] + offset
    b = box_cloud(lo_b, lo_b + size_b, per_edge=draw(st.integers(2, 4)),
                  center=draw(st.booleans()))
    return a, b, tol


pairs = st.one_of(random_pairs(), grid_pairs(), flat_pairs(), lattice_pairs())

# Two lattices a tolerance apart: the clouds' distance is the tolerance,
# inside the band where the hulls' vertices decide.
BAND_PAIR = (box_cloud((-0.1, 0, 0), (0.0, 0.1, 0.1)),
             box_cloud((TOL, 0.02, 0.0), (TOL + 0.1, 0.1, 0.1)), TOL)


def regions(cloud, hull, tol):
    """(interior, boundary, exterior): whether some point of ``cloud`` lies
    in each region of ``hull``, by ``classify_points`` over every point;
    a point beyond the hull's box by more than ``tol`` is exterior."""
    cls = classify_points(hull, cloud, tol)
    cls[~hull.aabb().contains(cloud, tol)] = RegionClass.EXTERIOR
    return tuple(bool(np.any(cls == r)) for r in RegionClass)


def oracle_rows(a, hull_a, b, hull_b, tol):
    """The two rows of ``relation_matrix``: A against B's hull, B against A's."""
    return regions(a, hull_b, tol), regions(b, hull_a, tol)


def oracle_touch(a, hull_a, b, hull_b, tol):
    """``touch``: boxes within tol, no point of either cloud in the other's
    interior, and the hulls' vertex sets within tol of each other."""
    return (aabb_gap(compute_aabb(a), compute_aabb(b)) <= tol
            and not regions(a, hull_b, tol)[0] and not regions(b, hull_a, tol)[0]
            and hull_surface_distance(hull_a, hull_b) <= tol)


def deferred_pair(a, b, shift):
    """Clouds a, b and their hulls built on first read; with a shift, the
    clouds are first moved by it (b by half of it) and the hulls deferred
    on the moved clouds, as a moved track's states hold them."""
    if shift is not None:
        delta = np.asarray(shift)
        a, b = a + delta, b + delta / 2
    ha = ConvexHull.deferred(a, compute_aabb(a), DEFAULT_GEOMETRY,
                             lambda: ObjectState.from_cloud(a).hull)
    hb = ConvexHull.deferred(b, compute_aabb(b), DEFAULT_GEOMETRY,
                             lambda: ObjectState.from_cloud(b).hull)
    return a, ha, b, hb


@settings(max_examples=400, deadline=None)
@given(pairs, st.permutations(FLAGS), st.sampled_from([None, (0.3, -0.2, 0.1)]))
@example(BAND_PAIR, FLAGS, None)
@example(BAND_PAIR, FLAGS, (0.3, -0.2, 0.1))
def test_flags_and_contact_equal_the_eager_oracle(pair, order, shift):
    """Every flag, read in any order, and the contact decision equal the
    oracle's, on hulls built on first read, of clouds as given and moved
    (the oracle reads the moved clouds).
    Where the contact test reaches the surface test and the clouds'
    distance lies in the band, both hulls are built."""
    a0, b0, tol = pair
    a, _, b, _ = deferred_pair(a0, b0, shift)
    want_a, want_b = ObjectState.from_cloud(a).hull, ObjectState.from_cloud(b).hull
    want = oracle_rows(a, want_a, b, want_b, tol)

    _, ha, _, hb = deferred_pair(a0, b0, shift)
    m = relation_matrix(a, ha, b, hb, tol)
    got = {name: getattr(m, name) for name in order}
    assert (tuple(got[f] for f in FLAGS[:3]), tuple(got[f] for f in FLAGS[3:])) == want

    # touch after the matrix, on its hulls, reads their kept interior answers
    assert touch(a, ha, b, hb, tol) == oracle_touch(a, want_a, b, want_b, tol)

    _, ha, _, hb = deferred_pair(a0, b0, shift)
    in_band = abs(_gjk(a, b)[0] - tol) <= _surface_band(tol)
    assert touch(a, ha, b, hb, tol) == oracle_touch(a, want_a, b, want_b, tol)
    surface_tested = (aabb_gap(compute_aabb(a), compute_aabb(b)) <= tol
                      and not want[0][0] and not want[1][0])
    if surface_tested and in_band:
        assert ha.built and hb.built


def certified(cloud, hull, tol):
    """The inner certificate by its definition, over Python floats: the
    point of ``cloud`` deepest in ``hull.box`` (the first of the deepest)
    has, in each of the 8 octants around it, a point of the hull's own
    cloud at least ``tol + 2 * _EPS_PLANE`` from it on every axis."""
    lo, hi = hull.box.corners
    depths = [min(min(x - l, h - x) for x, l, h in zip(q, lo, hi)) for q in cloud.tolist()]
    p = cloud.tolist()[depths.index(max(depths))]
    s = tol + 2 * _EPS_PLANE
    octants = set()
    for q in hull._own[0].tolist():
        rel = [x - y for x, y in zip(q, p)]
        if all(abs(r) >= s for r in rel):
            octants.add(tuple(r > 0 for r in rel))
    return len(octants) == 8


@settings(max_examples=400, deadline=None)
@given(pairs, st.sampled_from([None, (0.3, -0.2, 0.1)]))
@example((box_cloud((0, 0, 0), (0.2, 0.2, 0.2)), box_cloud((0.05, 0.05, 0.05), (0.1, 0.1, 0.1)),
          TOL), None)
def test_interior_test_equals_the_eager_oracle(pair, shift):
    """``_reaches_interior`` on a hull built on first read equals
    ``classify_points`` over every point against the hull built up front;
    where the inner certificate holds, it answers without a build, and
    every other yes comes from the built hull."""
    a0, b0, tol = pair
    a, ha, b, hb = deferred_pair(a0, b0, shift)
    for cloud, hull in ((a, hb), (b, ha)):
        eager = ObjectState.from_cloud(hull._own[0]).hull
        want = bool(np.any(classify_points(eager, cloud, tol) == RegionClass.INTERIOR))
        proof = certified(cloud, hull, tol)
        got = _reaches_interior(cloud, compute_aabb(cloud), hull, tol)
        assert got == want
        assert proof == (got and not hull.built)


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_built_hulls_give_the_eager_flags(pair):
    """Hulls built up front take the same paths: their boxes are their own."""
    a, b, tol = pair
    ha, hb = ObjectState.from_cloud(a).hull, ObjectState.from_cloud(b).hull
    m = relation_matrix(a, ha, b, hb, tol)
    assert m.rows() == oracle_rows(a, ha, b, hb, tol)
    assert m.swapped().rows() == oracle_rows(b, hb, a, ha, tol)
    assert touch(a, ha, b, hb, tol) == oracle_touch(a, ha, b, hb, tol)


def nested(gap, axis=0, low=False, kind="lattice", tol=TOL, seed=0):
    """(inner, container, ground, tol): a box lattice set ``gap`` inside one
    face of a container, which is a box lattice, the same lattice with
    noise, or a ground box (``ground`` is then its (lo, hi) and
    ``container`` its corners).  The face lies on the plane ``axis = 0``
    and the inner box's nearest coordinate is exactly ``-gap`` (``gap``
    when ``low``), so the gaps are exact; the other faces are far apart."""
    rng = np.random.default_rng(seed)
    size = rng.uniform(0.12, 0.3, 3)
    lo, hi = rng.uniform(-0.5, 0.5, 3) - size / 2, None
    lo[axis] = -size[axis]
    hi = lo + size
    hi[axis] = 0.0
    inner_size = size * rng.uniform(0.2, 0.5, 3)
    inner_lo = lo + (size - inner_size) * rng.uniform(0.2, 0.8, 3)
    inner_lo[axis] = -inner_size[axis]
    inner_hi = inner_lo + inner_size
    inner_hi[axis] = 0.0
    inner = box_cloud(inner_lo, inner_hi, per_edge=int(rng.integers(2, 4)))
    inner[:, axis] -= gap
    ground = None
    if kind == "ground":
        outer = np.array(list(itertools.product(*zip(lo, hi))))
        ground = (lo, hi)
    else:
        outer = box_cloud(lo, hi, per_edge=int(rng.integers(2, 5)), center=rng.integers(2) > 0)
        if kind == "noisy":
            outer += rng.uniform(-2e-3, 2e-3, outer.shape)
    if low:
        inner[:, axis] *= -1
        outer[:, axis] *= -1
        if ground is not None:
            lo, hi = lo.copy(), hi.copy()
            lo[axis], hi[axis] = -hi[axis], -lo[axis]
            ground = (lo, hi)
    return inner, outer, ground, tol


@st.composite
def nested_pairs(draw):
    """``nested`` at a gap near the tolerance, the box-gap margin ``tol -
    _DEEP_MARGIN`` or the cube half-side ``tol + 2 * _EPS_PLANE``, a few
    ulps either side, or well inside, flush or past the face."""
    tol = draw(tols)
    gap = draw(st.sampled_from([tol - _DEEP_MARGIN, tol + 2 * _EPS_PLANE, tol,
                                tol / 2, 2 * tol, 0.0, -tol / 2]))
    return nested(ulps_from(gap, draw(st.integers(-2, 2))), draw(st.integers(0, 2)),
                  draw(st.booleans()), draw(st.sampled_from(["lattice", "noisy", "ground"])),
                  tol, draw(seeds))


def hull_pair(cloud, ground=None):
    """(hull built on first read, hull built up front) of ``cloud``, or of
    the ground box ``ground`` whose corners ``cloud`` holds."""
    build = (partial(box_hull, *ground) if ground is not None
             else lambda: ObjectState.from_cloud(cloud).hull)
    return ConvexHull.deferred(cloud, compute_aabb(cloud), DEFAULT_GEOMETRY, build), build()


def corners_held(cloud, pts, s):
    """The corner certificate by its definition, over Python floats: each
    corner of ``cloud``'s box has, in each of the 8 octants around it, a
    point of ``pts`` at least ``s`` from it on every axis (at ``s = 0`` a
    point level with the corner counts on the high side)."""
    rows = pts.tolist()
    for corner in itertools.product(*zip(cloud.min(axis=0).tolist(), cloud.max(axis=0).tolist())):
        octants = set()
        for q in rows:
            rel = [x - c for x, c in zip(q, corner)]
            if all(r >= s or r <= -s for r in rel):
                octants.add(tuple(r >= s for r in rel))
        if len(octants) < 8:
            return False
    return True


def near_face(cloud, hull, tol):
    """The box-gap certificate by its definition: on some axis, the
    cloud's extreme lies within ``tol - _DEEP_MARGIN`` of ``hull.box``'s
    face, or beyond it."""
    (lo, hi), thr = hull.box.corners, tol - _DEEP_MARGIN
    c_lo, c_hi = cloud.min(axis=0).tolist(), cloud.max(axis=0).tolist()
    return any(cl - l <= thr or h - ch <= thr for l, h, cl, ch in zip(lo, hi, c_lo, c_hi))


containments = st.one_of(nested_pairs(), pairs.map(lambda p: (p[0], p[1], None, p[2])))


def check_exterior(inner, outer, ground, tol):
    own, _ = hull_pair(inner)
    hull, eager = hull_pair(outer, ground)
    proof = corners_held(inner, outer, 0.0)
    got = relation_matrix(inner, own, outer, hull, tol).a_in_bminus
    assert got == regions(inner, eager, tol)[2]
    assert proof == (not got and not hull.built)
    return proof


def check_wall(inner, outer, ground, tol):
    """None where the wall test is not reached (some point is exterior),
    else which certificate answered: "gap", "cubes" or None."""
    own, _ = hull_pair(inner)
    hull, eager = hull_pair(outer, ground)
    if regions(inner, eager, tol)[2]:
        return "exterior"
    gap = near_face(inner, hull, tol)
    cubes = not gap and corners_held(inner, outer, tol + 2 * _EPS_PLANE)
    got = touches_wall(inner, own, hull, tol)
    assert got == (wall_contact_distance(inner, eager) <= tol)
    assert hull.built == (not gap and not cubes)
    assert got if gap else not got if cubes else True
    return "gap" if gap else "cubes" if cubes else None


@settings(max_examples=300, deadline=None)
@given(containments)
def test_exterior_flag_equals_the_eager_oracle(case):
    """The exterior flag read first, on a hull built on first read, equals
    ``classify_points`` over every point against the hull built up front;
    it is False without a build exactly where the corner certificate
    holds."""
    check_exterior(*case)


@settings(max_examples=300, deadline=None)
@given(nested_pairs())
def test_wall_test_equals_the_eager_oracle(case):
    """Where no point is exterior, ``touches_wall`` equals
    ``wall_contact_distance(...) <= tol`` over the hull built up front; it
    leaves the hull unbuilt exactly where the box gap (yes) or the corner
    cubes (no) answer."""
    check_wall(*case)


@pytest.mark.parametrize("gap, low, proof", [(0.0, False, True), (0.0, True, False),
                                             (ulps_from(0.0, -1), False, False),
                                             (ulps_from(0.0, -1), True, False)])
def test_exterior_certificate_at_a_flush_face(gap, low, proof):
    """An inner box flush with the container's high face is surrounded: the
    face's points, level with its corners, count on the high side.  Flush
    with the low face, or one ulp past either, it is not, and the built
    hull reads no point as exterior."""
    assert check_exterior(*nested(gap, axis=1, low=low)) is proof


@pytest.mark.parametrize("kind", ["lattice", "ground"])
@pytest.mark.parametrize("low", [False, True])
@pytest.mark.parametrize("k, answer", [(-1, "gap"), (0, "gap"), (1, None)])
def test_wall_box_gap_margin(k, answer, low, kind):
    """One ulp inside ``tol - _DEEP_MARGIN`` and at it, the box gap answers
    yes without a build; one ulp beyond, the hull is built, and its planes
    give the same yes."""
    case = nested(ulps_from(TOL - _DEEP_MARGIN, k), axis=2, low=low, kind=kind)
    assert check_wall(*case) == answer


@pytest.mark.parametrize("kind", ["lattice", "ground"])
@pytest.mark.parametrize("low", [False, True])
@pytest.mark.parametrize("k, answer", [(-1, None), (0, "cubes"), (1, "cubes")])
def test_wall_cube_margin(k, answer, low, kind):
    """At the cube half-side ``tol + 2 * _EPS_PLANE`` and one ulp beyond, the
    corner cubes answer no without a build; one ulp short, the hull is
    built, and its planes give the same no."""
    case = nested(ulps_from(TOL + 2 * _EPS_PLANE, k), axis=0, low=low, kind=kind)
    assert check_wall(*case) == answer


@pytest.mark.xfail(strict=True, reason="touch compares a point's depth with eps_touch in "
                   "absolute coordinates, so a point exactly eps_touch deep is decided by "
                   "the rounding of the pair's position")
def test_touch_is_translation_invariant_at_the_tolerance():
    """Two lattices, B's bottom face exactly ``eps_touch`` deep in A, moved
    together to 400 positions: one relative pose, so one answer."""
    a = box_cloud((0, 0, 0), (0.17, 0.17, 0.17), center=False)
    b = box_cloud((0.05, 0.17 - TOL, 0.05), (0.12, 0.30, 0.12), center=False)
    rng = np.random.default_rng(0)
    answers = set()
    for _ in range(400):
        offset = rng.uniform(-2, 2, 3)
        sa, sb = ObjectState.from_cloud(a + offset), ObjectState.from_cloud(b + offset)
        answers.add(touch(sa.cloud, sa.hull, sb.cloud, sb.hull, TOL))
    assert len(answers) == 1
