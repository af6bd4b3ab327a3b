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

Each pair is compared with its oracle at the same coordinates, never with
the answer for the same relative pose elsewhere: where a point lies
exactly ``eps_touch`` deep, the answer depends on how the position rounds
(the strict xfail at the end pins that fault), so the strategies keep
translated copies of one pose out of every comparison.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from manipsem.geometry import (
    ConvexHull,
    DEFAULT_GEOMETRY,
    RegionClass,
    _EPS_PLANE,
    _gjk,
    _reaches_interior,
    _surface_band,
    aabb_gap,
    classify_points,
    compute_aabb,
    hull_surface_distance,
    relation_matrix,
    touch,
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
