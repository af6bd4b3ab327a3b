"""The box tests and the GJK support loop against their definitions, on
random, grid-snapped (steps of the tolerance and half of it), box-lattice,
coincident and tied inputs.

The box gap is the norm of the per-axis gaps, bit for bit; the vertical
and footprint tests are their comparisons written out.  GJK converges
within its iteration cap, and its distance lies between the widest gap a
brute-force search over support directions finds and the least distance
between two points; so it is non-zero where that gap exceeds GJK's zero
threshold (distances below 1e-6 read 0).  Where a point of one cloud lies
deep inside the other's hull, it is zero.
"""

import functools
import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st

from manipsem.geometry import DEFAULT_GEOMETRY, Aabb, _gjk, aabb_gap, compute_aabb
from manipsem.relations import FOOTPRINT_MARGIN, _above, footprint_overlap
from conftest import box_cloud
from test_contact_oracle import pairs

TOL = DEFAULT_GEOMETRY.eps_touch
seeds = st.integers(0, 2 ** 32 - 1)
steps = st.sampled_from([TOL, TOL / 2])


def bits(x):
    """A float's exact value, telling -0.0 from 0.0."""
    return float(x).hex()


def box(lo, hi):
    return Aabb(np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64))


@st.composite
def random_boxes(draw):
    """Two boxes of random corners, from far apart on every axis to one
    inside the other, some flat on an axis."""
    rng = np.random.default_rng(draw(seeds))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 1e3]))
    out = []
    for _ in range(2):
        lo = rng.uniform(-1, 1, 3) * scale
        size = rng.uniform(0, 1, 3) * scale
        if draw(st.booleans()):
            size[draw(st.integers(0, 2))] = 0.0
        out.append(box(lo, lo + size))
    return tuple(out)


@st.composite
def grid_boxes(draw):
    """Two boxes with corners on a lattice whose step divides the
    tolerance, so faces sit exactly the tolerance apart or together."""
    rng = np.random.default_rng(draw(seeds))
    step = draw(steps)
    out = []
    for _ in range(2):
        lo = rng.integers(-8, 8, 3) * step
        out.append(box(lo, lo + rng.integers(0, 8, 3) * step))
    return tuple(out)


@st.composite
def lattice_boxes(draw):
    """The boxes of two box-lattice clouds, as the relation scenes have."""
    a, b, _ = draw(pairs)
    return compute_aabb(a), compute_aabb(b)


@st.composite
def tied_boxes(draw):
    """Two boxes whose gaps are equal on two or three axes, or whose faces,
    footprints and centres coincide exactly or by the tolerance."""
    rng = np.random.default_rng(draw(seeds))
    lo = rng.uniform(-1, 1, 3)
    size = rng.uniform(0.01, 0.5, 3)
    a = box(lo, lo + size)
    kind = draw(st.sampled_from(["diagonal", "face", "coincident", "copy"]))
    if kind == "diagonal":
        gap = draw(st.sampled_from([TOL, TOL / 2, float(rng.uniform(0, 1))]))
        sign = rng.choice([-1.0, 1.0], 3)
        shift = np.where(sign > 0, size + gap, -(size + gap))
        if draw(st.booleans()):
            shift[draw(st.integers(0, 2))] = 0.0
        return a, box(lo + shift, lo + shift + size)
    if kind == "face":
        axis = draw(st.integers(0, 2))
        lo_b = lo.copy()
        lo_b[axis] = lo[axis] + size[axis] + draw(st.sampled_from([0.0, TOL, -TOL]))
        return a, box(lo_b, lo_b + size)
    if kind == "coincident":
        return a, a
    return a, box(lo.copy(), lo + size)


boxes = st.one_of(random_boxes(), grid_boxes(), lattice_boxes(), tied_boxes())
slacks = st.sampled_from([0.0, TOL, 0.03, FOOTPRINT_MARGIN])

# Two boxes apart on two axes: a sum of the squared gaps in Python differs
# from numpy's dot in the last bit here.
DIAGONAL = (box((-1.0, -1.0, 0.0), (0.0, 0.0, 1.0)),
            box((0.14415961271963373, 0.9486494471372439, 0.0), (2.0, 2.0, 1.0)))


def overlap(a, b, axis):
    """The length of the two boxes' common interval on ``axis``."""
    return (min(a.max_corner[axis], b.max_corner[axis])
            - max(a.min_corner[axis], b.min_corner[axis]))


@settings(max_examples=500, deadline=None)
@given(boxes, slacks)
@example(DIAGONAL, 0.0)
def test_box_tests_equal_their_definitions(pair, slack):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        gaps = np.maximum(np.maximum(x.min_corner - y.max_corner, y.min_corner - x.max_corner), 0)
        assert bits(aabb_gap(x, y)) == bits(np.linalg.norm(gaps))
        assert _above(x, y, slack) == (x.min_corner[1] >= y.max_corner[1] - slack
                                       and x.center()[1] > y.center()[1])
        assert footprint_overlap(x, y, slack) == (overlap(x, y, 0) > slack
                                                  and overlap(x, y, 2) > slack)


@st.composite
def coincident_clouds(draw):
    """A cloud against itself, a copy or a lattice step away from it."""
    rng = np.random.default_rng(draw(seeds))
    a = rng.integers(0, 6, (draw(st.integers(4, 30)), 3)) * draw(steps)
    b = a.copy() if draw(st.booleans()) else a + rng.integers(-1, 2, 3) * draw(steps)
    return a, b


@st.composite
def tied_clouds(draw):
    """Box lattices whose faces meet, so many points tie as supports."""
    lo = np.array([draw(st.floats(-0.5, 0.5)) for _ in range(3)])
    size = np.array([draw(st.sampled_from([0.05, 0.1, 0.2])) for _ in range(3)])
    axis = draw(st.integers(0, 2))
    lo_b = lo.copy()
    lo_b[axis] += size[axis] + draw(st.sampled_from([0.0, TOL, TOL / 2]))
    per_edge = draw(st.integers(2, 4))
    return (box_cloud(lo, lo + size, per_edge=per_edge),
            box_cloud(lo_b, lo_b + size, per_edge=per_edge))


clouds = st.one_of(pairs.map(lambda p: p[:2]), coincident_clouds(), tied_clouds())


def unit_rows(v):
    norm = np.linalg.norm(v, axis=1)
    return v[norm > 1e-12] / norm[norm > 1e-12, None]


@functools.lru_cache(maxsize=None)
def triples(n):
    return np.array(list(itertools.combinations(range(n), 3))).reshape(-1, 3).T


def triple_normals(pts):
    """The unit normal of every plane through three points of ``pts``."""
    i, j, k = triples(len(pts))
    return unit_rows(np.cross(pts[j] - pts[i], pts[k] - pts[i]))


def separation(a, b, normals):
    """The widest gap between the projections of ``a`` and ``b`` on the
    coordinate axes, every difference of a point of one and a point of the
    other, and ``normals``, both ways: a lower bound on the distance
    between their hulls."""
    dirs = np.vstack([np.eye(3), unit_rows((a[:, None] - b[None]).reshape(-1, 3)), normals])
    dirs = np.vstack([dirs, -dirs])
    return float(((a @ dirs.T).min(axis=0) - (b @ dirs.T).max(axis=0)).max())


def holds_a_point_of(a, normals, b, depth=1e-4):
    """Whether a point of ``b`` lies ``depth`` deep inside ``a``'s extent
    along each of ``normals``, those of every plane through three points of
    ``a``: then it is inside ``a``'s hull, the meet of those extents.  A
    flat ``a`` has no inside."""
    off = a @ normals.T
    lo, hi = off.min(axis=0), off.max(axis=0)
    if np.all(hi - lo <= 2 * depth):
        return False
    proj = b @ normals.T
    return bool(np.any(np.all((proj >= lo + depth) & (proj <= hi - depth), axis=1)))


@settings(max_examples=400, deadline=None)
@given(clouds)
def test_gjk_lies_within_brute_force_bounds(pair):
    a, b = pair
    na, nb = triple_normals(a), triple_normals(b)
    nearest = float(np.sqrt(((a[:, None] - b[None]) ** 2).sum(axis=2)).min())
    apart = separation(a, b, np.vstack([na, nb]))
    inside = holds_a_point_of(a, na, b) or holds_a_point_of(b, nb, a)
    for x, y in ((a, b), (b, a)):
        dist, converged = _gjk(x, y)
        assert converged
        assert dist <= nearest + 1e-9
        assert dist >= apart - 1e-9 or (dist == 0.0 and apart <= 1e-6)
        if inside:
            assert dist == 0.0
