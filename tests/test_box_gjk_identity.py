"""The box tests and the GJK support loop on Python floats against their
frozen numpy forms (``box_gjk_frozen.py``): on random, grid-snapped
(steps of the tolerance and half of it), box-lattice, coincident and tied
inputs, every result equals the frozen one bit for bit."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from manipsem.geometry import DEFAULT_GEOMETRY, Aabb, _gjk, aabb_gap, compute_aabb
from manipsem.relations import FOOTPRINT_MARGIN, _above, footprint_overlap
from box_gjk_frozen import (frozen_above, frozen_aabb_gap, frozen_footprint_overlap,
                            frozen_gjk)
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


@settings(max_examples=500, deadline=None)
@given(boxes, slacks)
@example(DIAGONAL, 0.0)
def test_box_tests_equal_the_frozen_numpy_forms(pair, slack):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        assert bits(aabb_gap(x, y)) == bits(frozen_aabb_gap(x, y))
        assert _above(x, y, slack) == frozen_above(x, y, slack)
        assert footprint_overlap(x, y, slack) == frozen_footprint_overlap(x, y, slack)


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


@settings(max_examples=400, deadline=None)
@given(clouds)
def test_gjk_equals_the_frozen_support_loop(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        dist, converged = _gjk(x, y)
        want, want_converged = frozen_gjk(x, y)
        assert (bits(dist), converged) == (bits(want), want_converged)
