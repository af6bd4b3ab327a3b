"""The per-trace track table of ``GeometryCache`` against fresh per-frame
geometry, and the memory of the whole pipeline on dense clouds."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from manipsem import events
from manipsem.config import RunConfig
from manipsem.events import Frame, GeometryCache, ObjectInstance, SceneTrace
from manipsem.geometry import _surface_band, aabb_gap, box_hull, gjk_distance, touch
from manipsem.pipeline import analyze_trace
from manipsem.relations import ObjectState, _pattern_label, pattern_matrix
from manipsem.synth import SCENARIOS, ScenarioSpec, generate_synthetic_trace
from conftest import box_cloud, counted_builds
from helpers import NOISY_OVERRIDES

GROUND = ObjectInstance("table", "table", "ground", None, ((-1, -0.1, -1), (1, 0.0, 1)))


def fresh_state(obj, cfg):
    if obj.points is None:
        hull = box_hull(*obj.box)
        return ObjectState(obj.cloud(), hull, hull.aabb())
    return ObjectState.from_cloud(obj.points, cfg.geometry)


def assert_matches_fresh(frames, cfg):
    """Every state, box, centroid, contact set and containment label the
    cache gives equals the one computed from scratch for that frame, and
    every hull, whether the cache built it or not, equals that frame's
    fresh hull bit for bit."""
    cache = GeometryCache(frames, cfg)
    eps = cfg.geometry.eps_touch
    centroids = {}
    for f_idx, frame in enumerate(frames):
        fresh = {o.id: fresh_state(o, cfg) for o in frame.objects}
        assert cache.ids[f_idx] == sorted(fresh)
        for oid, want in fresh.items():
            got = cache.state(oid, f_idx)
            where = f"frame {f_idx} object {oid}"
            for box in (got.aabb, cache.aabb(oid, f_idx)):
                assert np.array_equal(box.min_corner, want.aabb.min_corner), where
                assert np.array_equal(box.max_corner, want.aabb.max_corner), where
            centroids.setdefault(oid, []).append(want.cloud.mean(axis=0))
            assert cache.seen(oid, f_idx) == len(centroids[oid]), where
            assert np.array_equal(cache.track(oid, f_idx, 4), centroids[oid][-4:]), where
        ids = sorted(fresh)
        want_contacts = set()
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                sa, sb = fresh[a], fresh[b]
                assert cache.gap(a, b, f_idx) == pytest.approx(aabb_gap(sa.aabb, sb.aabb),
                                                               rel=0, abs=1e-15)
                if touch(sa.cloud, sa.hull, sb.cloud, sb.hull, eps):
                    want_contacts.add(frozenset((a, b)))
        assert cache.contacts(f_idx) == want_contacts, f"frame {f_idx}"
        for a in ids:
            for b in ids:
                if a != b and cache.gap(a, b, f_idx) <= eps:
                    m = pattern_matrix(fresh[a], fresh[b], cfg.geometry)
                    assert cache.matrix(a, b, f_idx) == m, f"frame {f_idx} {a} {b}"
                    assert cache.pattern(a, b, f_idx) == _pattern_label(
                        fresh[a], fresh[b], m, cfg.relation, cfg.geometry), f"frame {f_idx} {a} {b}"
        # read after the cache's own contact and pattern tests, which build
        # only the hulls they need
        for oid, want in fresh.items():
            got = cache.state(oid, f_idx).hull
            where = f"frame {f_idx} object {oid}"
            assert np.array_equal(got.vertices, want.hull.vertices), where
            assert np.array_equal(got.face_planes, want.hull.face_planes), where
    return cache


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenarios_match_fresh_geometry(name):
    for seed in (1, 2, 3):
        gen = generate_synthetic_trace(ScenarioSpec(name, seed=seed))
        assert_matches_fresh(gen.trace.frames, RunConfig())


@pytest.mark.parametrize("name", SCENARIOS)
def test_noisy_scenarios_match_fresh_geometry(name):
    # no cloud is a translation of the one before: nothing is re-used
    gen = generate_synthetic_trace(ScenarioSpec(name, seed=3, noise=0.01))
    assert_matches_fresh(gen.trace.frames, RunConfig().with_overrides(**NOISY_OVERRIDES))


def test_clean_round_wraps_no_hull(monkeypatch):
    """Analyzing the 14 clean seed-1 traces wraps no hull: boxes and clouds
    decide every contact and containment test.  A point they prove interior
    needs no wrap, and neither does a cloud whose box corners the other
    object's cloud surrounds, as Stir's spoon in its bowl."""
    traces = [generate_synthetic_trace(ScenarioSpec(name, seed=1)).trace for name in SCENARIOS]
    builds = counted_builds(monkeypatch)
    for trace in traces:
        analyze_trace(trace, RunConfig())
    assert builds == []


def cloud(oid, lo, hi, role="object", per_edge=3):
    return ObjectInstance(oid, oid, role, box_cloud(lo, hi, per_edge=per_edge), None)


def counted_touches(monkeypatch):
    calls = []
    real = events.touch

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(events, "touch", counted)
    return calls


def test_point_count_change_rebuilds_once(monkeypatch):
    builds = counted_builds(monkeypatch)
    frames = []
    for k in range(8):
        shift = np.array([0.01 * k, 0.0, 0.0])
        per_edge = 3 if k < 4 else 4
        frames.append(Frame(k / 30.0, (
            GROUND, ObjectInstance("cup", "cup", "object",
                                   box_cloud((0, 0, 0), (0.08, 0.1, 0.08), per_edge) + shift, None))))
    assert_matches_fresh(frames, RunConfig())
    builds.clear()
    cache = GeometryCache(frames, RunConfig())
    assert builds == []             # hulls are built on first read
    states = [cache.state("cup", k) for k in range(len(frames))]
    for state in states:
        state.hull.face_planes
    assert builds == [27] * 4 + [57] * 4    # one build per pose read
    for state in states:
        state.hull.face_planes
    assert len(builds) == 8         # reading a state again builds nothing


def test_late_and_vanishing_objects():
    frames = []
    for k in range(9):
        objs = [GROUND, cloud("hand", (0.1 * k / 8, 0.1, 0), (0.1 * k / 8 + 0.08, 0.18, 0.08),
                              role="hand_left")]
        if k >= 3:                      # the cup appears late ...
            objs.append(cloud("cup", (0.1, 0, 0), (0.18, 0.1, 0.08)))
        if k < 5 or k > 6:              # ... and the box is gone for two frames
            objs.append(cloud("box", (0.3, 0, 0), (0.4, 0.1, 0.1)))
        frames.append(Frame(k / 30.0, tuple(objs)))
    cache = assert_matches_fresh(frames, RunConfig())
    assert cache.seen("cup", 2) == 0 and cache.seen("cup", 3) == 1
    assert cache.seen("box", 6) == 5 and cache.seen("box", 8) == 7
    assert cache.gap("box", "hand", 5) == float("inf")


def test_co_moving_pair_reuses_contact_until_it_separates(monkeypatch):
    touches = counted_touches(monkeypatch)
    frames = []
    for k in range(10):
        carry = np.array([0.02 * k, 0.05 * k, 0.0]) if k < 6 else np.array([0.1, 0.25, 0.0])
        # the hand rides on the cup, then slides along its top, then lifts off
        slide = np.array([0.01 * max(0, k - 5), 0.02 * (k == 9), 0.0])
        frames.append(Frame(k / 30.0, (
            GROUND,
            ObjectInstance("cup", "cup", "object",
                           box_cloud((0, 0.2, 0), (0.08, 0.3, 0.08)) + carry, None),
            ObjectInstance("hand", "hand", "hand_left",
                           box_cloud((0, 0.3, 0), (0.08, 0.38, 0.08)) + carry + slide, None))))
    assert_matches_fresh(frames, RunConfig())
    touches.clear()
    cache = GeometryCache(frames, RunConfig())
    hits = [frozenset(("cup", "hand")) in cache.contacts(k) for k in range(10)]
    assert hits == [True] * 9 + [False]
    tested = [args for args in touches if len(args[0]) == len(args[2]) == 27]
    # one test while the pair moves together, one per sliding frame; the
    # broad phase rejects the lifted frame
    assert len(tested) == 1 + 3


def test_ground_box_change():
    boxes = [((-1, -0.1, -1), (1, 0.0, 1))] * 3 + [((-1, -0.1, -1), (1, 0.02, 1))] * 2 \
        + [((-0.5, -0.1, -1), (1.5, 0.02, 1))] * 2
    frames = [Frame(k / 30.0, (ObjectInstance("table", "table", "ground", None, box),
                               cloud("cup", (0, 0.02, 0), (0.08, 0.12, 0.08))))
              for k, box in enumerate(boxes)]
    cache = assert_matches_fresh(frames, RunConfig())
    assert cache.state("table", 0) is cache.state("table", 2)
    assert cache.state("table", 2) is not cache.state("table", 3)
    assert cache.contacts(0) == set() and cache.contacts(3) == {frozenset(("cup", "table"))}


def test_long_rigid_track_builds_only_the_hull_read(monkeypatch):
    """3000 moved states build no hull until one is read, and reading the
    last one builds exactly its own hull, from its own cloud."""
    builds = counted_builds(monkeypatch)
    base = box_cloud((0, 0, 0), (0.08, 0.1, 0.08), per_edge=2)
    clouds = [base + [0.001 * k, 0.0005 * k, 0.0] for k in range(3000)]
    cache = GeometryCache([Frame(k / 30.0, (ObjectInstance("cup", "cup", "object", c, None),))
                           for k, c in enumerate(clouds)], RunConfig())
    states = [cache.state("cup", k) for k in range(len(clouds))]
    assert builds == []
    got = states[-1].hull
    vertices, planes = got.vertices, got.face_planes
    assert builds == [len(base)]
    assert not any(s.hull.built for s in states[:-1])
    want = ObjectState.from_cloud(clouds[-1]).hull
    assert np.array_equal(vertices, want.vertices)
    assert np.array_equal(planes, want.face_planes)


EPS_TOUCH = RunConfig().geometry.eps_touch


def ulps_from(x, k):
    """x moved by k representable floats, up for k > 0."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, np.inf if k > 0 else -np.inf))
    return x


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.floats(0.0, 2 * EPS_TOUCH),
                 st.integers(-4, 4).map(lambda k: ulps_from(EPS_TOUCH, k))),
       st.sampled_from([0.0, 0.05]), st.sampled_from([0.0, 0.003, -0.02]))
@example(EPS_TOUCH, 0.0, 0.0)
def test_touching_gate_matches_brute_force(gap, dy, dz):
    """``GeometryCache.touching`` against ``touch`` on fresh hulls, for two
    boxes whose gap straddles ``eps_touch``.  Beyond it no hull is built;
    within it the clouds' distance decides, and both hulls are built only
    where that distance lies in the band around ``eps_touch`` where the
    hulls' vertices must decide."""
    a = box_cloud((-0.1, 0.0, 0.0), (0.0, 0.1, 0.1))
    b = box_cloud((gap, dy, dz), (gap + 0.08, dy + 0.1, dz + 0.1))
    cfg = RunConfig()
    sa, sb = ObjectState.from_cloud(a), ObjectState.from_cloud(b)
    want = touch(a, sa.hull, b, sb.hull, EPS_TOUCH)
    beyond = aabb_gap(sa.aabb, sb.aabb) > EPS_TOUCH
    in_band = abs(gjk_distance(a, b) - EPS_TOUCH) <= _surface_band(EPS_TOUCH)
    frame = Frame(0.0, (ObjectInstance("a", "a", "object", a, None),
                        ObjectInstance("b", "b", "object", b, None)))
    for pair in (("a", "b"), ("b", "a")):
        with pytest.MonkeyPatch.context() as mp:
            builds = counted_builds(mp)
            assert GeometryCache((frame,), cfg).touching(*pair, 0) == want
        assert len(builds) == (2 if in_band and not beyond else 0)


def dense_trace(frames=30, per_edge=27):
    cup = box_cloud((0, 0, 0), (0.1, 0.12, 0.1), per_edge=per_edge)
    hand = box_cloud((0, 0, 0), (0.1, 0.08, 0.1), per_edge=per_edge)
    out = []
    for k in range(frames):
        lift = max(0, k - 10) * 0.01
        drop = max(0.0, 0.2 - 0.02 * k)
        out.append(Frame(k / 30.0, (
            GROUND,
            ObjectInstance("cup", "cup", "object", cup + [0, 0.001 + lift, 0], None),
            ObjectInstance("hand", "hand", "hand_left", hand + [0, 0.121 + drop + lift, 0], None))))
    return SceneTrace(tuple(out), "dense", 30.0)


def test_dense_clouds_bounded_memory():
    """4059-point clouds through load_trace and analyze_trace: memory stays
    a small multiple of the stacked points, so no per-frame N x M array."""
    trace = dense_trace()
    source = io.StringIO(events.dumps_trace(trace))
    stacked = sum(o.points.nbytes for fr in trace.frames for o in fr.objects
                  if o.points is not None)
    tracemalloc.start()
    try:
        loaded = events.load_trace(source, "dense")
        analysis = analyze_trace(loaded, RunConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.frames[0].objects[1].points) == 4059
    assert analysis.extraction.for_hand("left"), "the hand should touch and lift the cup"
    # reading the text and its lines is ~4x the stacked points, the stacks
    # and the track table ~2x more; one 4059 x 4059 float array would
    # add ~23x
    assert peak < 8 * stacked, (peak, stacked)


def test_load_trace_reads_the_text_line_by_line():
    """load_trace alone on the dense trace holds the text, one parsed line
    and the arrays of the lines read so far: ~3.5x the stacked points.  A
    list of all the lines, as ``str.splitlines`` builds, adds ~2x; holding
    parsed numbers across lines adds ~0.6x."""
    trace = dense_trace()
    source = io.StringIO(events.dumps_trace(trace))
    stacked = sum(o.points.nbytes for fr in trace.frames for o in fr.objects
                  if o.points is not None)
    tracemalloc.start()
    try:
        loaded = events.load_trace(source, "dense")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded.frames) == len(trace.frames)
    assert peak < 4 * stacked, (peak, stacked)
