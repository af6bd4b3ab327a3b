import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manipsem.actions import Primitive
from manipsem.config import RunConfig
from manipsem.events import (
    Frame,
    MonotonicityError,
    ObjectInstance,
    ParseError,
    SceneTrace,
    SchemaError,
    GeometryCache,
    dump_trace,
    dumps_trace,
    extract_atomic_actions,
    idle_spans,
    load_trace,
    segment_actions,
)
from manipsem.pipeline import analyze_trace, describe_document
from manipsem.synth import SCENARIOS, ScenarioSpec, Script, generate_synthetic_trace
from conftest import box_cloud


def frame_line(t, objects):
    return json.dumps({"t": t, "objects": objects})


def obj(oid, role="object", lo=(0, 0, 0), hi=(1, 1, 1), label=None, per_edge=2):
    return {"id": oid, "label": label or oid, "role": role,
            "points": box_cloud(lo, hi, per_edge).tolist()}


class TestLoadTrace:
    def test_two_frames(self):
        text = "\n".join([
            frame_line(0.0, [obj("a"), obj("b", lo=(2, 0, 0), hi=(3, 1, 1))]),
            frame_line(0.1, [obj("a"), obj("b", lo=(2, 0, 0), hi=(3, 1, 1))]),
        ])
        tr = load_trace(io.StringIO(text))
        assert len(tr) == 2
        assert {o.id for fr in tr.frames for o in fr.objects} == {"a", "b"}

    def test_byte_stream(self):
        text = frame_line(0.0, [obj("a")])
        tr = load_trace(io.BytesIO(text.encode("utf-8")))
        assert len(tr) == 1

    def test_bad_json_reports_line(self):
        text = frame_line(0.0, [obj("a")]) + "\n{not json}"
        with pytest.raises(ParseError) as err:
            load_trace(io.StringIO(text))
        assert err.value.lineno == 2

    def test_duplicate_left_hand(self):
        bad = [obj("h1", role="hand_left"), obj("h2", role="hand_left")]
        with pytest.raises(SchemaError):
            load_trace(io.StringIO(frame_line(0.0, bad)))

    def test_unknown_role(self):
        with pytest.raises(SchemaError):
            load_trace(io.StringIO(frame_line(0.0, [obj("a", role="paw")])))

    def test_missing_field(self):
        rec = {"id": "a", "role": "object", "points": [[0, 0, 0]] * 4}
        with pytest.raises(SchemaError):
            load_trace(io.StringIO(frame_line(0.0, [rec])))

    def test_unknown_frame_field(self):
        line = json.dumps({"t": 0.0, "objects": [], "weather": "sunny"})
        with pytest.raises(SchemaError):
            load_trace(io.StringIO(line))

    def test_too_few_points(self):
        rec = {"id": "a", "label": "a", "role": "object", "points": [[0, 0, 0]] * 3}
        with pytest.raises(SchemaError):
            load_trace(io.StringIO(frame_line(0.0, [rec])))

    def test_non_monotonic_timestamps(self):
        text = "\n".join([frame_line(0.1, [obj("a")]), frame_line(0.1, [obj("a")])])
        with pytest.raises(MonotonicityError):
            load_trace(io.StringIO(text))

    def test_label_rebinding_rejected(self):
        text = "\n".join([
            frame_line(0.0, [obj("a", label="cup")]),
            frame_line(0.1, [obj("a", label="mug")]),
        ])
        with pytest.raises(SchemaError):
            load_trace(io.StringIO(text))

    def test_ground_box(self):
        rec = {"id": "t", "label": "table", "role": "ground",
               "box": [[-1, -0.1, -1], [1, 0, 1]]}
        tr = load_trace(io.StringIO(frame_line(0.0, [rec])))
        assert tr.ground().id == "t"

    def test_generated_trace_round_trip(self):
        gen = generate_synthetic_trace(ScenarioSpec("Screw", seed=3))
        text = dumps_trace(gen.trace)
        back = load_trace(io.StringIO(text))
        assert len(back) == len(gen.trace)
        assert dumps_trace(back) == text

    def test_thousand_frame_generated_trace(self):
        gen = generate_synthetic_trace(ScenarioSpec("Screw", seed=1, frames=1000))
        assert len(gen.trace) == 1000
        assert len({o.id for fr in gen.trace.frames for o in fr.objects}) == 4


class TestTouchGraph:
    def test_hand_cup_ground(self):
        ground = ObjectInstance("table", "table", "ground", None,
                                ((-1, -0.1, -1), (1, 0.0, 1)))
        cup = ObjectInstance("cup", "cup", "object",
                             box_cloud((0, 0, 0), (0.08, 0.1, 0.08)), None)
        hand = ObjectInstance("hand", "hand", "hand_left",
                              box_cloud((0, 0.1, 0), (0.08, 0.18, 0.08)), None)
        fr = Frame(0.0, (ground, cup, hand))
        pairs = GeometryCache((fr,), RunConfig()).contacts(0)
        assert pairs == {frozenset(("hand", "cup")), frozenset(("cup", "table"))}

    def test_all_far_apart(self):
        a = ObjectInstance("a", "a", "object", box_cloud((0, 0, 0), (1, 1, 1)), None)
        b = ObjectInstance("b", "b", "object", box_cloud((2, 0, 0), (3, 1, 1)), None)
        assert GeometryCache((Frame(0.0, (a, b)),), RunConfig()).contacts(0) == set()

    def test_snug_cup_in_bowl(self):
        # thin-walled cup wedged into a bowl: walls in contact, so the pair
        # touches even though the cup sits inside the bowl's hull
        bowl_pts = box_cloud((0, 0.02, 0), (0.2, 0.22, 0.2), per_edge=4,
                             skip_top_inner=True, center=False)
        bowl_pts = np.vstack([bowl_pts, box_cloud((0, 0, 0), (0.2, 0.02, 0.2),
                                                  per_edge=3, center=False)])
        cup_side = box_cloud((0.002, 0.03, 0.002), (0.198, 0.3, 0.198), per_edge=4,
                             skip_top_inner=True, center=False)
        cup_pts = np.array([p for p in cup_side
                            if not (0.01 < p[0] < 0.19 and 0.01 < p[2] < 0.19
                                    and p[1] < 0.29)])
        ground = ObjectInstance("table", "table", "ground", None,
                                ((-1, -0.1, -1), (1, 0.0, 1)))
        bowl = ObjectInstance("bowl", "bowl", "object", bowl_pts, None)
        cup = ObjectInstance("cup", "cup", "object", cup_pts, None)
        pairs = GeometryCache((Frame(0.0, (ground, bowl, cup)),), RunConfig()).contacts(0)
        assert frozenset(("cup", "bowl")) in pairs
        assert frozenset(("bowl", "table")) in pairs
        assert frozenset(("cup", "table")) not in pairs


def assert_reuse_matches_fresh(frames, cfg=None):
    """Contact reuse through one cache across frames changes no touch graph."""
    cfg = cfg or RunConfig()
    cache = GeometryCache(frames, cfg)
    for f_idx, fr in enumerate(frames):
        fresh = GeometryCache((fr,), cfg).contacts(0)
        assert cache.contacts(f_idx) == fresh, f"frame {f_idx}"


def random_box_frames(rng, n_frames=8):
    """Boxes on a 1 cm grid moving by grid shifts, some groups sharing one
    shift, plus a float shift common to the whole frame; one box's cloud
    changes its point count halfway.  Sizes are multiples of 4 cm, so every
    lattice point (halves, quarters) stays on the grid and every
    point-to-face distance is a multiple of 1 cm: none sits at the touch
    tolerance, where rounding alone decides contact."""
    ground = ObjectInstance("table", "table", "ground", None, ((-1, -0.1, -1), (1, 0.0, 1)))
    n_boxes = int(rng.integers(2, 5))
    los = rng.integers(0, 25, (n_boxes, 3)) * 0.01
    los[:, 1] = rng.integers(0, 3, n_boxes) * 0.05
    sizes = rng.integers(1, 6, (n_boxes, 3)) * 0.04
    per_edge = [3] * n_boxes
    frames = []
    for f_idx in range(n_frames):
        if f_idx == n_frames // 2:
            per_edge[0] = 5
        group = rng.integers(0, 3, n_boxes)             # boxes in one group share a shift
        shifts = rng.integers(-2, 3, (3, 3)) * 0.01
        shifts[rng.random(3) < 0.4] = 0.0
        los = los + shifts[group]
        common = rng.uniform(-0.05, 0.05, 3)
        objs = [ground] + [
            ObjectInstance(f"b{k}", "box", "object",
                           box_cloud(los[k], los[k] + sizes[k], per_edge=per_edge[k]) + common, None)
            for k in range(n_boxes)]
        frames.append(Frame(f_idx / 30.0, tuple(objs)))
    return frames


class TestContactReuse:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_box_traces(self, seed):
        assert_reuse_matches_fresh(random_box_frames(np.random.default_rng(seed)))

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from(SCENARIOS), st.integers(min_value=0, max_value=99))
    def test_scenarios(self, name, seed):
        assert_reuse_matches_fresh(generate_synthetic_trace(ScenarioSpec(name, seed=seed)).trace.frames)


def static_trace(n=30):
    frames = []
    for k in range(n):
        frames.append(Frame(k / 30.0, (
            ObjectInstance("a", "a", "object", box_cloud((0, 0, 0), (1, 1, 1)), None),
            ObjectInstance("h", "h", "hand_left", box_cloud((3, 0, 0), (3.1, 0.1, 0.1)), None),
        )))
    return SceneTrace(tuple(frames), "static", 30.0)


class TestExtraction:
    def test_static_disjoint_scene_yields_nothing(self):
        res = extract_atomic_actions(static_trace())
        assert res.for_hand("left") == []
        assert not res.hand_busy["left"].any()

    def test_event_conservation(self):
        for name in ("Screw", "Place", "Hammer"):
            gen = generate_synthetic_trace(ScenarioSpec(name, seed=2))
            res = extract_atomic_actions(gen.trace)
            acts = res.for_hand(gen.hand)
            t = sum(a.primitive is Primitive.T for a in acts)
            u = sum(a.primitive is Primitive.U for a in acts)
            open_at_end = int(res.hand_busy[gen.hand][-1])
            # the hand chain's T events exceed U events exactly by the number
            # of contacts still open at the end of the trace
            assert t - u >= open_at_end
            assert (t - u == 0) == (open_at_end == 0)

    def test_debouncing_absorbs_flicker(self):
        # contact present except for single-frame dropouts
        frames = []
        for k in range(40):
            off = 0.2 if k in (15, 20, 25) else 0.0
            frames.append(Frame(k / 30.0, (
                ObjectInstance("a", "a", "object",
                               box_cloud((0, 0, 0), (0.1, 0.1, 0.1)), None),
                ObjectInstance("h", "h", "hand_left",
                               box_cloud((0, 0.1 + off, 0), (0.1, 0.2 + off, 0.1)), None),
            )))
        res = extract_atomic_actions(SceneTrace(tuple(frames), "flicker", 30.0))
        acts = res.for_hand("left")
        assert sum(a.primitive is Primitive.T for a in acts) == 1
        assert sum(a.primitive is Primitive.U for a in acts) == 0

    def test_replay_determinism(self):
        gen = generate_synthetic_trace(ScenarioSpec("Wipe", seed=4))
        first = extract_atomic_actions(gen.trace).for_hand("left")
        reloaded = load_trace(io.StringIO(dumps_trace(gen.trace)))
        second = extract_atomic_actions(reloaded).for_hand("left")
        assert [str(a) for a in first] == [str(a) for a in second]

    def test_object_place_is_named_by_its_label(self):
        sc = Script(np.random.default_rng(0), 0.0, per_edge=3)
        sc.add_ground()
        sc.add("plate1", "plate", "object", (0.3, 0.02, 0.3), (0.1, 0.01, 0.0))
        sc.add("block1", "box", "object", (0.1, 0.1, 0.1), (0.1, 0.07, 0.0))
        sc.add("hand_l", "left hand", "hand_left", (0.08, 0.08, 0.08), (0.1, 0.3, 0.0))
        sc.hold(6)
        sc.move({"hand_l": (0.0, -0.14, 0.0)}, 10)     # down onto the block's top
        sc.hold(14)
        analysis = analyze_trace(sc.build_trace("stacked"), RunConfig())
        (touch,) = analysis.extraction.for_hand("left")
        assert (str(touch), touch.place_label) == ("(Hand_L, T, block1, To, plate1)", "plate")
        doc = describe_document(analysis, ("left",))
        assert "The left hand touches the top of a box on a plate." in doc


class TestSegmentation:
    def test_screw_single_snippet(self):
        gen = generate_synthetic_trace(ScenarioSpec("Screw", seed=0))
        res = extract_atomic_actions(gen.trace)
        snips = segment_actions(res, "left")
        assert len(snips) == 1
        snip = snips[0]
        assert snip.actions[0].primitive is Primitive.T
        assert not snip.actions[0].subject.is_merged
        assert len(snip.actions) == len(res.for_hand("left"))
        # the hand is free again at the end of the span
        assert not res.hand_busy["left"][snip.frame_span[1] + 1:].any()

    def test_idle_hand(self):
        res = extract_atomic_actions(static_trace())
        assert segment_actions(res, "left") == []
        spans = idle_spans(res, "left")
        assert spans == [(0, res.n_frames - 1)]

    def test_idle_spans_complement_snippets(self):
        gen = generate_synthetic_trace(ScenarioSpec("Place", seed=1))
        res = extract_atomic_actions(gen.trace)
        snips = segment_actions(res, "left")
        idles = idle_spans(res, "left")
        covered = set()
        for lo, hi in [s.frame_span for s in snips] + idles:
            covered.update(range(lo, hi + 1))
        assert covered == set(range(res.n_frames))

    def test_boundary_properties(self):
        for name in ("Lift", "Wipe", "Drink"):
            gen = generate_synthetic_trace(ScenarioSpec(name, seed=3))
            res = extract_atomic_actions(gen.trace)
            for snip in segment_actions(res, "left"):
                assert snip.actions[0].primitive is Primitive.T
                assert res.hand_busy["left"][snip.frame_span[0]]
