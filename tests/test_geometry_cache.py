"""The single geometry path: every object state and contact set comes from
one per-trace ``GeometryCache``, and every config knob is read somewhere."""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from manipsem import relations
from manipsem.bench import MODES, AccuracyReport, evaluate_trace
from manipsem.config import EventConfig, GeometryConfig, RelationConfig, RunConfig
from manipsem.events import Frame, GeometryCache, ObjectInstance
from manipsem.geometry import aabb_gap, box_hull, touch
from manipsem.relations import PATTERN_LABELS, ObjectState, classify_ssr
from manipsem.synth import (SCENARIOS, SCENE_KINDS, ScenarioSpec, generate_synthetic_trace,
                            make_corpus, make_relation_scene)
from conftest import box_cloud, counted_builds

SRC = pathlib.Path(relations.__file__).parent


def test_static_box_ground_built_once():
    ground = ObjectInstance("table", "table", "ground", None, ((-1, -0.1, -1), (1, 0.0, 1)))
    frames = [Frame(k / 30.0, (ground, ObjectInstance(
        "cup", "cup", "object", box_cloud((0, 0, 0), (0.1, 0.1, 0.1)) + [0.01 * k, 0, 0], None)))
        for k in range(5)]
    cache = GeometryCache(frames, RunConfig())
    first = cache.state("table", 0)
    for k in range(1, 5):
        cache.state("cup", k)
        assert cache.state("table", k) is first
    assert first.hull.faces.shape == box_hull((-1, -0.1, -1), (1, 0.0, 1)).faces.shape


def fresh_state(obj, cfg):
    if obj.points is None:
        hull = box_hull(*obj.box)
        return ObjectState(obj.cloud(), hull, hull.aabb())
    return ObjectState.from_cloud(obj.points, cfg.geometry)


def oracle_report(trace, rows, cfg):
    """``evaluate_trace`` with states built from scratch on every frame."""
    rep = AccuracyReport()
    fresh = {}
    for gt in rows:
        if gt.frame >= len(trace.frames):
            continue
        if gt.frame not in fresh:
            fresh[gt.frame] = {o.id: fresh_state(o, cfg) for o in trace.frames[gt.frame].objects}
        states = fresh[gt.frame]
        if gt.a not in states or gt.b not in states:
            continue
        rep.total += 1
        for mode in MODES:
            pred = classify_ssr(states[gt.a], states[gt.b], cfg.relation, cfg.geometry,
                                mode=mode)
            rep.confusion[mode][(gt.label.value, pred.value)] += 1
            if pred in PATTERN_LABELS:
                rep.emitted[mode][pred.value] += 1
            if pred is gt.label:
                rep.correct[mode] += 1
    return rep


@pytest.mark.parametrize("name", SCENARIOS)
def test_evaluate_trace_matches_fresh_states(name, monkeypatch):
    cfg = RunConfig()
    gen = generate_synthetic_trace(ScenarioSpec(name, seed=1))
    expected = oracle_report(gen.trace, gen.relations, cfg)
    assert expected.total > 0

    builds = counted_builds(monkeypatch)
    got = evaluate_trace(gen.trace, gen.relations, cfg)
    assert (got.total, got.correct, got.confusion, got.emitted) == \
        (expected.total, expected.correct, expected.confusion, expected.emitted)
    evaluated = {g.frame for g in gen.relations if g.frame < len(gen.trace.frames)}
    clouds = sum(o.points is not None for f in evaluated for o in gen.trace.frames[f].objects)
    assert len(builds) < clouds        # states were re-used, not rebuilt per frame


WRAPS_PER_SCENE = dict(Ab=0, Ar=0, NoRelation=0, To=0, ArT=0, In=1, Wi=1, Pwi=1, Cr=2)


@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_scenes_out_of_touch_range_wrap_no_hull(kind, monkeypatch):
    """A hull is wrapped only where the boxes and clouds cannot decide: the
    Ab, Ar and NoRelation scenes, whose boxes lie further apart, and the To
    and ArT scenes, in surface contact, wrap none; In, Wi and Pwi wrap the
    container, whose planes classify the points deep in its box; Cr wraps
    both.  The report is the fresh-state one either way."""
    cfg = RunConfig()
    builds = counted_builds(monkeypatch)
    for seed in range(3):
        trace, rows = make_relation_scene(kind, np.random.default_rng(seed))
        want = oracle_report(trace, rows, cfg)
        builds.clear()
        got = evaluate_trace(trace, rows, cfg)
        assert (got.total, got.correct, got.confusion, got.emitted) == \
            (want.total, want.correct, want.confusion, want.emitted)
        assert len(builds) == WRAPS_PER_SCENE[kind], seed


def assert_memos_match_brute_force(trace, rows, cfg):
    """``evaluate_trace`` equals the loop over fresh states, and for every
    ground-truth pair, in both orders, the cache's matrix and contact memos
    equal the matrix and contact test of fresh states."""
    got = evaluate_trace(trace, rows, cfg)
    want = oracle_report(trace, rows, cfg)
    assert want.total > 0
    assert (got.total, got.correct, got.confusion, got.emitted) == \
        (want.total, want.correct, want.confusion, want.emitted)
    evaluated = sorted({gt.frame for gt in rows if gt.frame < len(trace.frames)})
    cache = GeometryCache([trace.frames[f] for f in evaluated], cfg)
    geo = cfg.geometry
    for k, f_idx in enumerate(evaluated):
        fresh = {o.id: fresh_state(o, cfg) for o in trace.frames[f_idx].objects}
        pairs = {(gt.a, gt.b) for gt in rows if gt.frame == f_idx}
        for a, b in pairs | {(b, a) for a, b in pairs}:
            sa, sb = fresh[a], fresh[b]
            assert cache.matrix(a, b, k) == relations.pattern_matrix(sa, sb, geo)
            assert cache.touching(a, b, k) == touch(sa.cloud, sa.hull, sb.cloud, sb.hull,
                                                   geo.eps_touch)


@pytest.mark.parametrize("noise", [0.0, 0.01])
@pytest.mark.parametrize("name", SCENARIOS)
def test_pair_memos_match_brute_force_on_moving_traces(name, noise):
    gen = generate_synthetic_trace(ScenarioSpec(name, seed=2, noise=noise))
    assert_memos_match_brute_force(gen.trace, gen.relations, RunConfig())


@pytest.mark.parametrize("seed", [1, 23])
def test_pair_memos_match_brute_force_on_corpus_scenes(seed):
    for trace, rows in make_corpus(27, seed):
        assert_memos_match_brute_force(trace, rows, RunConfig())


@pytest.mark.parametrize("name,noise", [("Screw", 0.0), ("Pour", 0.0), ("Cut", 0.0),
                                        ("Wipe", 0.0), ("Stir", 0.01)])
def test_contact_flag_matches_internal_touch(name, noise):
    cfg = RunConfig()
    geo = cfg.geometry
    gen = generate_synthetic_trace(ScenarioSpec(name, seed=1, noise=noise))
    cache = GeometryCache(gen.trace.frames, cfg)
    compared = 0
    for f_idx, frame in enumerate(gen.trace.frames):
        states = {o.id: cache.state(o.id, f_idx) for o in frame.objects}
        contacts = cache.contacts(f_idx)
        ids = sorted(states)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                sa, sb = states[a], states[b]
                if aabb_gap(sa.aabb, sb.aabb) > geo.eps_touch:
                    assert frozenset((a, b)) not in contacts
                    continue
                flag = frozenset((a, b)) in contacts
                assert touch(sa.cloud, sa.hull, sb.cloud, sb.hull, geo.eps_touch) == flag
                assert touch(sb.cloud, sb.hull, sa.cloud, sa.hull, geo.eps_touch) == flag
                for x, y in ((sa, sb), (sb, sa)):
                    assert classify_ssr(x, y, cfg.relation, geo, touching=flag) == \
                        classify_ssr(x, y, cfg.relation, geo)
                compared += 1
    assert compared > 0


@pytest.mark.parametrize("record", [GeometryConfig, RelationConfig, EventConfig, RunConfig])
def test_every_config_field_is_read(record):
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))
               if p.name != "config.py"]
    unread = [f.name for f in dataclasses.fields(record)
              if not any(re.search(rf"\.{f.name}\b", text) for text in sources)]
    assert unread == [], f"{record.__name__} fields no module reads: {unread}"
