import hashlib
import json

import numpy as np
import pytest

from manipsem.config import RunConfig
from manipsem.events import dumps_trace, extract_atomic_actions
from manipsem.relations import ObjectState, SsrLabel, classify_ssr, ssr_dual
from manipsem.synth import (
    SCENARIOS,
    SCENE_KINDS,
    ScenarioSpec,
    UnknownScenario,
    analytic_box_ssr,
    Body,
    generate_synthetic_trace,
    make_corpus,
    make_relation_scene,
)


def aa_key(aa):
    return (aa.subject.side, aa.subject.carried, aa.primitive.value,
            aa.object_token(), aa.relation.value, aa.place)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = generate_synthetic_trace(ScenarioSpec("Cut", seed=9, noise=0.01))
        b = generate_synthetic_trace(ScenarioSpec("Cut", seed=9, noise=0.01))
        assert dumps_trace(a.trace) == dumps_trace(b.trace)

    def test_different_seed_differs(self):
        a = generate_synthetic_trace(ScenarioSpec("Cut", seed=1))
        b = generate_synthetic_trace(ScenarioSpec("Cut", seed=2))
        assert dumps_trace(a.trace) != dumps_trace(b.trace)

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            ScenarioSpec("Juggle")


def _generator_digest():
    """sha256 over every byte the generator hands out for a fixed set of
    scenario specs and one relation corpus."""
    h = hashlib.sha256()

    def feed(trace, relations):
        h.update(dumps_trace(trace).encode())
        for g in relations:
            h.update(f"{g.frame}|{g.a}|{g.b}|{g.label.value}\n".encode())

    specs = [ScenarioSpec(name, seed=seed, noise=noise)
             for name in SCENARIOS for seed in (0, 1) for noise in (0.0, 0.01)]
    specs.append(ScenarioSpec("Stir", seed=3, noise=0.02, frames=150, points_per_edge=4))
    for spec in specs:
        gen = generate_synthetic_trace(spec)
        feed(gen.trace, gen.relations)
        h.update(json.dumps([[str(a) for a in gen.actions], gen.name,
                             gen.bindings, gen.hand], sort_keys=True).encode())
    for trace, relations in make_corpus(18, 1):
        feed(trace, relations)
    return h.hexdigest()


def test_generator_output_is_pinned():
    # every golden, closure figure and benchmark input comes from these bytes
    assert _generator_digest() == (
        "089349fb61285d85d72a989038d3f2900065430d45aa18cf1b7b9500e68dc197")


class TestClosure:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_noise_free_extraction_matches_ground_truth(self, name):
        gen = generate_synthetic_trace(ScenarioSpec(name, seed=11))
        got = extract_atomic_actions(gen.trace).for_hand(gen.hand)
        assert [aa_key(a) for a in got] == [aa_key(a) for a in gen.actions]

    def test_touch_graph_stable_under_bounded_noise(self):
        cfg = RunConfig().with_overrides(eps_touch=0.05, delta_move=0.005,
                                         delta_rel=0.01, distinguish_in_su="false")
        clean = generate_synthetic_trace(ScenarioSpec("Hold", seed=6))
        noisy = generate_synthetic_trace(ScenarioSpec("Hold", seed=6, noise=0.02))
        busy_a = extract_atomic_actions(clean.trace).hand_busy["left"]
        busy_b = extract_atomic_actions(noisy.trace, cfg).hand_busy["left"]
        # same debounced contact episodes; edges may shift by detection latency
        def episodes(busy):
            flips = np.flatnonzero(np.diff(busy.astype(int)))
            return busy[0], [int(f) for f in flips]
        first_a, flips_a = episodes(busy_a)
        first_b, flips_b = episodes(busy_b)
        assert first_a == first_b
        assert len(flips_a) == len(flips_b)
        assert all(abs(x - y) <= 4 for x, y in zip(flips_a, flips_b))

    def test_ground_truth_relations_present(self):
        gen = generate_synthetic_trace(ScenarioSpec("Screw", seed=0))
        assert gen.relations
        frames = {g.frame for g in gen.relations}
        assert all(f % 10 == 0 for f in frames)
        ids = {g.a for g in gen.relations} | {g.b for g in gen.relations}
        assert "table" in ids


class TestRelationScenes:
    @pytest.mark.parametrize("kind", SCENE_KINDS)
    def test_hull_classifier_matches_construction(self, kind):
        rng = np.random.default_rng(99)
        for _ in range(5):
            trace, gts = make_relation_scene(kind, rng)
            frame = trace.frames[0]
            states = {o.id: ObjectState.from_cloud(o.points) for o in frame.objects}
            fwd = [g for g in gts if g.frame == 0 and g.a == "obj_a"][0]
            rev = [g for g in gts if g.frame == 0 and g.a == "obj_b"][0]
            assert classify_ssr(states["obj_a"], states["obj_b"]) is fwd.label
            assert classify_ssr(states["obj_b"], states["obj_a"]) is rev.label
            assert rev.label is ssr_dual(fwd.label)

    def test_corpus_covers_all_kinds(self):
        corpus = make_corpus(2 * len(SCENE_KINDS), seed=5)
        labels = {g.label for _, gts in corpus for g in gts}
        for want in ("Ab", "Be", "To", "Bo", "Ar", "ArT", "In", "Su",
                     "Cr", "Wi", "Pwi", "Co", "Pco"):
            assert SsrLabel(want) in labels


class TestAnalyticOracle:
    def test_matches_catalogue_geometry(self):
        cfg = RunConfig()
        meta = Body("x", "x", "object", np.array([1.0, 1, 1]))
        samples = [
            (((0, 2, 0), (1, 3, 1)), ((0, 0, 0), (1, 1, 1)), SsrLabel.Ab),
            (((0, 1, 0), (1, 2, 1)), ((0, 0, 0), (1, 1, 1)), SsrLabel.To),
            (((1.05, 0, 0), (2.05, 1, 1)), ((0, 0, 0), (1, 1, 1)), SsrLabel.Ar),
            (((1, 0, 0), (2, 1, 1)), ((0, 0, 0), (1, 1, 1)), SsrLabel.ArT),
            (((0.3, 0.3, 0.3), (0.7, 0.7, 0.7)), ((0, 0, 0), (1, 1, 1)), SsrLabel.Wi),
            (((0.5, 0, 0), (1.5, 1, 1)), ((0, 0, 0), (1, 1, 1)), SsrLabel.Cr),
            (((4, 0, 0), (5, 1, 1)), ((0, 0, 0), (1, 1, 1)), SsrLabel.NoRelation),
        ]
        for box_a, box_b, want in samples:
            a = (np.array(box_a[0], float), np.array(box_a[1], float))
            b = (np.array(box_b[0], float), np.array(box_b[1], float))
            got = analytic_box_ssr(a, b, meta, meta, cfg.relation,
                                   cfg.geometry.eps_touch)
            assert got is want, (want, got)

    def test_duality(self):
        cfg = RunConfig()
        meta = Body("x", "x", "object", np.array([1.0, 1, 1]))
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = (rng.uniform(-1, 0, 3), None)
            a = (a[0], a[0] + rng.uniform(0.1, 1, 3))
            b0 = rng.uniform(-1.2, 1.2, 3)
            b = (b0, b0 + rng.uniform(0.1, 1, 3))
            fwd = analytic_box_ssr(a, b, meta, meta, cfg.relation, cfg.geometry.eps_touch)
            rev = analytic_box_ssr(b, a, meta, meta, cfg.relation, cfg.geometry.eps_touch)
            assert rev is ssr_dual(fwd)
