import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from manipsem import bench, cli
from manipsem.bench import (
    AccuracyReport,
    GroundTruthRelation,
    SPECIAL_LABELS,
    compare_models,
    evaluate_trace,
    load_corpus_dir,
    write_corpus_entry,
)
from manipsem.config import RunConfig
from manipsem.events import Frame, ObjectInstance, SceneTrace
from manipsem.synth import SCENE_KINDS, make_corpus, make_relation_scene
from test_geometry_cache import oracle_report


@pytest.fixture(scope="module")
def small_corpus():
    return make_corpus(45, seed=7)


class TestCompareModels:
    def test_hull_beats_box_on_mixed_corpus(self, small_corpus):
        rep = compare_models(small_corpus)
        assert rep.total == 45 * 4
        assert rep.accuracy("hull") > rep.accuracy("aabb")

    def test_box_mode_emits_no_containment_labels(self, small_corpus):
        rep = compare_models(small_corpus)
        assert sum(rep.emitted["aabb"].values()) == 0
        assert all(not v for v in rep.distinguishability("aabb").values())
        assert all(rep.distinguishability("hull").values())

    def test_trivial_far_scene_both_perfect(self):
        rng = np.random.default_rng(0)
        items = [make_relation_scene("NoRelation", rng) for _ in range(4)]
        rep = compare_models(items)
        assert rep.accuracy("hull") == 1.0
        assert rep.accuracy("aabb") == 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            compare_models([])


class TestReport:
    def test_merge(self, small_corpus):
        a = evaluate_trace(*small_corpus[0])
        b = evaluate_trace(*small_corpus[1])
        merged = AccuracyReport().merge(a).merge(b)
        assert merged.total == a.total + b.total

    def test_table_format(self, small_corpus):
        rep = compare_models(small_corpus[:9])
        table = rep.to_table()
        lines = table.strip().splitlines()
        assert lines[0] == "metric\thull\taabb"
        assert any(line.startswith("accuracy\t") for line in lines)
        for lab in SPECIAL_LABELS:
            assert any(line.startswith(f"distinguishes_{lab.value}\t") for line in lines)

    def test_records_format(self, small_corpus):
        import json
        rep = compare_models(small_corpus[:9])
        records = [json.loads(line) for line in rep.to_records().strip().splitlines()]
        kinds = {r["kind"] for r in records}
        assert kinds == {"summary", "confusion"}
        summary = [r for r in records if r["kind"] == "summary"]
        assert {r["mode"] for r in summary} == {"hull", "aabb"}


def shifted_scene(trace, gts, offsets):
    """An 11-frame relation scene held over evaluated frames 0, 10, 20, ...,
    each object's cloud shifted by ``offsets[oid][k]`` in frames 10 k to
    10 k + 9; the ground truth of frame 10 is repeated at each 10 k."""
    blocks = len(offsets["obj_a"])
    frames = tuple(Frame(f / 30.0, tuple(
        ObjectInstance(o.id, o.label, o.role, o.points + offsets[o.id][f // 10], o.box)
        for o in trace.frames[min(f, 10)].objects)) for f in range(10 * blocks - 9))
    rels = [g for g in gts if g.frame == 0] + [
        GroundTruthRelation(10 * k, g.a, g.b, g.label)
        for k in range(1, blocks) for g in gts if g.frame == 10]
    return SceneTrace(frames, trace.trace_id, trace.fps), rels


def relation_scene(kind, rng, noise):
    """A relation scene whose points, when ``noise`` > 0, are each jittered
    by up to ``noise`` per axis in every frame."""
    trace, gts = make_relation_scene(kind, rng)
    if noise > 0:
        frames = tuple(Frame(fr.t, tuple(
            ObjectInstance(o.id, o.label, o.role,
                           o.points + rng.uniform(-noise, noise, o.points.shape), o.box)
            for o in fr.objects)) for fr in trace.frames)
        trace = SceneTrace(frames, trace.trace_id, trace.fps)
    return trace, gts


STEPS = [(0.0, 0.0, 0.0), (0.05, 0.0, 0.0), (0.0, -0.02, 0.03), (1e-13, 0.0, -1e-13)]


@st.composite
def moved_scenes(draw):
    """A relation scene, clean or noisy, whose objects stay, move by one
    common shift, or move apart between its evaluated frames."""
    kind = draw(st.sampled_from(SCENE_KINDS))
    noise = draw(st.sampled_from([0.0, 0.0, 0.01]))
    trace, gts = relation_scene(kind, np.random.default_rng(draw(st.integers(0, 999))), noise)
    offsets = {"obj_a": [np.zeros(3)], "obj_b": [np.zeros(3)]}
    for _ in range(draw(st.integers(1, 3))):
        step_b = np.array(draw(st.sampled_from(STEPS)))
        step_a = step_b if draw(st.booleans()) else np.array(draw(st.sampled_from(STEPS)))
        offsets["obj_a"].append(offsets["obj_a"][-1] + step_a)
        offsets["obj_b"].append(offsets["obj_b"][-1] + step_b)
    return shifted_scene(trace, gts, offsets)


class TestLabelMemo:
    """``evaluate_trace`` scores each pair of object states once per call;
    its reports equal those of every case scored on fresh states."""

    @pytest.mark.parametrize("seed", [0, 1, 5, 11])
    def test_corpus_records_match_fresh_states(self, seed):
        corpus = make_corpus(90, seed=seed)
        got, want = AccuracyReport(), AccuracyReport()
        for trace, rels in corpus:
            got.merge(evaluate_trace(trace, rels))
            want.merge(oracle_report(trace, rels, RunConfig()))
        assert got.to_records() == want.to_records()

    @settings(max_examples=60, deadline=None)
    @given(moved_scenes())
    # the upper object lifted off the lower one, which stays: a new pair
    # of states that shares its first
    @example(shifted_scene(*relation_scene("To", np.random.default_rng(0), 0.0), {
        "obj_a": [np.zeros(3), np.zeros(3)], "obj_b": [np.zeros(3), np.array([0.0, 0.05, 0.0])]}))
    def test_moved_and_noisy_scenes_match_fresh_states(self, scene):
        trace, rels = scene
        got, want = evaluate_trace(trace, rels), oracle_report(trace, rels, RunConfig())
        assert got.to_records() == want.to_records()
        assert (got.total, got.emitted) == (want.total, want.emitted)

    @pytest.mark.parametrize("noise, calls", [(0.0, 4), (0.01, 8)])
    def test_each_pair_of_states_is_classified_once(self, monkeypatch, noise, calls):
        """A static scene's two evaluated frames share their states, so its
        four cases make two calls per mode; a noisy scene's do not."""
        made = []

        def counted(*args, **kw):
            made.append(kw["mode"])
            return classify(*args, **kw)

        classify = bench.classify_ssr
        monkeypatch.setattr(bench, "classify_ssr", counted)
        trace, rels = relation_scene("To", np.random.default_rng(3), noise)
        assert evaluate_trace(trace, rels).total == 4
        assert len(made) == calls and made.count("hull") == calls // 2


class TestCorpusIo:
    def test_write_and_load_round_trip(self, tmp_path, small_corpus):
        for k, (trace, rels) in enumerate(small_corpus[:6]):
            write_corpus_entry(str(tmp_path), f"scene_{k:03d}", trace, rels)
        loaded = load_corpus_dir(str(tmp_path))
        assert len(loaded) == 6
        rep_disk = compare_models(loaded)
        rep_mem = compare_models(small_corpus[:6])
        assert rep_disk.correct == rep_mem.correct

    @pytest.mark.parametrize("row, edit, code, message", [
        (0, lambda line: line[:40], 2, "line 1: bad JSON: "),
        (1, lambda line: line.replace('"objects"', '"things"'), 3,
         "line 2: unknown frame field(s) ['things']"),
        (1, lambda line: line.replace('"t": ', '"t": -1', 1), 3,
         "timestamps not strictly increasing"),
    ], ids=["truncated", "unknown_field", "time_goes_back"])
    def test_malformed_trace_names_its_file(self, tmp_path, capsys, row, edit, code, message):
        assert cli.main(["corpus", str(tmp_path), "--count", "2"]) == 0
        path = tmp_path / "scene_0001.jsonl"
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[row] = edit(lines[row])
        path.write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["bench", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert f"{path}: " in err and message in err, err


def test_setup_modules_leave_generator_unimported():
    """The set-up probe's request-path modules must not pull in the scene
    generator: ``bench`` owns ``GroundTruthRelation`` and ``synth`` imports it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import importlib, sys\n"
            "from setup_probe import MODULES\n"
            "for m in MODULES:\n"
            "    importlib.import_module('manipsem.' + m)\n"
            "print(sorted(m for m in sys.modules if m.startswith('manipsem.')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert "'manipsem.bench'" in out and "'manipsem.synth'" not in out
