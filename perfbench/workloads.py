"""Workload inputs, the request each workload sends, and its output checks.

Inputs are generated in memory from ``manipsem.synth`` before any timing;
the program under test only ever receives the generated inputs.  Every
workload is a pool of requests that the load generator sends round after
round, one at a time.

describe_clean   noise-free scripted traces of all 14 library actions.
                 After frame 0 almost every cloud is a rigid translation,
                 so the extractor's hull reuse hits and time goes to touch
                 tests, trace parsing, recognition and realization.
describe_noisy   the same scenario mix with 1 cm point noise and the
                 acceptance suite's noisy thresholds.  No cloud is a
                 translation of the previous one, so every object's hull
                 is wrapped again in every frame.
relation_corpus  static two-object scenes of all 9 relation kinds scored by
                 the hull-vs-box benchmark: box clouds with large coplanar
                 faces, a fresh hull per object per evaluated frame, and
                 pattern matrices; no events, library or realizer work.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from manipsem import bench, events, library, pipeline, realizer
from manipsem.config import RunConfig
from manipsem.geometry import aabb_gap, compute_aabb
from manipsem.synth import SCENARIOS, ScenarioSpec, generate_synthetic_trace, make_corpus

NOISE = 0.01
# The acceptance suite's thresholds for 1 cm point noise.
NOISY_OVERRIDES = dict(eps_touch=0.03, delta_move=0.005, delta_rel=0.01,
                       distinguish_in_su="false")
CORPUS_SCENES = 90          # ten scenes of each of the nine relation kinds

GOLDEN_SEED = 7
GOLDENS = {
    "Screw": ["The left hand performs screwing inside of a hard disk "
              "on the table by a screwdriver."],
    "Wipe": ["The left hand wipes the table by a sponge."],
}


@dataclass
class Service:
    """What a long-running describe service loads once and keeps."""

    cfg: RunConfig
    lib: library.MappingLibrary
    templates: realizer.TemplateSet
    report: bench.AccuracyReport = field(default_factory=bench.AccuracyReport)


@dataclass(frozen=True)
class DescribeRequest:
    scenario: str
    text: str                  # the request body: trace JSON lines
    trace: events.SceneTrace   # the same trace, kept for the input profile
    hand: str
    expected: tuple            # generator's atomic-action stream, as keys

    @property
    def examined_frames(self) -> range:
        return range(len(self.trace.frames))

    @property
    def frames(self) -> int:
        return len(self.trace.frames)


@dataclass(frozen=True)
class SceneRequest:
    trace: events.SceneTrace
    relations: tuple

    @property
    def examined_frames(self) -> list[int]:
        """Evaluated frames: each scores both ordered pairs of the scene."""
        return sorted({gt.frame for gt in self.relations})

    @property
    def frames(self) -> int:
        return len(self.examined_frames)

    @property
    def cases(self) -> int:
        return len(self.relations)


def aa_key(aa) -> tuple:
    """Atomic-action fields compared by the closure acceptance criterion."""
    return (aa.subject.side, aa.subject.carried, aa.primitive.value,
            aa.object_token(), aa.relation.value, aa.place)


class Workload:
    name = ""
    noise = 0.0
    # Share of requests whose recognized actions may differ from the script
    # before the run counts as incorrect.
    miss_tolerance = 0.0

    def config(self) -> RunConfig:
        return RunConfig()

    def make_inputs(self, seed: int, lib) -> list:
        raise NotImplementedError

    def digest(self, pool) -> str:
        raise NotImplementedError

    def send(self, svc: Service, req, tracer=None):
        raise NotImplementedError

    def check(self, svc: Service, req, out) -> tuple[list[str], list[str]]:
        """(errors, misses) of one reply.  Errors fail the request; misses
        fail it only when there are more than ``miss_tolerance`` allows."""
        raise NotImplementedError

    def counts(self, out) -> dict:
        """Work counts of one reply, attached to its request span."""
        return {}

    def layer_metrics(self, spans_by_name: dict, requests: int, svc: Service) -> dict:
        """Layer metrics, name -> (value, unit), only this request path has."""
        return {}


def mean(values, scale: float = 1.0) -> float:
    values = list(values)
    return scale * sum(values) / len(values) if values else 0.0


def per_request_ms(spans, requests: int) -> float:
    return 1e3 * sum(s.duration for s in spans) / requests


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


class Describe(Workload):
    """trace text -> load_trace -> analyze_trace -> describe_document."""

    def __init__(self, name: str, noise: float, miss_tolerance: float = 0.0):
        self.name = name
        self.noise = noise
        self.miss_tolerance = miss_tolerance

    def config(self) -> RunConfig:
        cfg = RunConfig()
        return cfg.with_overrides(**NOISY_OVERRIDES) if self.noise else cfg

    def make_inputs(self, seed: int, lib) -> list[DescribeRequest]:
        pool = []
        for name in SCENARIOS:
            gen = generate_synthetic_trace(ScenarioSpec(name, seed=seed, noise=self.noise), lib)
            pool.append(DescribeRequest(name, events.dumps_trace(gen.trace), gen.trace,
                                        gen.hand, tuple(aa_key(a) for a in gen.actions)))
        return pool

    def digest(self, pool) -> str:
        h = hashlib.sha256()
        for req in pool:
            h.update(req.text.encode("utf-8"))
            h.update(repr((req.hand, req.expected)).encode("utf-8"))
        return h.hexdigest()

    def send(self, svc, req, tracer=None):
        with _span(tracer, "events.load_trace"):
            trace = events.load_trace(io.StringIO(req.text), req.trace.trace_id)
        with _span(tracer, "pipeline.analyze_trace"):
            analysis = pipeline.analyze_trace(trace, svc.cfg, svc.lib, svc.templates)
        with _span(tracer, "pipeline.describe_document"):
            doc = pipeline.describe_document(analysis)
        return analysis, doc

    def counts(self, out) -> dict:
        analysis, _ = out
        return {"atomic_actions": sum(map(len, analysis.extraction.actions.values())),
                "episodes": sum(len(h.episodes) for h in analysis.hands.values())}

    def layer_metrics(self, by, requests, svc) -> dict:
        recs = by.get("library.recognize", [])
        sentences = sum(s.attrs.get("sentences", 0) for s in by.get("realizer.realize_level", []))
        return {
            "events.load_trace_ms": (per_request_ms(by["events.load_trace"], requests), "ms"),
            "events.extract_ms": (per_request_ms(by["events.extract_atomic_actions"], requests),
                                  "ms"),
            "events.frames": (mean(s.attrs["frames"] for s in by["request"]), "count"),
            "events.atomic_actions": (mean(s.attrs.get("atomic_actions", 0)
                                           for s in by["request"]), "count"),
            "events.episodes": (mean(s.attrs.get("episodes", 0) for s in by["request"]),
                                "count"),
            "library.recognize_ms": (mean((s.duration for s in recs), 1e3), "ms"),
            "library.recognized_frac": (mean(s.attrs.get("unknown") is False for s in recs),
                                        "fraction"),
            "realizer.describe_ms": (per_request_ms(by["pipeline.describe_document"], requests),
                                     "ms"),
            "realizer.sentences": (sentences / requests, "count"),
        }

    def check(self, svc, req, out):
        analysis, doc = out
        errors = []
        got = analysis.extraction.for_hand(req.hand)
        if not self.noise:
            keys = tuple(aa_key(a) for a in got)
            if keys != req.expected:
                errors.append(f"{req.trace.trace_id}: extracted {len(keys)} atomic actions "
                              f"differ from the generator's {len(req.expected)}")
        if not doc.strip():
            errors.append(f"{req.trace.trace_id}: empty description document")
        names = [r.name for r in library.recognize(got, svc.lib)]
        misses = []
        if names != [req.scenario]:
            misses.append(f"{req.trace.trace_id}: recognized {names}, expected [{req.scenario!r}]")
        return errors, misses


class RelationCorpus(Workload):
    """One static scene through bench.evaluate_trace, merged into a report."""

    name = "relation_corpus"

    def make_inputs(self, seed: int, lib) -> list[SceneRequest]:
        return [SceneRequest(trace, tuple(gts))
                for trace, gts in make_corpus(CORPUS_SCENES, seed)]

    def digest(self, pool) -> str:
        h = hashlib.sha256()
        for req in pool:
            h.update(events.dumps_trace(req.trace).encode("utf-8"))
            h.update(json.dumps([(g.frame, g.a, g.b, g.label.value)
                                 for g in req.relations]).encode("utf-8"))
        return h.hexdigest()

    def send(self, svc, req, tracer=None):
        with _span(tracer, "bench.evaluate_trace"):
            part = bench.evaluate_trace(req.trace, req.relations, svc.cfg)
        with _span(tracer, "bench.merge"):
            svc.report.merge(part)
        return part

    def layer_metrics(self, by, requests, svc) -> dict:
        box_ssr = [s for s in by.get("relations.classify_ssr", [])
                   if s.attrs.get("mode") == "aabb"]
        return {
            "relations.classify_ssr_aabb_us": (mean((s.duration for s in box_ssr), 1e6), "us"),
            "bench.evaluate_trace_ms": (per_request_ms(by["bench.evaluate_trace"], requests),
                                        "ms"),
            "bench.hull_accuracy": (svc.report.accuracy("hull"), "fraction"),
            "bench.box_accuracy": (svc.report.accuracy("aabb"), "fraction"),
        }

    def check(self, svc, req, out):
        errors = []
        if out.total != req.cases:
            errors.append(f"{req.trace.trace_id}: scored {out.total} cases, expected {req.cases}")
        if out.correct["hull"] != out.total:
            wrong = {k: n for k, n in out.confusion["hull"].items() if k[0] != k[1]}
            errors.append(f"{req.trace.trace_id}: hull labels differ from ground truth {wrong}")
        if sum(out.emitted["aabb"].values()):
            errors.append(f"{req.trace.trace_id}: box model emitted containment labels "
                          f"{dict(out.emitted['aabb'])}")
        return errors, []


# Under 1 cm noise the acceptance suite requires only 90% of the scenarios
# to be recognized, so the noisy workload tolerates that share of misses.
WORKLOADS = {w.name: w for w in (Describe("describe_clean", 0.0),
                                 Describe("describe_noisy", NOISE, miss_tolerance=0.1),
                                 RelationCorpus())}


def check_goldens(svc: Service) -> list[str]:
    """Byte-exact top-level sentences of the Screw and Wipe fixtures."""
    failures = []
    for name, want in GOLDENS.items():
        gen = generate_synthetic_trace(ScenarioSpec(name, seed=GOLDEN_SEED), svc.lib)
        analysis = pipeline.analyze_trace(gen.trace, RunConfig(), svc.lib, svc.templates)
        episodes = analysis.hands["left"].episodes
        if len(episodes) != 1:
            failures.append(f"golden {name}: {len(episodes)} episodes, expected 1")
            continue
        ep = episodes[0]
        top = max(ep.levels())
        got = realizer.realize_level(ep.snippet, ep.recognized, top, analysis.templates,
                                     analysis.lib, analysis.labels()).texts()
        if got != want:
            failures.append(f"golden {name}: got {got!r}, expected {want!r}")
    return failures


# -- input profile -------------------------------------------------------------

def _clouds(trace):
    """(object id, points) for every object given as a cloud, frame by frame."""
    for frame in trace.frames:
        for obj in frame.objects:
            if obj.points is not None:
                yield obj.id, obj.points


def reusable_cloud_frac(pool) -> float:
    """Share of clouds that are an exact rigid translation of the same
    object's cloud in the previous frame (the extractor's reuse test)."""
    reusable = total = 0
    for req in pool:
        prev = {}
        for oid, pts in _clouds(req.trace):
            before = prev.get(oid)
            if before is not None and before.shape == pts.shape:
                reusable += np.ptp(pts - before, axis=0).max() <= 1e-12
            total += 1
            prev[oid] = pts
    return reusable / total


def broadphase_pass_frac(pool, cfg: RunConfig) -> float:
    """Object pairs whose boxes lie within eps_touch / all pairs, over the
    frames the workload's requests examine."""
    eps = cfg.geometry.eps_touch
    passed = total = 0
    for req in pool:
        for f_idx in req.examined_frames:
            boxes = [compute_aabb(o.cloud()) for o in req.trace.frames[f_idx].objects]
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    passed += aabb_gap(boxes[i], boxes[j]) <= eps
                    total += 1
    return passed / total


def input_profile(workload: Workload, seed: int, pool) -> dict:
    frames = [len(req.trace.frames) for req in pool]
    objects = [len(fr.objects) for req in pool for fr in req.trace.frames]
    points = [len(pts) for req in pool for _, pts in _clouds(req.trace)]
    return {
        "workload": workload.name,
        "seed": seed,
        "noise": workload.noise,
        "requests_per_round": len(pool),
        "frames_per_request": float(np.mean(frames)),
        "frames_per_request_min": min(frames),
        "frames_per_request_max": max(frames),
        "processed_frames_per_round": sum(req.frames for req in pool),
        "objects_per_frame": float(np.mean(objects)),
        "points_per_cloud": float(np.mean(points)),
        "geometry.reusable_cloud_frac": reusable_cloud_frac(pool),
        "inputs_sha256": workload.digest(pool),
    }


def probe_clouds(pool, limit: int) -> list[np.ndarray]:
    """Up to ``limit`` of the workload's clouds, spread evenly over the pool."""
    clouds = [pts for req in pool for _, pts in _clouds(req.trace)]
    step = max(1, len(clouds) // limit)
    return clouds[::step][:limit]
