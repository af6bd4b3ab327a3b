"""Hull-vs-box model comparison over labeled traces.

Relations are evaluated every ten frames per ordered pair, once with the
full hull classifier and once in the legacy box mode, against constructed
ground truth.  Object states come from one
:class:`~manipsem.events.GeometryCache` over a trace's evaluated frames,
the same geometry path extraction uses.  A hull is built on its first
read, and only a pair whose boxes lie within ``eps_touch`` reads one, and
only where the boxes and clouds cannot decide: a scene in surface contact
(To, ArT) wraps none, a container with an object deep in its box (In, Wi,
Pwi) wraps the container, and a crossing pair wraps both.  A static
object's hull is built at most once per trace, and a wrap error surfaces
at that first read.  The hull classifier reads the cache's pair memos: a
pair's intersection matrix and contact test are computed once for both
orders and re-used while its relative pose holds.  Each ordered pair of
states is scored once per trace: a case whose two states are those of a
case already scored takes its labels, so a static scene's later evaluated
frames classify nothing.  The report carries per-model accuracy,
confusion counts, and flags saying which containment-style labels each
model managed to produce at all: the box model cannot express them.
:func:`compare_models` scores a corpus's traces one after another in the
calling process and merges their reports in corpus order.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field

from .config import RunConfig
from .events import (GeometryCache, ParseError, SceneTrace, SchemaError, TraceError, decode_json,
                     dump_trace, load_trace)
from .relations import PATTERN_LABELS, SsrLabel, classify_ssr

MODES = ("hull", "aabb")
SPECIAL_LABELS = (SsrLabel.Cr, SsrLabel.Wi, SsrLabel.Pwi, SsrLabel.Co, SsrLabel.Pco)


@dataclass(frozen=True)
class GroundTruthRelation:
    frame: int
    a: str
    b: str
    label: SsrLabel


@dataclass
class AccuracyReport:
    total: int = 0
    correct: dict = field(default_factory=lambda: {m: 0 for m in MODES})
    confusion: dict = field(default_factory=lambda: {m: Counter() for m in MODES})
    emitted: dict = field(default_factory=lambda: {m: Counter() for m in MODES})

    def accuracy(self, mode: str) -> float:
        return self.correct[mode] / self.total if self.total else 0.0

    def distinguishability(self, mode: str) -> dict:
        """Can the model produce each containment-style label (and did it,
        correctly, at least once)."""
        out = {}
        for lab in SPECIAL_LABELS:
            out[lab.value] = self.confusion[mode][(lab.value, lab.value)] > 0
        return out

    def merge(self, other: "AccuracyReport") -> "AccuracyReport":
        self.total += other.total
        for m in MODES:
            self.correct[m] += other.correct[m]
            self.confusion[m].update(other.confusion[m])
            self.emitted[m].update(other.emitted[m])
        return self

    def to_table(self) -> str:
        lines = ["metric\thull\taabb"]
        lines.append(f"cases\t{self.total}\t{self.total}")
        lines.append(f"correct\t{self.correct['hull']}\t{self.correct['aabb']}")
        lines.append(f"accuracy\t{self.accuracy('hull'):.4f}\t{self.accuracy('aabb'):.4f}")
        dh, da = self.distinguishability("hull"), self.distinguishability("aabb")
        for lab in SPECIAL_LABELS:
            lines.append(f"distinguishes_{lab.value}\t{dh[lab.value]}\t{da[lab.value]}")
        return "\n".join(lines) + "\n"

    def to_records(self) -> str:
        recs = [{"kind": "summary", "mode": m, "cases": self.total,
                 "correct": self.correct[m], "accuracy": self.accuracy(m),
                 "distinguishes": self.distinguishability(m)} for m in MODES]
        for m in MODES:
            for (gt, pred), n in sorted(self.confusion[m].items()):
                recs.append({"kind": "confusion", "mode": m, "truth": gt,
                             "predicted": pred, "count": n})
        return "\n".join(json.dumps(r) for r in recs) + "\n"


def evaluate_trace(trace: SceneTrace, relations, cfg: RunConfig | None = None) -> AccuracyReport:
    """Score both models on one trace against its relation ground truth."""
    cfg = cfg or RunConfig()
    rep = AccuracyReport()
    by_frame: dict[int, list[GroundTruthRelation]] = {}
    for gt in relations:
        if gt.frame < len(trace.frames):
            by_frame.setdefault(gt.frame, []).append(gt)
    evaluated = sorted(by_frame)
    cache = GeometryCache([trace.frames[f] for f in evaluated], cfg)
    # per (state a, state b): the label of each mode.  The cache shares a
    # state only between frames whose step moved nothing, so one pair of
    # states is one pair of clouds and boxes, and labels the same.
    labels: dict[tuple, list[SsrLabel]] = {}
    for k, f_idx in enumerate(evaluated):
        present = cache.ids[k]
        for gt in by_frame[f_idx]:
            if gt.a not in present or gt.b not in present:
                continue
            rep.total += 1
            states = cache.state(gt.a, k), cache.state(gt.b, k)
            preds = labels.get(states)
            if preds is None:
                memo = cache.pair(gt.a, gt.b, k)
                preds = labels[states] = [
                    classify_ssr(*states, cfg.relation, cfg.geometry, mode=mode, memo=memo)
                    for mode in MODES]
            truth = gt.label.value
            for mode, pred in zip(MODES, preds):
                rep.confusion[mode][(truth, pred.value)] += 1
                if pred in PATTERN_LABELS:
                    rep.emitted[mode][pred.value] += 1
                if pred is gt.label:
                    rep.correct[mode] += 1
    return rep


def compare_models(items, cfg: RunConfig | None = None) -> AccuracyReport:
    """Aggregate hull-vs-box accuracy over (SceneTrace,
    [GroundTruthRelation]) pairs."""
    pairs = list(items)
    if not pairs:
        raise ValueError("empty corpus")
    report = AccuracyReport()
    for trace, rels in pairs:
        report.merge(evaluate_trace(trace, rels, cfg))
    return report


def load_corpus_dir(path: str):
    """(trace, relations) pairs from a directory of trace + .gt.json files.
    A malformed file raises its ``TraceError``, naming the file."""
    out = []
    for name in sorted(os.listdir(path)):
        if not name.endswith(".jsonl"):
            continue
        trace_path = os.path.join(path, name)
        try:
            trace = load_trace(trace_path)
        except TraceError as exc:
            exc.args = (f"{trace_path}: {exc}",)
            raise
        gt_path = os.path.join(path, name[:-len(".jsonl")] + ".gt.json")
        rels = _load_relations(gt_path) if os.path.exists(gt_path) else []
        out.append((trace, rels))
    return out


def _load_relations(path: str) -> list[GroundTruthRelation]:
    """The relations of one .gt.json file.  A file that is not UTF-8 JSON
    raises ``ParseError``, a malformed relation ``SchemaError``; both name
    the file."""
    try:
        with open(path, "rb") as fh:
            doc = decode_json(fh.read().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(None, f"{path}: not UTF-8: {exc.reason}") from exc
    except ParseError as exc:
        raise ParseError(None, f"{path}: {exc}") from exc
    rows = doc.get("relations", []) if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        raise SchemaError(f"{path}: expected a mapping with a list of relations")
    rels = []
    for k, row in enumerate(rows):
        if not isinstance(row, dict) or not {"frame", "a", "b", "label"} <= row.keys():
            raise SchemaError(f"{path}: relation {k} needs fields frame, a, b and label")
        frame = row["frame"]
        if type(frame) is not int or frame < 0:
            raise SchemaError(f"{path}: relation {k}: frame must be a non-negative integer")
        try:
            label = SsrLabel(row["label"])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: relation {k}: unknown label {row['label']!r}") from exc
        rels.append(GroundTruthRelation(frame, row["a"], row["b"], label))
    return rels


def write_ground_truth(path: str, relations, indent: int | None = None, **fields) -> None:
    """Write a ``.gt.json`` file: ``fields``, then the relation rows
    :func:`_load_relations` reads back."""
    doc = {**fields, "relations": [{"frame": g.frame, "a": g.a, "b": g.b,
                                    "label": g.label.value} for g in relations]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent)


def write_corpus_entry(dirpath: str, stem: str, trace: SceneTrace, relations) -> None:
    os.makedirs(dirpath, exist_ok=True)
    dump_trace(trace, os.path.join(dirpath, stem + ".jsonl"))
    write_ground_truth(os.path.join(dirpath, stem + ".gt.json"), relations)
