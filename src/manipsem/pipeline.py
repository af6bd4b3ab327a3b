"""End-to-end processing: trace -> geometry -> events -> recognition -> text.

The document structure mirrors the three description tiers: detailed
sentences (one per atomic action), multiple sentences (one per sub-action
group), and one sentence per contact episode.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import Snippet
from .config import RunConfig
from .events import ExtractionResult, SceneTrace, extract_atomic_actions, segment_actions
from .library import MappingLibrary, RecognizedAction, default_library, recognize
from .realizer import Description, TemplateSet, available_levels, default_templates, realize_level

TIER_HEADINGS = {1: "Detailed sentences:", 2: "Multiple sentences:", 3: "One sentence:"}


@dataclass
class EpisodeAnalysis:
    snippet: Snippet
    recognized: list[RecognizedAction]

    def levels(self) -> set[int]:
        return available_levels(self.snippet, self.recognized) or {1}


@dataclass
class HandAnalysis:
    hand: str
    episodes: list[EpisodeAnalysis]


@dataclass
class TraceAnalysis:
    trace: SceneTrace
    extraction: ExtractionResult
    hands: dict[str, HandAnalysis]
    lib: MappingLibrary
    templates: TemplateSet

    def labels(self) -> dict[str, str]:
        return self.extraction.labels


def analyze_trace(trace: SceneTrace, cfg: RunConfig | None = None,
                  lib: MappingLibrary | None = None,
                  templates: TemplateSet | None = None) -> TraceAnalysis:
    cfg = cfg or RunConfig()
    lib = lib or default_library()
    templates = templates or default_templates()
    ground = trace.ground()
    if ground is not None:
        templates = templates.with_ground(ground.label)
    result = extract_atomic_actions(trace, cfg)
    hands = {}
    for hand in ("left", "right"):
        if hand not in result.actions:
            continue  # hand never appears in the trace
        episodes = []
        for snip in segment_actions(result, hand):
            recs = recognize(list(snip.actions), lib, hand) if snip.actions else []
            episodes.append(EpisodeAnalysis(snip, recs))
        hands[hand] = HandAnalysis(hand, episodes)
    return TraceAnalysis(trace, result, hands, lib, templates)


def describe_hand(analysis: TraceAnalysis, hand: str,
                  level: int | None = None) -> list[tuple[int, Description]]:
    """(level, description) pairs for each episode of one hand: every
    level the episode has when ``level`` is None, else that one level.
    An episode without it raises :class:`~manipsem.realizer.LevelUnavailable`;
    a hand with no episodes is idle, at level 1, whatever was asked.
    """
    out = []
    ha = analysis.hands.get(hand)
    if ha is None or not ha.episodes:
        idle = Description(hand, 1, ((analysis.templates.get("idle"),
                                      (0, max(0, analysis.extraction.n_frames - 1))),))
        return [(1, idle)]
    for ep in ha.episodes:
        for k in (sorted(ep.levels()) if level is None else [level]):
            desc = realize_level(ep.snippet, ep.recognized, k,
                                 analysis.templates, analysis.lib,
                                 analysis.labels())
            out.append((k, desc))
    return out


def describe_document(analysis: TraceAnalysis, hands=("left", "right"),
                      level: int | None = None) -> str:
    """Human-readable description document in the three-tier layout."""
    lines = []
    for hand in hands:
        lines.append(f"For the {hand} hand:")
        ha = analysis.hands.get(hand)
        if ha is None or not ha.episodes:
            lines.append("  " + TIER_HEADINGS[1])
            lines.append("    " + analysis.templates.get("idle"))
            lines.append("")
            continue
        per_level: dict[int, list[str]] = {}
        for k, desc in describe_hand(analysis, hand, level):
            per_level.setdefault(k, []).extend(
                f"({lo}..{hi}) {text}" for text, (lo, hi) in desc.sentences)
        max_level = max(per_level)
        for k in sorted(per_level):
            heading = TIER_HEADINGS.get(min(k, 3), f"Level {k}:")
            if k == max_level and k > 1:
                heading = TIER_HEADINGS[3]
            lines.append("  " + heading)
            lines.extend("    " + s for s in per_level[k])
        lines.append("")
    return "\n".join(lines)
