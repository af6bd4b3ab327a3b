"""Deterministic sentence generation at selectable granularity.

Level 1 renders one sentence per atomic action.  The middle level renders
one sentence per sub-action group, following the phase structure of the
recognized mapping entry.  The top level renders one sentence for the
whole contact episode using the recognized action's own template.  Spans
of unrecognized actions always render at level 1, whatever was requested.

All choices are deterministic: same inputs, same bytes.  Articles follow
first mention within one rendering (``a``/``an`` first, ``the`` after).
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field, replace

from .actions import AIR, GROUND, AtomicAction, Primitive, Snippet
from .config import read_text, split_lines
from .library import MappingLibrary, RecognizedAction

VOWELS = "aeiou"


class MissingTemplate(KeyError):
    pass


class LevelUnavailable(ValueError):
    def __init__(self, requested: int, available):
        self.requested = requested
        self.available = sorted(available)
        super().__init__(f"level {requested} unavailable; have {self.available}")


@dataclass(frozen=True)
class TemplateSet:
    entries: dict
    ground_label: str = "table"

    def get(self, key: str) -> str:
        try:
            return self.entries[key]
        except KeyError:
            raise MissingTemplate(key) from None

    def get_first(self, *keys: str) -> str:
        for key in keys:
            if key in self.entries:
                return self.entries[key]
        raise MissingTemplate(keys[-1])

    def with_ground(self, label: str) -> "TemplateSet":
        return replace(self, ground_label=label)


def parse_template_text(text: str) -> TemplateSet:
    entries = {}
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"template line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return TemplateSet(entries)


def load_template_set(source) -> TemplateSet:
    """Load templates from a path, text, or binary stream."""
    return parse_template_text(read_text(source))


def default_templates() -> TemplateSet:
    text = importlib.resources.files("manipsem").joinpath("data/templates.txt").read_text("utf-8")
    return parse_template_text(text)


@dataclass(frozen=True)
class Description:
    hand: str
    level: int
    sentences: tuple[tuple[str, tuple[int, int]], ...]

    def texts(self) -> list[str]:
        return [s for s, _ in self.sentences]


@dataclass
class _Mentions:
    seen: set = field(default_factory=set)

    def noun(self, key: str, label: str) -> str:
        if key in self.seen:
            return f"the {label}"
        self.seen.add(key)
        article = "an" if label[:1].lower() in VOWELS else "a"
        return f"{article} {label}"


def _object_np(aa: AtomicAction, ts: TemplateSet, mentions: _Mentions) -> str | None:
    if aa.object_id is None:
        return None
    if aa.object_id == GROUND:
        return f"the {aa.object_label or ts.ground_label}"
    return mentions.noun(aa.object_id, aa.object_label or aa.object_id)


def _place_phrase(aa: AtomicAction, ts: TemplateSet, mentions: _Mentions) -> str:
    if aa.place == AIR or aa.place == aa.object_id:
        return ""
    if aa.place == GROUND:
        if aa.object_id == GROUND:
            return ""
        obj = f"the {aa.place_label or ts.ground_label}"
    else:
        obj = mentions.noun(aa.place, aa.place_label or aa.place)
    return " " + ts.get("place.on").format(obj=obj)


def _is_continuation(aa: AtomicAction, context: AtomicAction | None) -> bool:
    return (context is not None
            and aa.primitive is context.primitive
            and aa.primitive in (Primitive.Mt, Primitive.Fmt)
            and aa.object_id == context.object_id
            and aa.relation is context.relation)


def realize_atomic(aa: AtomicAction, context: AtomicAction | None,
                   ts: TemplateSet, mentions: _Mentions | None = None) -> str:
    """One sentence for one atomic action; ``context`` is the previous one."""
    mentions = mentions if mentions is not None else _Mentions()
    merged = aa.subject.is_merged
    subject = ts.get("subject.merged") if merged else ts.get(f"subject.{aa.subject.side}")
    form = "pl" if merged else "sg"
    key = f"verb.{aa.primitive.value}"
    if _is_continuation(aa, context):
        key += ".cont"
    verb = ts.get(f"{key}.{form}")

    cls = {"Mt": "m", "Fmt": "m", "U": "u"}.get(aa.primitive.value)
    obj_np = _object_np(aa, ts, mentions)
    if obj_np is None:
        ref = f"the {ts.ground_label}"
        relobj = ts.get(f"rel.{aa.relation.value}").format(obj=ref).strip()
    elif aa.object_id == GROUND and aa.primitive in (Primitive.T, Primitive.U):
        relobj = obj_np          # "touches the table", not "the top of the table"
    else:
        keys = ([f"rel.{cls}.{aa.relation.value}"] if cls else []) + [f"rel.{aa.relation.value}"]
        relobj = ts.get_first(*keys).format(obj=obj_np).strip()
    place = _place_phrase(aa, ts, mentions)
    return f"{subject} {verb} {relobj}{place}."


def _binding_nps(rec: RecognizedAction, labels: dict, ts: TemplateSet,
                 mentions: _Mentions) -> dict:
    """Slot values for action/phase templates from the recognized bindings."""
    def np_for(value):
        if value is None:
            return None
        if value == GROUND:
            return f"the {ts.ground_label}"
        if value == AIR:
            return "the air"
        return mentions.noun(value, labels.get(value, value))

    slots = {"hand": ts.get(f"subject.{rec.hand}") if rec.hand in ("left", "right")
             else ts.get("subject.merged")}
    tool = rec.bindings.get("?tool")
    obj = rec.bindings.get("?object")
    place = rec.bindings.get("?place")
    target = rec.bindings.get("?target")
    slots["tool"] = np_for(tool)
    slots["object"] = np_for(obj)
    slots["place"] = np_for(place)
    slots["target"] = np_for(target)
    slots["tool_or_object"] = slots["tool"] or slots["object"]
    slots["target_or_place"] = slots["target"] or slots["place"]
    slots["place_on"] = f"on {slots['place']}" if place is not None else ""
    return {k: v for k, v in slots.items() if v is not None}


def _fill(template: str, slots: dict, what: str) -> str:
    try:
        text = template.format(**slots)
    except KeyError as exc:
        raise MissingTemplate(f"{what}: no value for slot {exc}") from None
    return " ".join(text.split())


def phase_groups(rec: RecognizedAction):
    """(phase, action index span) groups from the matched step spans."""
    groups = []
    for phase, span in zip(rec.step_phases, rec.step_spans):
        if groups and groups[-1][0] == phase:
            groups[-1] = (phase, (groups[-1][1][0], span[1]))
        else:
            groups.append((phase, span))
    return groups


def _tiled_spans(actions, lo_frame, hi_frame, breaks):
    """Sentence frame spans tiling [lo_frame, hi_frame] at action starts."""
    spans = []
    for i, (start_idx, end_idx) in enumerate(breaks):
        start = lo_frame if i == 0 else actions[start_idx].frame_span[0]
        if i + 1 < len(breaks):
            end = actions[breaks[i + 1][0]].frame_span[0] - 1
        else:
            end = hi_frame
        spans.append((start, max(start, end)))
    return spans


def _groupings(snippet: Snippet, recognized):
    """Distinct grouping tiers, finest first; each is a list of render units
    ``(kind, span, rec, phase)``, ``phase`` set on phase units only."""
    n = len(snippet.actions)
    if n == 0:
        return []
    aa_tier = [("aa", (i, i), None, None) for i in range(n)]
    tiers = [aa_tier]
    phase_tier = []
    top_tier = []
    for rec in recognized:
        if rec.name == "Unknown" or not rec.step_spans:
            units = [("aa", (i, i), rec, None) for i in range(rec.span[0], rec.span[1] + 1)]
            phase_tier.extend(units)
            top_tier.extend(units)
            continue
        phase_tier.extend(("phase", span, rec, phase) for phase, span in phase_groups(rec))
        top_tier.append(("action", rec.span, rec, None))
    if len(phase_tier) < len(aa_tier):
        tiers.append(phase_tier)
    if top_tier and len(top_tier) < len(tiers[-1]):
        tiers.append(top_tier)
    return tiers


def available_levels(snippet: Snippet, recognized) -> set[int]:
    """Granularity levels with a distinct grouping for this snippet."""
    return set(range(1, len(_groupings(snippet, recognized)) + 1))


def realize_level(snippet: Snippet, recognized, k: int, ts: TemplateSet,
                  lib: MappingLibrary | None = None,
                  labels: dict | None = None) -> Description:
    """Render one snippet at granularity level k, 1 the finest.  An idle
    snippet has level 1 only."""
    labels = labels or {}
    tiers = _groupings(snippet, recognized)
    levels = range(1, max(len(tiers), 1) + 1)
    if k not in levels:
        raise LevelUnavailable(k, levels)
    if snippet.idle:
        return Description(snippet.hand, 1, ((ts.get("idle"), snippet.frame_span),))
    units = tiers[k - 1]
    actions = snippet.actions
    mentions = _Mentions()
    texts = []
    breaks = []
    prev_aa = None
    for kind, (lo, hi), rec, phase in units:
        if kind == "aa":
            aa = actions[lo]
            texts.append(realize_atomic(aa, prev_aa, ts, mentions))
            prev_aa = aa
        else:
            slots = _binding_nps(rec, labels, ts, mentions)
            if kind == "phase":
                # a work phase never falls back to the generic phase.step
                keys = (f"phase.{phase}.{rec.name}", f"phase.{phase}")
                if phase != "work":
                    keys += ("phase.step",)
                template = ts.get_first(*keys)
                texts.append(_fill(template, slots, f"phase.{phase}"))
            else:
                template = ts.get(f"action.{rec.name}")
                texts.append(_fill(template, slots, f"action.{rec.name}"))
            prev_aa = actions[hi]
        breaks.append((lo, hi))
    spans = _tiled_spans(actions, snippet.frame_span[0], snippet.frame_span[1], breaks)
    return Description(snippet.hand, k, tuple(zip(texts, spans)))


