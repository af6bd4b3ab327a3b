"""Library of action mappings: named patterns over atomic-action strings.

Each entry maps a complex action name (cut, stir, screw, ...) to a sequence
of quintuple templates.  Template fields may be variables (``?tool``,
``?object``, ``?place``, any ``?name``), the reserved spellings ``Ground``
/ ``Air`` / ``none``, or literal tokens.  A ``+`` suffix on a moving
primitive marks a step that absorbs a maximal run of identical actions.
Subjects are ``H`` (the acting hand) or ``Me(?var)`` (hand merged with the
carried object bound to ``?var``).

File format (UTF-8, ``#`` comments)::

    action Screw
    hands one
    H       T   ?tool   To  ?place   | pickup
    Me(?tool) U ?place  Ab  ?place   | pickup
    Me(?tool) Mt+ none  Ab  Air      | pickup
    ...
    end

Entries are one-handed: each pattern matches one hand's action string,
and ``hands one`` is the only accepted ``hands`` line (it may be left out).
"""

from __future__ import annotations

import functools
import importlib.resources
from dataclasses import dataclass

from .actions import AIR, GROUND, NO_OBJECT, AtomicAction, Primitive, Subject, action_tokens
from .config import read_text, split_lines
from .grammar import NoParse, PRIMITIVE_TERMINALS, RESERVED, parse
from .relations import SsrLabel

STANDARD_ACTIONS = ("Idle", "Approach", "Retreat", "Lift", "Place", "Hold",
                    "Stir", "Pour", "Cut", "Drink", "Wipe", "Hammer", "Saw", "Screw")


class LibraryError(Exception):
    pass


class PatternParseError(LibraryError):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class NonCfgPattern(LibraryError):
    """Entry's expanded pattern is not derivable under the action grammar."""


class DuplicateName(LibraryError):
    pass


class UnknownAction(LibraryError):
    pass


class UnboundVariable(LibraryError):
    pass


@dataclass(frozen=True)
class StepTemplate:
    subject: str              # "H" or "Me"
    carried: str | None       # variable/token carried by a merged subject
    primitive: Primitive
    repeat: bool
    object_slot: str          # variable, Ground, none, or literal id
    relation: SsrLabel
    place_slot: str           # variable, Ground, Air, or literal id
    phase: str = "step"


@dataclass(frozen=True)
class LibraryEntry:
    name: str
    steps: tuple[StepTemplate, ...]

    @property
    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for step in self.steps:
            for v in (step.carried, step.object_slot, step.place_slot):
                if v and v.startswith("?") and v not in seen:
                    seen.append(v)
        return tuple(seen)


@dataclass(frozen=True)
class RecognizedAction:
    name: str
    bindings: dict
    span: tuple[int, int]       # [start, end] indices into the action list
    hand: str
    step_spans: tuple = ()      # per pattern step: [start, end] action indices
    step_phases: tuple = ()     # per pattern step: its phase name

    def __post_init__(self):
        object.__setattr__(self, "bindings", dict(self.bindings))


@dataclass(frozen=True)
class MappingLibrary:
    entries: tuple[LibraryEntry, ...]

    def __getitem__(self, name: str) -> LibraryEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise UnknownAction(name)

    def __contains__(self, name: str) -> bool:
        return any(e.name == name for e in self.entries)

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)


_RELATION_TOKENS = {l.value: l for l in SsrLabel if l is not SsrLabel.NoRelation}


def _parse_step(lineno: int, text: str) -> StepTemplate:
    body, _, phase = text.partition("|")
    phase = phase.strip() or "step"
    parts = body.split()
    if len(parts) != 5:
        raise PatternParseError(lineno, f"expected 5 template fields, got {len(parts)}")
    subj, prim, obj, rel, place = parts
    carried = None
    if subj == "H":
        subject = "H"
    elif subj.startswith("Me(") and subj.endswith(")"):
        subject = "Me"
        carried = subj[3:-1]
        if not carried:
            raise PatternParseError(lineno, "merged subject needs a carried slot")
    else:
        raise PatternParseError(lineno, f"bad subject {subj!r}")
    repeat = prim.endswith("+")
    prim_token = prim[:-1] if repeat else prim
    if prim_token not in PRIMITIVE_TERMINALS:
        raise PatternParseError(lineno, f"unknown primitive token {prim_token!r}")
    primitive = Primitive(prim_token)
    if repeat and primitive not in (Primitive.Mt, Primitive.Fmt):
        raise PatternParseError(lineno, "repetition marker only applies to Mt/Fmt steps")
    if rel not in _RELATION_TOKENS:
        raise PatternParseError(lineno, f"unknown relation token {rel!r}")
    for slot, kind in ((obj, "object"), (place, "place")):
        if slot.startswith("?"):
            continue
        if slot in RESERVED and slot != AIR:
            raise PatternParseError(lineno, f"reserved token {slot!r} in {kind} slot")
    if place == NO_OBJECT:
        raise PatternParseError(lineno, "place slot cannot be 'none'")
    return StepTemplate(subject, carried, primitive, repeat, obj,
                        _RELATION_TOKENS[rel], place, phase)


def parse_library_text(text: str) -> MappingLibrary:
    entries: list[LibraryEntry] = []
    name = None
    steps: list[StepTemplate] = []
    start_line = 0
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("action "):
            if name is not None:
                raise PatternParseError(lineno, f"entry {name!r} missing 'end'")
            name = line[len("action "):].strip()
            start_line = lineno
            if not name:
                raise PatternParseError(lineno, "missing action name")
            continue
        if name is None:
            raise PatternParseError(lineno, "step outside an action block")
        if line == "end":
            if any(e.name == name for e in entries):
                raise DuplicateName(name)
            entries.append(LibraryEntry(name, tuple(steps)))
            name, steps = None, []
            continue
        if line.startswith("hands "):
            if line[len("hands "):].strip() != "one":
                raise PatternParseError(
                    lineno, f"only one-handed entries are supported: {line!r}")
            continue
        steps.append(_parse_step(lineno, line))
    if name is not None:
        raise PatternParseError(start_line, f"entry {name!r} missing 'end'")

    for entry in entries:
        _validate_entry(entry)
    return MappingLibrary(tuple(entries))


def _validate_entry(entry: LibraryEntry):
    if not entry.steps:
        return  # an empty pattern denotes inactivity; nothing to derive
    binds = {var: GROUND if var == "?place" else f"obj{k + 1}"
             for k, var in enumerate(entry.variables)}
    try:
        parse(action_tokens(_instantiate(entry.name, entry.steps, binds, "left", repeats=1)))
    except (NoParse, UnboundVariable, ValueError) as exc:
        raise NonCfgPattern(f"{entry.name}: {exc}") from exc


def load_mapping_library(source) -> MappingLibrary:
    """Load a library from a path, text, or binary stream."""
    return parse_library_text(read_text(source))


@functools.cache
def default_library() -> MappingLibrary:
    """The packaged library, parsed and validated once per process; shared
    safely because entries are frozen and hold only tuples."""
    text = importlib.resources.files("manipsem").joinpath("data/action_library.txt").read_text("utf-8")
    return parse_library_text(text)


def _resolve(slot: str, bindings: dict, name: str) -> str:
    if slot.startswith("?"):
        if slot not in bindings:
            raise UnboundVariable(f"{name}: {slot} not bound")
        return bindings[slot]
    return slot


def _instantiate(name, steps, bindings, hand, repeats) -> list[AtomicAction]:
    out: list[AtomicAction] = []
    frame = 0
    for k, step in enumerate(steps):
        count = 1
        if step.repeat:
            count = repeats if isinstance(repeats, int) else repeats.get(k, 1)
            if count < 1:
                raise ValueError("repetition count must be >= 1")
        obj = _resolve(step.object_slot, bindings, name)
        place = _resolve(step.place_slot, bindings, name)
        carried = _resolve(step.carried, bindings, name) if step.subject == "Me" else None
        subject = Subject(hand, carried)
        for _ in range(count):
            out.append(AtomicAction(subject, step.primitive,
                                    None if obj == NO_OBJECT else obj,
                                    step.relation, place, (frame, frame)))
            frame += 1
    return out


def decompose(name: str, bindings: dict, lib: MappingLibrary, hand: str = "left",
              repeats=1) -> list[AtomicAction]:
    """Expand a named action into its atomic-action string."""
    return _instantiate(name, lib[name].steps, bindings, hand, repeats)


def _unify_slot(slot: str, value: str, bindings: dict) -> bool:
    if slot.startswith("?"):
        if slot in bindings:
            return bindings[slot] == value
        bindings[slot] = value
        return True
    return slot == value


def _match_step(step: StepTemplate, aa: AtomicAction, bindings: dict) -> bool:
    if aa.primitive is not step.primitive or aa.relation is not step.relation:
        return False
    if step.subject == "H":
        if aa.subject.is_merged:
            return False
    else:
        if not aa.subject.is_merged:
            return False
        if not _unify_slot(step.carried, aa.subject.carried, bindings):
            return False
    return (_unify_slot(step.object_slot, aa.object_token(), bindings)
            and _unify_slot(step.place_slot, aa.place, bindings))


def _match_entry(entry: LibraryEntry, actions, start: int):
    """Try to match entry's pattern at ``start``.

    Returns (end, bindings, step_spans) on success, None otherwise; a
    repeat step absorbs its maximal run of unifiable actions.
    """
    bindings: dict = {}
    pos = start
    spans = []
    for step in entry.steps:
        if pos >= len(actions) or not _match_step(step, actions[pos], bindings):
            return None
        begin = pos
        pos += 1
        while step.repeat and pos < len(actions):
            trial = dict(bindings)
            if not _match_step(step, actions[pos], trial):
                break
            bindings = trial
            pos += 1
        spans.append((begin, pos - 1))
    return pos, bindings, tuple(spans)


def recognize(actions, lib: MappingLibrary, hand: str | None = None) -> list[RecognizedAction]:
    """Greedy longest-match recognition of one hand's action stream.

    Unmatched spans come back as ``Unknown`` segments.  An empty stream
    maps to the library's empty pattern (inactivity) when one exists.
    """
    actions = list(actions)
    if hand is None:
        hand = actions[0].subject.side if actions else "left"
    if not actions:
        for e in lib.entries:
            if not e.steps:
                return [RecognizedAction(e.name, {}, (0, -1), hand)]
        return []

    out: list[RecognizedAction] = []
    pos = 0
    unknown_start = None
    while pos < len(actions):
        best = None
        for entry in lib.entries:
            if not entry.steps:
                continue
            got = _match_entry(entry, actions, pos)
            if got is not None and (best is None or got[0] > best[0]):
                best = (got[0], entry, got[1], got[2])
        if best is None:
            if unknown_start is None:
                unknown_start = pos
            pos += 1
            continue
        if unknown_start is not None:
            out.append(RecognizedAction("Unknown", {}, (unknown_start, pos - 1), hand))
            unknown_start = None
        end, entry, bindings, spans = best
        out.append(RecognizedAction(entry.name, bindings, (pos, end - 1), hand,
                                    spans, tuple(s.phase for s in entry.steps)))
        pos = end
    if unknown_start is not None:
        out.append(RecognizedAction("Unknown", {}, (unknown_start, len(actions) - 1), hand))
    return out
