"""Extraction outputs pinned per trace.

Each digest covers one trace's atomic-action stream (every field, spans
and labels included), ``hand_busy``, ``segment_actions``, ``idle_spans``
and the ``describe_document`` text, for the 14 scenarios at clean seeds
1-3 and at 1 cm noise seeds 1-3 with the noisy overrides.  A change that
moves extraction on purpose records the new digests the failure prints.
"""

import hashlib

from manipsem.config import RunConfig
from manipsem.events import idle_spans, segment_actions
from manipsem.pipeline import analyze_trace, describe_document
from manipsem.synth import SCENARIOS, ScenarioSpec, generate_synthetic_trace
from helpers import NOISY_OVERRIDES

CASES = [(name, noise, seed) for name in SCENARIOS for noise in (0.0, 0.01) for seed in (1, 2, 3)]


def _row(a) -> str:
    return repr((a.subject.side, a.subject.carried, a.primitive.value, a.object_id,
                 a.relation.value, a.place, a.frame_span, a.object_label,
                 a.carried_label, a.place_label))


def _digest(name: str, noise: float, seed: int) -> str:
    cfg = RunConfig().with_overrides(**NOISY_OVERRIDES) if noise else RunConfig()
    gen = generate_synthetic_trace(ScenarioSpec(name, seed=seed, noise=noise))
    analysis = analyze_trace(gen.trace, cfg)
    res = analysis.extraction
    lines = [f"frames {res.n_frames}"]
    for hand in sorted(res.actions):
        lines.append(f"hand {hand}")
        lines.extend(_row(a) for a in res.for_hand(hand))
        lines.append("busy " + "".join("01"[bool(b)] for b in res.hand_busy[hand]))
        for snip in segment_actions(res, hand):
            lines.append(f"segment {snip.frame_span}")
            lines.extend(_row(a) for a in snip.actions)
        lines.append(f"idle {idle_spans(res, hand)}")
    lines.append(describe_document(analysis))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


RECORDED = {
    "Idle/0.0/1": "f9a81b2863d9e653",
    "Idle/0.0/2": "f9a81b2863d9e653",
    "Idle/0.0/3": "f9a81b2863d9e653",
    "Idle/0.01/1": "f9a81b2863d9e653",
    "Idle/0.01/2": "f9a81b2863d9e653",
    "Idle/0.01/3": "f9a81b2863d9e653",
    "Approach/0.0/1": "660f7873366d349f",
    "Approach/0.0/2": "660f7873366d349f",
    "Approach/0.0/3": "660f7873366d349f",
    "Approach/0.01/1": "b02309d880a82c60",
    "Approach/0.01/2": "b02309d880a82c60",
    "Approach/0.01/3": "b02309d880a82c60",
    "Retreat/0.0/1": "01a0dbfacd16354b",
    "Retreat/0.0/2": "01a0dbfacd16354b",
    "Retreat/0.0/3": "01a0dbfacd16354b",
    "Retreat/0.01/1": "75c9915a96ed1912",
    "Retreat/0.01/2": "db9ddb16b421eddf",
    "Retreat/0.01/3": "75c9915a96ed1912",
    "Lift/0.0/1": "d6ccb5679098c28a",
    "Lift/0.0/2": "d6ccb5679098c28a",
    "Lift/0.0/3": "d6ccb5679098c28a",
    "Lift/0.01/1": "8df0382e0c27a870",
    "Lift/0.01/2": "8df0382e0c27a870",
    "Lift/0.01/3": "8df0382e0c27a870",
    "Place/0.0/1": "2c148ee1cc399d96",
    "Place/0.0/2": "2c148ee1cc399d96",
    "Place/0.0/3": "2c148ee1cc399d96",
    "Place/0.01/1": "b052e02de98dfa6a",
    "Place/0.01/2": "b052e02de98dfa6a",
    "Place/0.01/3": "b052e02de98dfa6a",
    "Hold/0.0/1": "427cf0d73d980397",
    "Hold/0.0/2": "427cf0d73d980397",
    "Hold/0.0/3": "427cf0d73d980397",
    "Hold/0.01/1": "821dd5398b36057a",
    "Hold/0.01/2": "821dd5398b36057a",
    "Hold/0.01/3": "821dd5398b36057a",
    "Stir/0.0/1": "30dff883c9e58edd",
    "Stir/0.0/2": "30dff883c9e58edd",
    "Stir/0.0/3": "30dff883c9e58edd",
    "Stir/0.01/1": "da71272f80d54ea4",
    "Stir/0.01/2": "da71272f80d54ea4",
    "Stir/0.01/3": "da71272f80d54ea4",
    "Pour/0.0/1": "8cedda84c88b6939",
    "Pour/0.0/2": "8cedda84c88b6939",
    "Pour/0.0/3": "8cedda84c88b6939",
    "Pour/0.01/1": "4f87260a7405590f",
    "Pour/0.01/2": "4f87260a7405590f",
    "Pour/0.01/3": "4b30e664065ad018",
    "Cut/0.0/1": "43455d7f585d46cb",
    "Cut/0.0/2": "43455d7f585d46cb",
    "Cut/0.0/3": "43455d7f585d46cb",
    "Cut/0.01/1": "c017239d291d7d54",
    "Cut/0.01/2": "c017239d291d7d54",
    "Cut/0.01/3": "34ce01eb12b95c8b",
    "Drink/0.0/1": "229043b0edfce6ad",
    "Drink/0.0/2": "229043b0edfce6ad",
    "Drink/0.0/3": "229043b0edfce6ad",
    "Drink/0.01/1": "6a6b34cf3d2da0a8",
    "Drink/0.01/2": "6a6b34cf3d2da0a8",
    "Drink/0.01/3": "7e0ab3ef574af0ea",
    "Wipe/0.0/1": "605cbfcf69196da3",
    "Wipe/0.0/2": "605cbfcf69196da3",
    "Wipe/0.0/3": "605cbfcf69196da3",
    "Wipe/0.01/1": "37293a7feb06a791",
    "Wipe/0.01/2": "37293a7feb06a791",
    "Wipe/0.01/3": "d55f5d6ed5e6532c",
    "Hammer/0.0/1": "3f5b67b68067ff53",
    "Hammer/0.0/2": "3f5b67b68067ff53",
    "Hammer/0.0/3": "3f5b67b68067ff53",
    "Hammer/0.01/1": "cc9485130ca8562d",
    "Hammer/0.01/2": "cc9485130ca8562d",
    "Hammer/0.01/3": "cc9485130ca8562d",
    "Saw/0.0/1": "29b335e7c9f7adef",
    "Saw/0.0/2": "29b335e7c9f7adef",
    "Saw/0.0/3": "29b335e7c9f7adef",
    "Saw/0.01/1": "16a102d7218cf2a8",
    "Saw/0.01/2": "16a102d7218cf2a8",
    "Saw/0.01/3": "16a102d7218cf2a8",
    "Screw/0.0/1": "8c13d7576af90e5c",
    "Screw/0.0/2": "8c13d7576af90e5c",
    "Screw/0.0/3": "8c13d7576af90e5c",
    "Screw/0.01/1": "c6b7527fceedbdbb",
    "Screw/0.01/2": "c6b7527fceedbdbb",
    "Screw/0.01/3": "c6b7527fceedbdbb",
}


def test_extraction_outputs_match_recorded_digests():
    got = {f"{name}/{noise}/{seed}": _digest(name, noise, seed) for name, noise, seed in CASES}
    moved = {key: value for key, value in got.items() if RECORDED.get(key) != value}
    assert not moved, f"{len(moved)} traces moved; their digests now: {moved}"
