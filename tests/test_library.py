import io
import random

import pytest

from manipsem.actions import GROUND
from manipsem.library import (
    DuplicateName,
    NonCfgPattern,
    PatternParseError,
    STANDARD_ACTIONS,
    UnboundVariable,
    UnknownAction,
    decompose,
    load_mapping_library,
    parse_library_text,
    recognize,
)
from helpers import atomic_action_space

POOLS = {
    "?tool": ["knife", "spoon", "cup", "hammer", "saw", "screwdriver", "sponge"],
    "?object": ["apple", "bowl", "board", "disk", "mouth", "nail", "mug"],
    "?place": [GROUND, "tray"],
    "?target": [GROUND, "counter"],
}


def random_bindings(entry, rng):
    binds = {}
    used = set()
    for var in entry.variables:
        pool = [v for v in POOLS.get(var, ["thing1", "thing2"])
                if v == GROUND or v not in used]
        binds[var] = rng.choice(pool)
        used.add(binds[var])
    return binds


class TestLoading:
    def test_default_library_names(self, lib):
        assert set(STANDARD_ACTIONS) <= set(lib.names())
        assert len(lib.names()) == len(set(lib.names()))

    def test_idle_is_empty(self, lib):
        assert lib["Idle"].steps == ()

    def test_max_pattern_depth(self, lib):
        longest = max(len(e.steps) for e in lib.entries)
        assert longest == 14  # the most complex mapping
        assert all(len(e.steps) <= 14 for e in lib.entries)

    def test_unknown_primitive_token(self):
        text = "action Bad\nhands one\nH Q ?object To ?place\nend\n"
        with pytest.raises(PatternParseError):
            parse_library_text(text)

    def test_duplicate_name(self):
        block = "action Cut\nhands one\nH T ?object To ?place\nend\n"
        with pytest.raises(DuplicateName):
            parse_library_text(block + block)

    def test_repeat_marker_restricted_to_motion(self):
        text = "action Bad\nhands one\nH T+ ?object To ?place\nend\n"
        with pytest.raises(PatternParseError):
            parse_library_text(text)

    def test_bad_relation_token(self):
        text = "action Bad\nhands one\nH T ?object Zz ?place\nend\n"
        with pytest.raises(PatternParseError):
            parse_library_text(text)

    def test_missing_end(self):
        with pytest.raises(PatternParseError):
            parse_library_text("action Dangling\nhands one\nH T ?object To ?place\n")

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0c"])
    def test_lines_split_at_newline_only(self, char):
        hold = f"action Hold # held{char}still\nhands one\nH T ?object To ?place\nend\n"
        assert parse_library_text(hold)["Hold"].steps
        with pytest.raises(PatternParseError) as info:
            parse_library_text(f"# a{char}b\naction Bad\nhands one\nH Q ?object To ?place\nend\n")
        assert info.value.lineno == 4

    def test_path_and_stream_read_alike(self, tmp_path):
        # a lone "\r" is no line break, whichever way the file is read
        data = b"action Hold # held\rstill\nhands one\nH T ?object To ?place\nend\n"
        path = tmp_path / "lib.txt"
        path.write_bytes(data)
        from_path = load_mapping_library(str(path))
        assert from_path == load_mapping_library(io.BytesIO(data))
        assert from_path["Hold"].steps

    def test_non_cfg_pattern_rejected(self):
        # a reserved grammar token in the object slot cannot derive
        text = "action Bad\nhands one\nH T Mt To ?place\nend\n"
        with pytest.raises((NonCfgPattern, PatternParseError)):
            parse_library_text(text)


class TestDecompose:
    def test_hold_shape(self, lib):
        acts = decompose("Hold", {"?object": "cup", "?place": "table"}, lib)
        assert len(acts) == 1
        aa = acts[0]
        assert (aa.subject.side, aa.primitive.value, aa.object_id,
                aa.relation.value, aa.place) == ("left", "T", "cup", "To", "table")

    def test_cut_length_bounds(self, lib):
        acts = decompose("Cut", {"?tool": "knife", "?object": "apple",
                                 "?place": GROUND, "?target": GROUND}, lib)
        assert 4 <= len(acts) <= 14

    def test_unknown_action(self, lib):
        with pytest.raises(UnknownAction):
            decompose("Fly", {}, lib)

    def test_unbound_variable(self, lib):
        with pytest.raises(UnboundVariable):
            decompose("Hold", {"?object": "cup"}, lib)

    def test_repetition_counts(self, lib):
        base = decompose("Lift", {"?object": "cup", "?place": GROUND}, lib, repeats=1)
        more = decompose("Lift", {"?object": "cup", "?place": GROUND}, lib, repeats=4)
        assert len(more) == len(base) + 3

    def test_zero_repetition_rejected(self, lib):
        with pytest.raises(ValueError):
            decompose("Lift", {"?object": "cup", "?place": GROUND}, lib, repeats=0)


class TestRecognize:
    def test_round_trip_all_actions(self, lib):
        rng = random.Random(0)
        for name in STANDARD_ACTIONS:
            entry = lib[name]
            for _ in range(5):
                binds = random_bindings(entry, rng)
                reps = rng.randint(1, 5)
                acts = decompose(name, binds, lib, hand=rng.choice(["left", "right"]),
                                 repeats=reps)
                rec = recognize(acts, lib)
                assert [r.name for r in rec] == [name]
                assert rec[0].bindings == binds

    def test_empty_stream_without_idle_entry(self):
        mini = parse_library_text(
            "action Hold\nhands one\nH T ?object To ?place\nend\n")
        assert recognize([], mini) == []

    def test_empty_stream_with_idle_entry(self, lib):
        rec = recognize([], lib)
        assert [r.name for r in rec] == ["Idle"]

    def test_unknown_segment(self, lib):
        acts = decompose("Hold", {"?object": "cup", "?place": GROUND}, lib)
        stray = decompose("Retreat", {"?object": "pin", "?place": GROUND}, lib)[1:]
        rec = recognize(acts + stray, lib)
        assert [r.name for r in rec] == ["Hold", "Unknown"]
        assert rec[1].span == (1, 1)

    def test_longest_match_wins(self, lib):
        binds = {"?object": "cup", "?place": GROUND, "?target": GROUND}
        acts = decompose("Place", binds, lib, repeats=3)
        rec = recognize(acts, lib)
        assert [r.name for r in rec] == ["Place"]  # Hold and Lift are prefixes

    def test_repetition_absorption(self, lib):
        binds = {"?tool": "sponge", "?place": GROUND}
        for reps in (1, 2, 5):
            acts = decompose("Wipe", binds, lib, repeats=reps)
            rec = recognize(acts, lib)
            assert [r.name for r in rec] == ["Wipe"]

    def test_back_to_back_actions(self, lib):
        a = decompose("Hold", {"?object": "cup", "?place": GROUND}, lib)
        b = decompose("Retreat", {"?object": "cup", "?place": GROUND}, lib)
        rec = recognize(b + a, lib)
        assert [r.name for r in rec] == ["Retreat", "Hold"]

    def test_step_spans_cover_match(self, lib):
        binds = {"?tool": "sd", "?object": "disk", "?place": GROUND, "?target": GROUND}
        acts = decompose("Screw", binds, lib, repeats=3)
        rec = recognize(acts, lib)[0]
        assert rec.span == (0, len(acts) - 1)
        assert rec.step_spans[0] == (0, 0)
        assert rec.step_spans[-1][1] == len(acts) - 1
        assert len(rec.step_phases) == len(rec.step_spans)


class TestOneHanded:
    def test_two_handed_entry_rejected_at_its_line(self):
        text = ("action Hold\nhands one\nH T ?object To ?place\nend\n"
                "action SteadyWipe\nhands both\nleft:\nH T ?support To ?place\nend\n")
        with pytest.raises(PatternParseError) as info:
            parse_library_text(text)
        assert info.value.lineno == 6
        assert str(info.value) == ("line 6: only one-handed entries are supported: "
                                   "'hands both'")


def test_atomic_action_space_reported():
    space = atomic_action_space()
    count = len(atomic_action_space())
    assert count == len(space)
    assert 0 < count < 2200  # strictly fewer than the raw product
    assert len(set(space)) == count
    # spot-check constraints: contact always has a partner
    assert all(o != "none" for s, p, o, r, pl in space if p in ("T", "U"))
