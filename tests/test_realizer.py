import io
from dataclasses import replace

import pytest

from manipsem.actions import AIR, GROUND, AtomicAction, Primitive, Snippet, Subject
from manipsem.library import decompose, recognize
from manipsem.realizer import (
    LevelUnavailable,
    MissingTemplate,
    available_levels,
    load_template_set,
    parse_template_text,
    realize_atomic,
    realize_level,
)
from manipsem.relations import SsrLabel


def aa(subject, prim, obj, rel, place, span=(0, 0), **kw):
    return AtomicAction(subject, prim, obj, rel, place, span, **kw)


HAND = Subject("left")
MERGED = Subject("left", "tool9")


class TestRealizeAtomic:
    def test_touch_sentence(self, templates):
        s = aa(HAND, Primitive.T, "sd1", SsrLabel.To, GROUND,
               object_label="screwdriver")
        text = realize_atomic(s, None, templates)
        assert text == "The left hand touches the top of a screwdriver on the table."

    def test_merged_untouch_ground(self, templates):
        s = aa(MERGED, Primitive.U, GROUND, SsrLabel.Ab, GROUND, object_label="table")
        assert realize_atomic(s, None, templates) == "They untouch the table."

    def test_continuation_form(self, templates):
        prev = aa(MERGED, Primitive.Mt, None, SsrLabel.Ab, AIR)
        cur = aa(MERGED, Primitive.Mt, None, SsrLabel.Ab, AIR)
        assert realize_atomic(cur, prev, templates) == \
            "They keep moving together above the table."

    def test_first_motion_not_continued(self, templates):
        cur = aa(MERGED, Primitive.Mt, None, SsrLabel.Ab, AIR)
        assert realize_atomic(cur, None, templates) == \
            "They move together above the table."

    def test_missing_template(self):
        ts = parse_template_text("subject.left = The left hand\n")
        with pytest.raises(MissingTemplate):
            realize_atomic(aa(HAND, Primitive.T, "x", SsrLabel.To, GROUND), None, ts)

    def test_template_path_and_stream_read_alike(self, tmp_path):
        # a lone "\r" is no line break, whichever way the file is read
        data = b"subject.left = The left hand\nidle = The hand\rrests.\n"
        path = tmp_path / "templates.txt"
        path.write_bytes(data)
        from_path = load_template_set(str(path))
        assert from_path == load_template_set(io.BytesIO(data))
        assert from_path.get("idle") == "The hand\rrests."

    def test_article_progression(self, templates, lib):
        acts = decompose("Wipe", {"?tool": "sponge1", "?place": GROUND}, lib)
        acts = [a.__class__(**{**a.__dict__, "object_label":
                               ("sponge" if a.object_id == "sponge1" else a.object_label)})
                for a in acts]
        rec = recognize(acts, lib)
        snip = Snippet("left", (0, len(acts) - 1), tuple(acts))
        desc = realize_level(snip, rec, 1, templates, lib, {"sponge1": "sponge"})
        texts = desc.texts()
        assert "a sponge" in texts[0]
        assert "the sponge" in texts[-1]

    def test_an_article_for_vowel(self, templates):
        s = aa(HAND, Primitive.T, "apple1", SsrLabel.To, GROUND, object_label="apple")
        assert "an apple" in realize_atomic(s, None, templates)


def make_snippet(lib, name, binds, reps=2, labels=None):
    acts = decompose(name, binds, lib, repeats=reps)
    n = len(acts)
    acts = [replace(a, frame_span=(k * 10 + 5, k * 10 + 5)) for k, a in enumerate(acts)]
    rec = recognize(acts, lib)
    return Snippet("left", (0, n * 10 + 9), tuple(acts)), rec


class TestRealizeLevel:
    BINDS = {"?tool": "sd1", "?object": "disk1", "?place": GROUND, "?target": GROUND}
    LABELS = {"sd1": "screwdriver", "disk1": "hard disk"}

    def test_level_one_bijection(self, templates, lib):
        snip, rec = make_snippet(lib, "Screw", self.BINDS)
        desc = realize_level(snip, rec, 1, templates, lib, self.LABELS)
        assert len(desc.sentences) == len(snip.actions)

    def test_monotone_compression(self, templates, lib):
        snip, rec = make_snippet(lib, "Screw", self.BINDS)
        counts = [len(realize_level(snip, rec, k, templates, lib, self.LABELS).sentences)
                  for k in sorted(available_levels(snip, rec))]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] == 1

    def test_spans_tile_snippet(self, templates, lib):
        snip, rec = make_snippet(lib, "Screw", self.BINDS)
        for k in available_levels(snip, rec):
            desc = realize_level(snip, rec, k, templates, lib, self.LABELS)
            spans = [s for _, s in desc.sentences]
            assert spans[0][0] == snip.frame_span[0]
            assert spans[-1][1] == snip.frame_span[1]
            for (_, hi), (lo2, _) in zip(spans, spans[1:]):
                assert lo2 == hi + 1

    def test_top_level_sentence(self, templates, lib):
        snip, rec = make_snippet(lib, "Screw", self.BINDS)
        desc = realize_level(snip, rec, max(available_levels(snip, rec)), templates, lib,
                             self.LABELS)
        assert desc.texts() == [
            "The left hand performs screwing inside of a hard disk on the table "
            "by a screwdriver."
        ]

    def test_available_levels_screw(self, templates, lib):
        snip, rec = make_snippet(lib, "Screw", self.BINDS)
        assert available_levels(snip, rec) == {1, 2, 3}

    def test_available_levels_single_action(self, templates, lib):
        snip, rec = make_snippet(lib, "Hold", {"?object": "cup1", "?place": GROUND},
                                 reps=1)
        assert available_levels(snip, rec) == {1}

    def test_available_levels_empty(self):
        snip = Snippet("left", (0, 0), ())
        assert available_levels(snip, []) == set()

    def test_unavailable_level_raises(self, templates, lib):
        snip, rec = make_snippet(lib, "Hold", {"?object": "cup1", "?place": GROUND},
                                 reps=1)
        with pytest.raises(LevelUnavailable) as err:
            realize_level(snip, rec, 7, templates, lib)
        assert err.value.available == [1]

    def test_idle_snippet(self, templates):
        snip = Snippet("left", (0, 99), ())
        desc = realize_level(snip, [], 1, templates)
        assert desc.texts() == ["Idle."]
        assert desc.sentences[0][1] == (0, 99)

    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_idle_snippet_has_level_one_only(self, templates, k):
        with pytest.raises(LevelUnavailable) as err:
            realize_level(Snippet("left", (0, 99), ()), [], k, templates)
        assert err.value.available == [1]

    def test_unknown_spans_stay_detailed(self, templates, lib):
        acts = decompose("Hold", {"?object": "cup1", "?place": GROUND}, lib)
        stray = decompose("Retreat", {"?object": "pin1", "?place": GROUND}, lib)[1:]
        allacts = [replace(a, frame_span=(k, k)) for k, a in enumerate(acts + stray)]
        rec = recognize(allacts, lib)
        snip = Snippet("left", (0, len(allacts) - 1), tuple(allacts))
        top = realize_level(snip, rec, max(available_levels(snip, rec)),
                            templates, lib)
        assert len(top.sentences) == 2  # Hold collapsed, the stray stays atomic

    def test_determinism(self, templates, lib):
        snip, rec = make_snippet(lib, "Screw", self.BINDS)
        a = realize_level(snip, rec, 2, templates, lib, self.LABELS).texts()
        b = realize_level(snip, rec, 2, templates, lib, self.LABELS).texts()
        assert a == b


def test_template_parse_rejects_bad_line():
    with pytest.raises(ValueError):
        parse_template_text("just words\n")


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0c"])
def test_template_lines_split_at_newline_only(char):
    ts = parse_template_text(f"# a{char}b\r\nidle = The hand rests{char}quietly.\n")
    assert ts.get("idle") == f"The hand rests{char}quietly."
    with pytest.raises(ValueError, match="template line 3:"):
        parse_template_text(f"idle = a{char}b\n# c\njust words\n")


def test_ground_relabel(templates):
    ts = templates.with_ground("bench")
    s = aa(MERGED, Primitive.Mt, None, SsrLabel.Ab, AIR)
    assert realize_atomic(s, None, ts) == "They move together above the bench."
