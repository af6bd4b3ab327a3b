"""``load_trace`` against a plain loader: ``json.loads`` of each line and
the per-record rules of the README's trace format.  On traces whose object
records repeat verbatim, repeat re-formatted, move between indices, appear
and disappear, and on lines that are bad in every way the format can be,
both give the same trace by value (point arrays bit for bit), or an error
of the same type on the same line.

The reuse itself is pinned on clean traces: only the layout dump_trace
writes reuses records, a static object's record is decoded once, and any
other layout turns that off without changing what loads.
"""

import io
import json
import random

from hypothesis import HealthCheck, example, given, settings, strategies as st

from manipsem import events
from manipsem.events import dumps_trace, load_trace
from manipsem.synth import SCENARIOS, ScenarioSpec, generate_synthetic_trace
from helpers import assert_same_trace, load_outcome, oracle_load


OBJECTS = [("h", "left hand", "hand_left"), ("c", "cup", "object"),
           ("d", "disk", "object"), ("g", "table", "ground")]

# Tokens written verbatim as coordinates: huge ints beyond every fixed-width
# type and past the interpreter's digit limit, ints, -0.0, non-finite
# constants, booleans and values of the wrong type.
SPECIAL_TOKENS = ["0", "-0", "-0.0", "7", "1e2", "NaN", "Infinity", "-Infinity",
                  str(2 ** 63), str(2 ** 64 - 1), str(2 ** 64), str(-2 ** 63 - 1),
                  "1" + "0" * 400, "9" * 5000, "true", "false", "null", '"1"', "[1]"]

BAD_RECORDS = ['5', '"cup"', 'null', '[]', '{}', '{"id": "c", "label": "cup"}',
               '{"id": "c", "label": "cup", "role": "object", "points": [[0, 0, 0]]}',
               '{"id": "c", "label": "cup", "role": "thing", "points": []}',
               '{"id": 3, "label": "cup", "role": "object", "points": []}',
               '{"id": "c", "label": "cup", "role": "object", "color": 1, "points": []}',
               '{"id": "c", "label": "cup", "role": "object", "points": [[0, 0], [1, 1]]}',
               '{"id": "g", "label": "table", "role": "ground", "box": [[1, 1, 1], [0, 0, 0]]}',
               '{"id": "g", "label": "table", "role": "ground"}']

# Whitespace JSON allows, and characters it does not
SPACES = ["", " ", "  ", "\t", "\r", " \t "]


def rare(draw, one_in):
    """True on about one draw in ``one_in``, shrinking to False (a draw at
    either end of a range, which hypothesis favours, is False)."""
    return draw(st.integers(0, one_in - 1)) == one_in // 2


def tokens(seed, n):
    """``n`` coordinate tokens from ``seed``: about one in 150 a special
    token, the rest half floats in [-2, 2] and half ints in [-3, 3].  One
    draw per record keeps the strategy cheap; the record's structure still
    shrinks."""
    rng = random.Random(seed)
    return [rng.choice(SPECIAL_TOKENS) if rng.randrange(150) == 75
            else repr(rng.uniform(-2.0, 2.0)) if rng.random() < 0.5
            else str(rng.randint(-3, 3)) for _ in range(n)]


@st.composite
def record(draw, oid, label, role):
    """One object record as ordered (key, value text) pairs."""
    rec = [("id", json.dumps(oid)), ("label", json.dumps(label)), ("role", json.dumps(role))]
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if role == "ground" and draw(st.booleans()):
        lo = [draw(st.sampled_from(["-1", "-1.0", "-0.5"])) for _ in range(3)]
        hi = [draw(st.sampled_from(["0", "-0.0", "0.0", "1", t])) for t in tokens(seed, 3)]
        rec.append(("box", f"[[{', '.join(lo)}], [{', '.join(hi)}]]"))
    else:
        n = draw(st.integers(1 if role == "ground" else 4, 5))
        coords = tokens(seed, 3 * n)
        rows = [f"[{', '.join(coords[3 * k:3 * k + 3])}]" for k in range(n)]
        rec.append(("points", f"[{', '.join(rows)}]"))
    return rec


@st.composite
def render(draw, pairs):
    """A JSON object of (key, value text) pairs in a drawn layout: its key
    order, whitespace, and an earlier duplicate of a key that the last
    copy overrides."""
    pairs = list(pairs)
    order = draw(st.sampled_from(["as is", "sorted", "reversed", "shuffled"]))
    if order == "sorted":
        pairs.sort()
    elif order == "reversed":
        pairs.reverse()
    elif order == "shuffled":
        pairs = draw(st.permutations(pairs))
    if rare(draw, 6):
        key, _ = draw(st.sampled_from(pairs))
        pairs.insert(0, (key, draw(st.sampled_from(['0', '"x"', '[]', '{"a": 1}']))))
    if draw(st.booleans()):
        return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}"
    ws = st.sampled_from(SPACES)
    return ("{" + draw(ws)
            + ",".join(f"{json.dumps(k)}{draw(ws)}:{draw(ws)}{v}{draw(ws)}" for k, v in pairs)
            + "}")


@st.composite
def frame_records(draw, prev):
    """The record texts of one frame, given the previous frame's as
    {object: (pairs, text)}: most repeat that text verbatim, some are
    re-rendered or redrawn, objects come and go and change places."""
    present = [o for o in OBJECTS if o[0] in prev] if prev else []
    if not present or rare(draw, 4):
        present = draw(st.lists(st.sampled_from(OBJECTS), min_size=1, max_size=4, unique=True))
    elif rare(draw, 4):
        present = draw(st.permutations(present))
    out = {}
    for oid, label, role in present:
        old = prev.get(oid)
        how = draw(st.sampled_from(["re-rendered", "new"])) if rare(draw, 4) else "verbatim"
        if old is not None and how == "verbatim":
            out[oid] = old
        elif old is not None and how == "re-rendered":
            out[oid] = (old[0], draw(render(old[0])))
        else:
            pairs = draw(record(oid, label, role))
            out[oid] = (pairs, draw(render(pairs)))
    return out


LINE_FAULTS = ["bom", "trailing", "truncated", "not an object", "extra field", "no t",
               "bad record", "same t"]


@st.composite
def trace_text(draw):
    """Half the traces in the layout dump_trace writes, the one whose
    repeated records the loader reuses; the others in drawn layouts."""
    as_dumped = draw(st.booleans())
    lines, prev, t = [], {}, 0.0
    for _ in range(draw(st.integers(1, 5))):
        records = draw(frame_records(prev))
        prev = records
        texts = [text for _, text in records.values()]
        fault = draw(st.sampled_from(LINE_FAULTS)) if rare(draw, 12) else None
        if fault == "bad record":
            texts.insert(draw(st.integers(0, len(texts))), draw(st.sampled_from(BAD_RECORDS)))
        t += 0.0 if fault == "same t" else 0.25
        ws = draw(st.sampled_from(SPACES))
        t_text = (draw(st.sampled_from([str(int(t * 4)), "true"])) if rare(draw, 8)
                  else repr(t))
        pairs = [] if fault == "no t" else [("t", t_text)]
        objects = ", ".join(texts) if as_dumped else ws + ("," + ws).join(texts) + ws
        pairs.append(("objects", "[" + objects + "]"))
        if fault == "extra field":
            pairs.append(("fps", "30"))
        line = ("{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}" if as_dumped
                else draw(render(pairs)))
        if fault == "bom":
            line = "\ufeff" + line
        elif fault == "trailing":
            line += draw(st.sampled_from([" x", "{}", ",", "]", " 1"]))
        elif fault == "truncated":
            line = line[:draw(st.integers(0, len(line) - 1))]
        elif fault == "not an object":
            line = draw(st.sampled_from(["[]", "1", '"frame"', "null", "true", f"[{line}]"]))
        lines.append(line)
    return draw(st.sampled_from(["\n", "\r\n", "\n\n"])).join(lines) + "\n"


def lines_of(*frames):
    """Trace text of (t, [record text, ...]) frames."""
    return "".join(f'{{"t": {t}, "objects": [{", ".join(recs)}]}}\n' for t, recs in frames)


def cloud_record(oid, label, role, first_point):
    return (f'{{"id": "{oid}", "label": "{label}", "role": "{role}", '
            f'"points": [{first_point}, [1, 0, 0], [0, 1, 0], [0, 0, 1]]}}')


HAND = cloud_record("h", "left hand", "hand_left", "[0, 0, 0]")
BIG = cloud_record("c", "cup", "object", f"[{2 ** 64 - 1}, -1, 0]")
TRUE_CUP = cloud_record("d", "true cup", "object", "[0.5, 0, 0]")
HUGE_HAND = cloud_record("h", "left hand", "hand_left", f"[0, 0, {'9' * 5000}]")
FLAT_GROUND = '{"id": "g", "label": "table", "role": "ground", "box": [[-1, -1, -1], [0, -0.0, 1]]}'


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace_text())
# a repeated record of an int past int64 and a negative int, then on a
# line that holds a boolean
@example(lines_of((0, [HAND, BIG]), (1, [HAND, BIG, TRUE_CUP]), (2, [HAND, BIG])))
# a ground box with a zero written as -0.0, then as 0, then as -0.0
@example(lines_of((0, [FLAT_GROUND]), (1, [FLAT_GROUND.replace("-0.0", "0")]), (2, [FLAT_GROUND])))
# a repeated record moved to another index, then a bad record after it
@example(lines_of((0, [HAND, BIG]), (1, [BIG, HAND]), (2, [BIG, HAND, "5"])))
# an int past the digit limit after a repeated record; a truncated line
@example(lines_of((0, [HAND]), (1, [HAND, HUGE_HAND])))
@example(lines_of((0, [HAND]), (1, [HAND]))[:-30] + "\n")
# a record that repeats, verbatim, the line before it in another layout
@example('{"objects": [%s], "t": 0}\n{"t": 1, "objects": [{"objects": [%s], "t": 0}]}\n'
         % (HAND, HAND))
# a boolean among numbers; a ground cloud given as one flat [x, y, z]
@example(lines_of((0, [HAND, cloud_record("c", "cup", "object", "[true, 0.5, 0.1]")])))
@example(lines_of((0, ['{"id": "g", "label": "table", "role": "ground", "points": [1, 2, 3]}'])))
# an objects array nested past the recursion limit after a repeated record
@example(lines_of((0, [HAND]), (1, [HAND])) + '{"t": 2, "objects": ' + "[" * 100000 + "\n")
def test_load_trace_matches_the_plain_loader(text):
    got, want = load_outcome(load_trace, text), load_outcome(oracle_load, text)
    if isinstance(want, Exception):
        assert type(got) is type(want), got
        assert getattr(got, "lineno", None) == getattr(want, "lineno", None)
    else:
        assert not isinstance(got, Exception), got
        assert_same_trace(got, want)


def odd_lines_sorted(text):
    """``text`` with lines 1, 3, 5, ... re-serialized with sorted keys."""
    lines = text.split("\n")[:-1]
    return "".join((json.dumps(json.loads(line), sort_keys=True) if k % 2 == 0 else line) + "\n"
                   for k, line in enumerate(lines))


def test_repeated_records_share_one_instance(lib):
    """In a clean Screw trace each static object's frames share one
    instance; with every other line re-serialized none do, and the arrays
    are the same."""
    text = dumps_trace(generate_synthetic_trace(ScenarioSpec("Screw", seed=7), lib).trace)
    trace = load_trace(io.StringIO(text))
    by_id = {}
    for fr in trace.frames:
        for o in fr.objects:
            by_id.setdefault(o.id, []).append(o)
    static = {oid for oid, insts in by_id.items()
              if len({o.cloud().tobytes() for o in insts}) == 1}
    assert "table" in static and len(static) >= 2, static
    assert static != set(by_id)
    for oid in static:
        assert all(a is b for a, b in zip(by_id[oid], by_id[oid][1:])), oid

    resorted = load_trace(io.StringIO(odd_lines_sorted(text)))
    assert_same_trace(resorted, trace)
    for before, after in zip(resorted.frames, resorted.frames[1:]):
        assert not {id(o) for o in before.objects} & {id(o) for o in after.objects}


RELAYOUTS = {
    "frame keys reversed": lambda rec: json.dumps({"objects": rec["objects"], "t": rec["t"]}),
    "no spaces": lambda rec: json.dumps(rec, separators=(",", ":")),
}


def test_only_dump_trace_layout_reuses_records(monkeypatch, lib):
    """No line dump_trace writes reaches ``json.loads``: a round of the 14
    clean seed-1 scenarios decodes 1281 records (1267 point lists and 14
    ground boxes).  The same frames in another layout load to the same
    traces, every record decoded on its own."""
    texts = [dumps_trace(generate_synthetic_trace(ScenarioSpec(name, seed=1), lib).trace)
             for name in SCENARIOS]
    decode_json, whole_lines = events.decode_json, []
    monkeypatch.setattr(events, "decode_json",
                        lambda *args: whole_lines.append(args) or decode_json(*args))
    traces = [load_trace(io.StringIO(text), "t") for text in texts]
    assert not whole_lines
    assert len({id(o) for trace in traces for fr in trace.frames for o in fr.objects}) == 1281
    for text, trace in zip(texts, traces):
        for name, relayout in RELAYOUTS.items():
            lines = [relayout(json.loads(line)) for line in text.splitlines()]
            assert lines[0] not in text, name
            other = load_trace(io.StringIO("\n".join(lines)), "t")
            assert_same_trace(other, trace)
            instances = [o for fr in other.frames for o in fr.objects]
            assert len({id(o) for o in instances}) == len(instances), name
