"""``load_trace`` against a plain loader: ``json.loads`` of each line and
the per-record rules of the README's trace format.  On traces whose object
records repeat verbatim, repeat re-formatted, move between indices, appear
and disappear, and on lines that are bad in every way the format can be,
both give the same trace by value (point arrays bit for bit), or an error
of the same type on the same line.

The reuse itself is pinned on a clean trace: a static object's record is
decoded once, and re-formatting every other line turns that off without
changing what loads.
"""

import io
import json
import random
import sys

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from manipsem.config import split_lines
from manipsem.events import (ROLES, Frame, MonotonicityError, ObjectInstance, ParseError,
                             SceneTrace, SchemaError, dumps_trace, load_trace)
from manipsem.synth import ScenarioSpec, generate_synthetic_trace


def oracle_cloud(value, need, lineno):
    """A point list as float rows: [x, y, z] lists of numbers as numpy reads
    them (a single [x, y, z] is one row), every coordinate finite, at least
    ``need`` rows."""
    try:
        arr = np.array(value)
    except ValueError as exc:       # ragged
        raise SchemaError("ragged point list", lineno) from exc
    if arr.dtype.kind not in "iuf" or arr.shape[-1:] != (3,) or arr.ndim > 2:
        raise SchemaError("not a list of [x, y, z] numbers", lineno)
    rows = arr.astype(np.float64).reshape(-1, 3)
    if not np.isfinite(rows).all() or len(rows) < need:
        raise SchemaError("non-finite coordinate or too few points", lineno)
    return rows


def oracle_object(rec, lineno):
    if not (isinstance(rec, dict) and {"id", "label", "role"} <= rec.keys()
            <= {"id", "label", "role", "points", "box"}
            and isinstance(rec["id"], str) and isinstance(rec["label"], str)
            and rec["role"] in ROLES):
        raise SchemaError("bad object record", lineno)
    role, points, box = rec["role"], rec.get("points"), rec.get("box")
    if points is None and (role != "ground" or box is None):
        raise SchemaError("object without points", lineno)
    if points is not None:
        points = oracle_cloud(points, 1 if role == "ground" else 4, lineno)
    if box is not None:
        corners = oracle_cloud(box, 2, lineno)
        if len(corners) != 2 or not (corners[1] > corners[0]).all():
            raise SchemaError("bad ground box", lineno)
        box = (tuple(corners[0].tolist()), tuple(corners[1].tolist()))
    return ObjectInstance(rec["id"], rec["label"], role, points, box)


def oracle_load(stream, trace_id):
    """The trace of ``stream`` read line by line, every record decoded and
    checked on its own."""
    frames = []
    for lineno, raw in enumerate(split_lines(stream.read()), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:   # also the digit limit
            raise ParseError(lineno, "bad JSON") from exc
        if not (isinstance(rec, dict) and rec.keys() == {"t", "objects"}
                and type(rec["t"]) in (int, float) and abs(rec["t"]) <= sys.float_info.max
                and isinstance(rec["objects"], list)):
            raise SchemaError("bad frame record", lineno)
        objects = [oracle_object(o, lineno) for o in rec["objects"]]
        roles = [o.role for o in objects]
        if any(roles.count(r) > 1 for r in ("hand_left", "hand_right", "ground")):
            raise SchemaError("duplicate hand or ground", lineno)
        if len({o.id for o in objects}) != len(objects):
            raise SchemaError("duplicate object id", lineno)
        frames.append(Frame(float(rec["t"]), tuple(objects)))
    bound = {}
    for o in (o for fr in frames for o in fr.objects):
        if bound.setdefault(o.id, (o.label, o.role)) != (o.label, o.role):
            raise SchemaError("label or role re-bound")
    times = [fr.t for fr in frames]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise MonotonicityError("timestamps not increasing")
    fps = float(1.0 / np.median(np.diff(times))) if len(times) > 1 else 30.0
    return SceneTrace(tuple(frames), trace_id, fps)


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
        pairs.append(("objects", "[" + ws + ("," + ws).join(texts) + ws + "]"))
        if fault == "extra field":
            pairs.append(("fps", "30"))
        line = draw(render(pairs))
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


def outcome(load, text):
    try:
        return load(io.StringIO(text), "t")
    except Exception as exc:  # the error itself is the result compared
        return exc


def assert_same_trace(got, want):
    assert (got.trace_id, got.fps) == (want.trace_id, want.fps)
    assert len(got.frames) == len(want.frames)
    for fg, fw in zip(got.frames, want.frames):
        assert fg.t == fw.t
        assert len(fg.objects) == len(fw.objects)
        for og, ow in zip(fg.objects, fw.objects):
            assert (og.id, og.label, og.role, og.box) == (ow.id, ow.label, ow.role, ow.box)
            if ow.points is None:
                assert og.points is None
            else:
                assert og.points.dtype == ow.points.dtype
                assert og.points.shape == ow.points.shape
                assert og.points.tobytes() == ow.points.tobytes()


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
# an objects array nested past the recursion limit after a repeated record
@example(lines_of((0, [HAND]), (1, [HAND])) + '{"t": 2, "objects": ' + "[" * 100000 + "\n")
def test_load_trace_matches_the_plain_loader(text):
    got, want = outcome(load_trace, text), outcome(oracle_load, text)
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
