"""Trace boundary: malformed input is refused by ``load_trace`` with a
``TraceError`` (exit code 3 from the CLI), never a raw exception."""

import io
import json
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from manipsem import bench, cli
from manipsem.config import RunConfig
from manipsem.events import ParseError, TraceError, dumps_trace, load_trace
from manipsem.geometry import as_cloud
from manipsem.pipeline import analyze_trace, describe_document
from manipsem.synth import SCENARIOS, ScenarioSpec, generate_synthetic_trace, make_corpus
from conftest import box_cloud
from helpers import assert_same_trace, load_outcome, oracle_load

NAN, INF = float("nan"), float("inf")


def valid_frames(n=2):
    cup = box_cloud((0, 0, 0), (0.08, 0.1, 0.08), per_edge=2).tolist()
    hand = box_cloud((0, 0.1, 0), (0.08, 0.18, 0.08), per_edge=2).tolist()
    return [{"t": k / 30.0, "objects": [
        {"id": "table", "label": "table", "role": "ground",
         "box": [[-1, -0.1, -1], [1, 0.0, 1]]},
        {"id": "cup", "label": "cup", "role": "object", "points": cup},
        {"id": "hand", "label": "hand", "role": "hand_left", "points": hand},
    ]} for k in range(n)]


def text_of(frames):
    return "\n".join(json.dumps(fr) for fr in frames) + "\n"


def with_frame(key, value):
    frames = valid_frames(1)
    frames[0][key] = value
    return frames


def with_object(index, key, value):
    frames = valid_frames(1)
    frames[0]["objects"][index][key] = value
    return frames


def with_coordinate(value):
    frames = valid_frames(1)
    frames[0]["objects"][1]["points"][0][0] = value
    return frames


MALFORMED = {
    "objects_not_list": with_frame("objects", 5),
    "t_bool": with_frame("t", True),
    "t_huge_int": with_frame("t", 10 ** 400),
    "box_scalar": with_object(0, "box", 3),
    "box_one_corner": with_object(0, "box", [[-1, -0.1, -1]]),
    "box_non_numeric": with_object(0, "box", [["a", "b", "c"], [1, 0, 1]]),
    "box_nan": with_object(0, "box", [[NAN, -0.1, -1], [1, 0, 1]]),
    "box_inf": with_object(0, "box", [[-1, -0.1, -1], [INF, 0, 1]]),
    "box_flat": with_object(0, "box", [[-1, 0, -1], [1, 0, 1]]),
    "ground_no_points": with_object(0, "points", []),
    "points_mapping": with_object(1, "points", {"x": 1}),
    "points_strings": with_object(1, "points", [["0", "0", "0"]] * 4),
    "points_nan": with_coordinate(NAN),
    "points_inf": with_coordinate(INF),
    "points_bool_among_numbers": with_coordinate(True),
    "ground_points_flat_triple": with_object(0, "points", [1, 2, 3]),
    "id_not_string": with_object(1, "id", 7),
    "label_not_string": with_object(1, "label", ["cup"]),
}


def test_valid_trace_loads():
    assert len(load_trace(io.StringIO(text_of(valid_frames())))) == 2


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_trace_exits_3(case, tmp_path, capsys):
    path = tmp_path / f"{case}.jsonl"
    path.write_text(text_of(MALFORMED[case]), encoding="utf-8")
    assert cli.main(["relations", str(path)]) == 3
    assert "trace schema error" in capsys.readouterr().err


def test_as_cloud_rejects_nonfinite():
    for value in (NAN, INF, -INF):
        with pytest.raises(ValueError, match="finite"):
            as_cloud([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, value)])


def test_as_cloud_runs_only_in_the_loader(monkeypatch, lib, templates):
    """Each cloud is checked once, by ``load_trace``: a load, analyze and
    describe round of the 14 clean scenarios checks the points or ground
    box of each decoded object record once (1281 records: 1267 point lists
    and 14 boxes; a record repeated verbatim is not decoded again), and
    geometry, relations and the relation bench, which take the arrays as
    given, check none."""
    texts = [dumps_trace(generate_synthetic_trace(ScenarioSpec(name, seed=1), lib).trace)
             for name in SCENARIOS]
    corpus = make_corpus(90, 1)
    calls = []
    for name, module in list(sys.modules.items()):
        check = getattr(module, "as_cloud", None) if name.startswith("manipsem") else None
        if check is not None:
            monkeypatch.setattr(module, "as_cloud",
                                lambda pts, check=check: calls.append(1) or check(pts))
    traces = [load_trace(io.StringIO(text)) for text in texts]
    decoded = {id(o) for trace in traces for fr in trace.frames for o in fr.objects}
    assert len(calls) == len(decoded) == 1281
    for trace in traces:
        describe_document(analyze_trace(trace, RunConfig(), lib, templates))
    for trace, rows in corpus:
        bench.evaluate_trace(trace, rows)
    assert len(calls) == 1281


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.jsonl"
    path.write_bytes(b"\xff\xfe" + text_of(valid_frames()).encode("utf-16-le"))
    assert cli.main(["relations", str(path)]) == 2
    assert "line 1: not UTF-8" in capsys.readouterr().err


def test_non_utf8_byte_stream_is_parse_error():
    data = text_of(valid_frames()).encode("utf-8") + b"\xff\xfe\n"
    with pytest.raises(ParseError, match="line 3: not UTF-8"):
        load_trace(io.BytesIO(data))


def raw_text_with_label(label, n=3):
    """Frames whose cup label is ``label``, written with its characters raw."""
    frames = valid_frames(n)
    for fr in frames:
        fr["objects"][1]["label"] = label
    return [json.dumps(fr, ensure_ascii=False) for fr in frames]


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
def test_raw_line_break_character_in_label_loads(char):
    lines = raw_text_with_label(f"cup{char}lid")
    assert char in lines[0]
    trace = load_trace(io.StringIO("\r\n".join(lines) + "\r\n"))
    assert [fr.objects[1].label for fr in trace.frames] == [f"cup{char}lid"] * 3


def test_line_number_after_raw_line_break_character():
    lines = raw_text_with_label("cup\u2028lid")
    lines[2] = lines[2][:-1]
    text = "\n".join(lines) + "\n"
    with pytest.raises(ParseError, match="line 3: bad JSON"):
        load_trace(io.StringIO(text))
    # the UTF-8 error path counts the same lines
    data = text.encode("utf-8").replace(lines[2].encode("utf-8"), b"\xff")
    with pytest.raises(ParseError, match="line 3: not UTF-8"):
        load_trace(io.BytesIO(data))


def test_raw_control_character_is_refused_on_its_line():
    lines = raw_text_with_label("cup")
    lines[1] = lines[1].replace('"cup"', '"c\x0bup"')
    with pytest.raises(ParseError, match="line 2: bad JSON: Invalid control character"):
        load_trace(io.StringIO("\n".join(lines)))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12,
)


@st.composite
def mutated_trace(draw, n_frames=2, mutations=1):
    """A valid trace with fields replaced, deleted or added, at the frame,
    object or coordinate level."""
    frames = valid_frames(n_frames)
    for k in draw(st.lists(st.integers(0, n_frames - 1), min_size=mutations,
                           max_size=mutations, unique=True)):
        mutate(draw, frames[k])
    return text_of(frames)


def mutate(draw, frame):
    level = draw(st.sampled_from(("frame", "object", "coordinate")))
    if level == "frame":
        target, keys = frame, ["t", "objects", "extra"]
    else:
        target = draw(st.sampled_from(frame["objects"]))
        keys = ["id", "label", "role", "points", "box", "extra"]
        if level == "coordinate":
            rows = target.get("points") or target["box"]
            target, keys = draw(st.sampled_from(rows)), [0, 1, 2]
    key = draw(st.sampled_from(keys))
    if isinstance(target, dict) and key in target and draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(json_values)


@settings(max_examples=300, deadline=None)
@given(mutated_trace())
def test_field_mutations_load_or_raise_trace_error(text):
    try:
        load_trace(io.StringIO(text))
    except TraceError:
        pass


def boolean_frames(kind):
    """A frame whose cup points, or whose ground box, are JSON booleans
    between frames where they are numbers."""
    frames = valid_frames(3)
    for fr in frames:
        fr["objects"][0]["box"] = [[0, 0, 0], [1, 1, 1]]
    if kind == "points":
        frames[1]["objects"][1]["points"] = [[True, False, True]] * 9
    else:
        frames[1]["objects"][0]["box"] = [[False, False, False], [True, True, True]]
    return text_of(frames)


@settings(max_examples=300, deadline=None)
@given(mutated_trace(n_frames=4, mutations=3))
@example(boolean_frames("points"))
@example(boolean_frames("box"))
def test_stacked_points_match_per_object_checks(text):
    """The loader's trace, or its first error, is that of the plain loader
    (``helpers.oracle_load``), which checks each object's points on their
    own, in order: a points error names the first bad object on its line,
    and a JSON boolean is refused, not read as 0 or 1."""
    got, want = load_outcome(load_trace, text), load_outcome(oracle_load, text)
    if not isinstance(want, Exception):
        assert not isinstance(got, Exception), got
        assert_same_trace(got, want)
        return
    assert type(got) is type(want), got
    assert getattr(got, "lineno", None) == getattr(want, "lineno", None), got
    bad_object, points_error, _ = str(want).partition(" points: ")
    if points_error:
        assert str(got).startswith(bad_object + " "), (got, want)
