"""Trace boundary: malformed input is refused by ``load_trace`` with a
``TraceError`` (exit code 3 from the CLI), never a raw exception."""

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from manipsem import cli
from manipsem.events import ParseError, TraceError, load_trace
from conftest import box_cloud

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


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.jsonl"
    path.write_bytes(b"\xff\xfe" + text_of(valid_frames()).encode("utf-16-le"))
    assert cli.main(["relations", str(path)]) == 2
    assert "line 1: not UTF-8" in capsys.readouterr().err


def test_non_utf8_byte_stream_is_parse_error():
    data = text_of(valid_frames()).encode("utf-8") + b"\xff\xfe\n"
    with pytest.raises(ParseError, match="line 3: not UTF-8"):
        load_trace(io.BytesIO(data))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12,
)


@st.composite
def mutated_trace(draw):
    """A valid trace with one field replaced, deleted or added, at the frame,
    object or coordinate level."""
    frames = valid_frames()
    frame = frames[draw(st.integers(0, len(frames) - 1))]
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
    return text_of(frames)


@settings(max_examples=300, deadline=None)
@given(mutated_trace())
def test_field_mutations_load_or_raise_trace_error(text):
    try:
        load_trace(io.StringIO(text))
    except TraceError:
        pass
