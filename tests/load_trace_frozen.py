"""The trace loader as it was when ``json.loads`` decoded every line whole
and a ground box equal (as a list) to the previous one was not checked
again.  Frozen as the oracle of ``test_load_trace_identity.py``, which
requires the same trace, or the same error, from ``load_trace``.

Only the data types, the errors and the text readers are taken from the
package: they did not change.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import accumulate, chain

import numpy as np

from manipsem.config import read_text, split_lines
from manipsem.events import (ROLES, Frame, MonotonicityError, ObjectInstance, ParseError,
                             SceneTrace, SchemaError, TraceError)
from manipsem.geometry import as_cloud


def _coords(value, what, lineno) -> np.ndarray:
    """``value`` as an (N, 3) array of finite floats; strings, nulls,
    mappings and ragged lists are refused."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind not in "iuf":
            raise ValueError("expected a list of [x, y, z] numbers")
        return as_cloud(arr)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: {exc}", lineno) from exc


def _points(value, oid, need, lineno) -> np.ndarray:
    pts = _coords(value, f"object {oid!r} points", lineno)
    if pts.shape[0] < need:
        raise SchemaError(f"object {oid!r} has < {need} points", lineno)
    return pts


def _ground_box(raw, lineno, last: list, eager: bool) -> tuple:
    """A ground box as ((min), (max)); a list equal to the previous box's
    (``last`` holds [list, box] and is updated here) is not checked again."""
    if not eager and raw == last[0]:
        return last[1]
    corners = _coords(raw, "ground box", lineno)
    if corners.shape[0] != 2:
        raise SchemaError("ground box must be [[min x, y, z], [max x, y, z]]", lineno)
    if np.any(corners[1] <= corners[0]):
        raise SchemaError("ground box needs max > min on every axis", lineno)
    box = (tuple(corners[0].tolist()), tuple(corners[1].tolist()))
    last[:] = raw, box
    return box


_OBJECT_FIELDS = frozenset({"id", "label", "role", "points", "box"})


def _object_from_record(rec, lineno, eager: bool, pending: list, last_box: list):
    """(id, label, role, points, box) of one object record.  A list of
    [x, y, z] lists is left for :func:`_line_points`: ``pending`` gets
    (id, list, points needed), and ``points`` is its index there.
    ``eager`` checks every point list here."""
    if not isinstance(rec, dict):
        raise SchemaError("object record must be a mapping", lineno)
    unknown = rec.keys() - _OBJECT_FIELDS
    if unknown:
        raise SchemaError(f"unknown object field(s) {sorted(unknown)}", lineno)
    for key in ("id", "label", "role"):
        if key not in rec:
            raise SchemaError(f"object missing field {key!r}", lineno)
    for key in ("id", "label"):
        if not isinstance(rec[key], str):
            raise SchemaError(f"object {key} must be a string", lineno)
    role = rec["role"]
    if role not in ROLES:
        raise SchemaError(f"unknown role {role!r}", lineno)
    points = rec.get("points")
    box = rec.get("box")
    if role == "ground":
        if box is None and points is None:
            raise SchemaError("ground needs box or points", lineno)
    elif points is None:
        raise SchemaError(f"object {rec['id']!r} missing points", lineno)
    if points is not None:
        need = 1 if role == "ground" else 4
        if (eager or type(points) is not list or len(points) < need
                or set(map(type, points)) != {list} or set(map(len, points)) != {3}):
            # checked alone; a ground's one [x, y, z] is valid only here
            points = _points(points, rec["id"], need, lineno)
        else:
            pending.append((rec["id"], points, need))
            points = len(pending) - 1
    if box is not None:
        box = _ground_box(box, lineno, last_box, eager)
    return rec["id"], rec["label"], role, points, box


def _check_each(pending, lineno) -> list[np.ndarray]:
    return [_points(raw, oid, need, lineno) for oid, raw, need in pending]


def _line_points(pending, lineno) -> list[np.ndarray]:
    """The pending point lists of one line as row views of one ``(M, 3)``
    float array, converted and checked once.  When that check fails, each
    list is checked alone, in order, so the first bad object names itself."""
    try:
        arr = np.array(list(chain.from_iterable(chain.from_iterable(
            raw for _, raw, _ in pending))))
        ok = arr.dtype.kind in "iuf" and arr.ndim == 1 and bool(np.isfinite(arr).all())
    except (TypeError, ValueError):
        ok = False
    if not ok:
        return _check_each(pending, lineno)
    rows = arr.astype(np.float64, copy=False).reshape(-1, 3)
    ends = accumulate(len(raw) for _, raw, _ in pending)
    return [rows[end - len(raw):end] for (_, raw, _), end in zip(pending, ends)]


def frozen_load_trace(source, trace_id: str | None = None) -> SceneTrace:
    """Parse a trace from a path, text, or byte stream.

    The point lists of each line are converted to one float array and
    checked once; every object's points are row views of it.  An error
    names its line and, for points, the first bad object on it.
    """
    try:
        text = read_text(source)
    except OSError as exc:
        raise ParseError(None, f"cannot read {source}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(exc.object.count(b"\n", 0, exc.start) + 1,
                         f"not UTF-8: {exc.reason}") from exc
    name = trace_id or ("trace" if hasattr(source, "read")
                        else os.path.splitext(os.path.basename(str(source)))[0])

    frames: list[Frame] = []
    last_box: list = [None, None]
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"bad JSON: {exc.msg}") from exc
        if not isinstance(rec, dict):
            raise SchemaError("frame record must be a mapping", lineno)
        unknown = set(rec) - {"t", "objects"}
        if unknown:
            raise SchemaError(f"unknown frame field(s) {sorted(unknown)}", lineno)
        if "t" not in rec or "objects" not in rec:
            raise SchemaError("frame needs fields t and objects", lineno)
        t = rec["t"]
        if type(t) not in (int, float) or not abs(t) <= sys.float_info.max:
            raise SchemaError("t must be a finite number", lineno)
        if not isinstance(rec["objects"], list):
            raise SchemaError("objects must be a list", lineno)
        # one array would read a JSON boolean as 0 or 1, where an
        # all-boolean point list alone is refused
        eager = "true" in line or "false" in line
        pending: list = []
        try:
            objects = [_object_from_record(o, lineno, eager, pending, last_box)
                       for o in rec["objects"]]
        except TraceError:
            # a bad point list on an earlier object is the error to report
            _check_each(pending, lineno)
            raise
        points = _line_points(pending, lineno)
        roles = [role for _, _, role, _, _ in objects]
        for unique_role in ("hand_left", "hand_right", "ground"):
            if roles.count(unique_role) > 1:
                raise SchemaError(f"duplicate {unique_role} in frame", lineno)
        ids = [oid for oid, _, _, _, _ in objects]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate object id in frame", lineno)
        frames.append(Frame(float(t), tuple(
            ObjectInstance(oid, label, role, points[p] if type(p) is int else p, box)
            for oid, label, role, p, box in objects)))

    identity: dict[str, tuple[str, str]] = {}
    for fr in frames:
        for o in fr.objects:
            known = identity.setdefault(o.id, (o.label, o.role))
            if known != (o.label, o.role):
                raise SchemaError(f"object {o.id!r} re-binds label/role across frames")
    times = [fr.t for fr in frames]
    for a, b in zip(times, times[1:]):
        if b <= a:
            raise MonotonicityError(f"timestamps not strictly increasing at t={b}")
    fps = 30.0
    if len(times) > 1:
        dts = np.diff(times)
        fps = float(1.0 / np.median(dts))
    return SceneTrace(tuple(frames), name, fps)
