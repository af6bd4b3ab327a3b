"""Scene traces, the debounced touch graph, and atomic-action extraction.

A trace is a time-ordered sequence of frames, each carrying labeled object
point clouds (plus an optional ground box).  Extraction is one walk over
the frames.  The walk holds the trace's :class:`GeometryCache`, labels and
ground, and while a frame is walked, that frame's index, roles and
confirmed contacts.  It maintains a debounced contact graph, infers grasps
(hand and object moving together long enough become a merged entity), and
emits atomic-action quintuples per hand, each built in one place that sets
its ground token, place and labels:

  * a confirmed new contact edge on the hand chain emits T;
  * a confirmed lost edge emits U;
  * sustained windows of co-motion emit Mt (or Fmt when the partner holds
    still), annotated with the most salient spatial context.

A hand's contact episodes and idle spans are the runs of its per-frame
busy flags.

Trace file format: UTF-8 JSON lines, one frame per line with exactly the
fields ``t`` (seconds) and ``objects`` (id, label, role, points[[x,y,z]..];
the ground may carry ``box`` [[min],[max]] instead of points).  Units are
meters, y up.  Each decoded record's points are checked on their own.  A
line in the layout :func:`dump_trace` writes is scanned, and a record in
it repeated verbatim from the previous frame's record at the same index is
decoded and checked once: its frames share one ObjectInstance.  A line in
any other layout is decoded whole, each of its records on its own.
"""

from __future__ import annotations

import io
import json
import os
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate

import numpy as np

from .actions import AIR, GROUND, AtomicAction, Primitive, Snippet, Subject
from .config import RunConfig, read_text, split_lines
from .geometry import Aabb, ConvexHull, RelMatrix, as_cloud, box_hull, touch
from .relations import (FOOTPRINT_MARGIN, DsrLabel, ObjectState, SsrLabel, _above,
                        _pattern_label, classify_dsr, classify_ssr, footprint_overlap,
                        pattern_matrix)

ROLES = ("hand_left", "hand_right", "object", "ground")
HAND_ROLES = {"hand_left": "left", "hand_right": "right"}


class TraceError(Exception):
    pass


class ParseError(TraceError):
    def __init__(self, lineno: int | None, message: str):
        self.lineno = lineno
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(where + message)


class SchemaError(TraceError):
    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(where + message)


class MonotonicityError(TraceError):
    pass


@dataclass(frozen=True)
class ObjectInstance:
    id: str
    label: str
    role: str
    points: np.ndarray | None = None
    box: tuple | None = None

    def cloud(self) -> np.ndarray:
        if self.points is not None:
            return self.points
        return np.array(self.box, dtype=np.float64)[_CORNER_SIDE, [0, 1, 2]]


@dataclass(frozen=True)
class Frame:
    t: float
    objects: tuple[ObjectInstance, ...]


@dataclass(frozen=True)
class SceneTrace:
    frames: tuple[Frame, ...]
    trace_id: str = "trace"
    fps: float = 30.0

    def __len__(self) -> int:
        return len(self.frames)

    def labels(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for fr in self.frames:
            for o in fr.objects:
                out.setdefault(o.id, o.label)
        return out

    def ground(self) -> ObjectInstance | None:
        for fr in self.frames:
            for o in fr.objects:
                if o.role == "ground":
                    return o
        return None


def _coords(value, what, lineno, text) -> np.ndarray:
    """``value`` as an (N, 3) array of finite floats; strings, nulls,
    booleans, mappings, ragged lists and flat triples are refused.  A
    boolean among numbers, which numpy reads as 0 or 1, is looked for when
    ``text``, the JSON ``value`` was decoded from, holds true or false."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind not in "iuf":
            raise ValueError("expected a list of [x, y, z] numbers")
        pts = as_cloud(arr)
        if ("true" in text or "false" in text) and any(
                type(v) is bool for row in value for v in row):
            raise ValueError("expected a list of [x, y, z] numbers, not booleans")
        return pts
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: {exc}", lineno) from exc


def _points(value, oid, need, lineno, text) -> np.ndarray:
    pts = _coords(value, f"object {oid!r} points", lineno, text)
    if pts.shape[0] < need:
        raise SchemaError(f"object {oid!r} has < {need} points", lineno)
    return pts


def _ground_box(raw, lineno, text) -> tuple:
    """A ground box as ((min), (max))."""
    corners = _coords(raw, "ground box", lineno, text)
    if corners.shape[0] != 2:
        raise SchemaError("ground box must be [[min x, y, z], [max x, y, z]]", lineno)
    if np.any(corners[1] <= corners[0]):
        raise SchemaError("ground box needs max > min on every axis", lineno)
    return (tuple(corners[0].tolist()), tuple(corners[1].tolist()))


_OBJECT_FIELDS = frozenset({"id", "label", "role", "points", "box"})


def _object_from_record(rec, lineno, text) -> ObjectInstance:
    """The instance of one decoded object record, its points and box
    converted and checked; ``text`` holds the JSON it was decoded from."""
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
    points, box = rec.get("points"), rec.get("box")
    if role == "ground":
        if box is None and points is None:
            raise SchemaError("ground needs box or points", lineno)
    elif points is None:
        raise SchemaError(f"object {rec['id']!r} missing points", lineno)
    if points is not None:
        points = _points(points, rec["id"], 1 if role == "ground" else 4, lineno, text)
    if box is not None:
        box = _ground_box(box, lineno, text)
    return ObjectInstance(rec["id"], rec["label"], role, points, box)


def decode_json(text: str, lineno: int = 1):
    """``json.loads`` of a text that starts on line ``lineno``, each refusal
    a ParseError.  A digit-limit or nesting fault has no position: it names
    ``lineno`` only when the text is one line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(lineno + exc.lineno - 1, f"bad JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # ValueError: int() past the digit limit
        fault = ("nested too deeply" if isinstance(exc, RecursionError) else
                 f"integer exceeds the limit of {sys.get_int_max_str_digits()} digits")
        raise ParseError(None if "\n" in text.strip() else lineno, f"bad JSON: {fault}") from exc


def dump_trace(trace: SceneTrace, target) -> None:
    """Serialize a trace to the JSON-lines format (round-trips load_trace),
    each frame as ``json.dumps`` writes it with its default separators:
    ``{"t": <t>, "objects": [<record>, ...]}``, the layout _scan_frame reads."""
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    fh = open(target, "w", encoding="utf-8") if own else target
    try:
        for fr in trace.frames:
            objs = []
            for o in fr.objects:
                rec = {"id": o.id, "label": o.label, "role": o.role}
                if o.points is not None:
                    rec["points"] = o.points.tolist()
                if o.box is not None:
                    rec["box"] = [list(o.box[0]), list(o.box[1])]
                objs.append(rec)
            fh.write(json.dumps({"t": fr.t, "objects": objs}) + "\n")
    finally:
        if own:
            fh.close()


def dumps_trace(trace: SceneTrace) -> str:
    buf = io.StringIO()
    dump_trace(trace, buf)
    return buf.getvalue()


# json.loads's own scanner, called one value at a time
_scan_value = json.decoder.JSONDecoder().scan_once


def _scan_frame(line: str, prev: list) -> tuple:
    """``t`` and the (text, value) of each object record of a stripped line
    in dump_trace's layout, as ``json.loads`` reads them.  A record that
    starts with the text of ``prev``'s (text, instance) at its index is that
    record (an object ends at its matching brace), and its value is the
    instance.  Any other line raises ValueError or StopIteration."""
    if not line.startswith('{"t": '):
        raise ValueError("not dump_trace's layout")
    t, i = _scan_value(line, 6)
    if not line.startswith(', "objects": [', i):
        raise ValueError("not dump_trace's layout")
    i += 14
    records: list = []
    if line.startswith("]}", i) and i + 2 == len(line):
        return t, records
    while True:
        k = len(records)
        if k < len(prev) and line.startswith(prev[k][0], i):
            records.append(prev[k])
            i += len(prev[k][0])
        else:
            value, end = _scan_value(line, i)
            records.append((line[i:end], value))
            i = end
        if line.startswith(", ", i):
            i += 2
        elif line.startswith("]}", i) and i + 2 == len(line):
            return t, records
        else:
            raise ValueError("not dump_trace's layout")


def load_trace(source, trace_id: str | None = None) -> SceneTrace:
    """Parse a trace from a path, text, or byte stream.

    A line in dump_trace's layout is read by :func:`_scan_frame`: an object
    record identical to the previous frame's record at the same index is
    decoded once, and the frame gets that record's instance.  Any other
    line is decoded whole by ``json.loads``, and each of its records on its
    own.  Each decoded record's points are converted to their own float
    array and checked, in the order of the line.  An error names its line
    and, for points, the first bad object on it.
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
    # (text, instance) of each object record of the previous frame
    prev: list = []
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            t, records = _scan_frame(line, prev)
            reuse = True
        except (StopIteration, ValueError, RecursionError):
            # json.loads reads the line or names its fault
            rec, reuse = decode_json(line, lineno), False
            if not isinstance(rec, dict):
                raise SchemaError("frame record must be a mapping", lineno)
            unknown = set(rec) - {"t", "objects"}
            if unknown:
                raise SchemaError(f"unknown frame field(s) {sorted(unknown)}", lineno)
            if "t" not in rec or "objects" not in rec:
                raise SchemaError("frame needs fields t and objects", lineno)
            t, records = rec["t"], rec["objects"]
        if type(t) not in (int, float) or not abs(t) <= sys.float_info.max:
            raise SchemaError("t must be a finite number", lineno)
        if not reuse:
            if not isinstance(records, list):
                raise SchemaError("objects must be a list", lineno)
            records = [(line, value) for value in records]
        objects = [value if type(value) is ObjectInstance
                   else _object_from_record(value, lineno, rec_text)
                   for rec_text, value in records]
        roles = [o.role for o in objects]
        for unique_role in ("hand_left", "hand_right", "ground"):
            if roles.count(unique_role) > 1:
                raise SchemaError(f"duplicate {unique_role} in frame", lineno)
        ids = [o.id for o in objects]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate object id in frame", lineno)
        frames.append(Frame(float(t), tuple(objects)))
        prev = [(rec_text, o) for (rec_text, _), o in zip(records, objects)] if reuse else []

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


# ---------------------------------------------------------------------------
# Geometry of a frame sequence: whole object tracks, one state per pose,
# pair results reused across rigid co-motion
# ---------------------------------------------------------------------------

_RIGID_TOL = 1e-12

# Corner k of a box [[lo], [hi]] takes x from bit 2 of k, y from bit 1, z
# from bit 0, the vertex order of box_hull.
_CORNER_SIDE = np.array([[(k >> 2) & 1, (k >> 1) & 1, k & 1] for k in range(8)])


class _Track:
    """One object's clouds over the frames it appears in, as whole arrays.

    Rows are the object's appearances, in frame order.  Each run of rows
    with one point count (a box is its 8 corners) is stacked into one
    ``(rows, N, 3)`` array, and a few vectorised passes over it give every
    row its AABB and centroid and tell whether the step from the previous
    row moved every point by the first point's shift (to ``_RIGID_TOL``).  Rows
    joined by such rigid steps share a segment, over which pair results are
    re-used; rows joined by steps that moved nothing also share a pose, and
    with it one state.  A run whose rows are all equal, as a static
    object's are, is told by one comparison: every step is rigid and moved
    nothing, and the step passes are skipped.
    """

    def __init__(self, appearances, n_frames: int):
        self.n_frames = n_frames
        self.frames = [f for f, _ in appearances]
        self.objects = [o for _, o in appearances]
        self.stacks, start = [], 0
        for k in range(1, len(appearances) + 1):
            if k == len(appearances) or _run_key(self.objects[k]) != _run_key(self.objects[k - 1]):
                self.stacks.append(_stack_run(self.objects[start:k]))
                start = k
        self.clouds = [row for s in self.stacks for row in s]
        lo, hi, rigid, moved = [], [], [], []
        for s in self.stacks:
            # min and max over each row's contiguous coordinates: a
            # middle-axis reduction costs several times more
            axes = np.ascontiguousarray(s.transpose(0, 2, 1))
            lo.append(axes.min(axis=2))
            hi.append(axes.max(axis=2))
            if (s[1:] == s[:-1]).all():
                rigid += [False] + [True] * (len(s) - 1)
                moved += [True] + [False] * (len(s) - 1)
                continue
            steps = s[1:] - s[:-1]
            shift = steps[:, :1]
            # reductions over one flat axis: a middle-axis reduction costs
            # more than the arithmetic on clouds this small
            spread = np.abs(steps - shift).reshape(len(steps), 3 * s.shape[1]).max(axis=1)
            rigid += [False] + (spread <= _RIGID_TOL).tolist()
            moved += [True] + (np.abs(shift[:, 0]).max(axis=1) > _RIGID_TOL).tolist()
        # every row's box: the states' boxes and the pair gaps read them
        self.lo, self.hi = np.concatenate(lo), np.concatenate(hi)
        self.segment = list(accumulate(not r for r in rigid))
        self.pose = list(accumulate(not r or m for r, m in zip(rigid, moved)))
        self.row_of = dict(zip(self.frames, range(len(self.frames))))
        # (pose, state) of the last state asked for
        self.last: tuple[int, ObjectState] | None = None

    # Per-row values below are computed on first use: a caller that only
    # asks for states of static objects never needs them.

    @cached_property
    def first(self) -> list[list[float]]:
        return [p for s in self.stacks for p in s[:, 0].tolist()]

    @cached_property
    def centroids(self) -> np.ndarray:
        return np.concatenate([s.mean(axis=1) for s in self.stacks])

    @cached_property
    def seen(self) -> list[int]:
        """Per frame, how many of frames 0..f the object appears in."""
        present = [0] * self.n_frames
        for f in self.frames:
            present[f] = 1
        return list(accumulate(present))

    def per_frame(self, values: np.ndarray) -> np.ndarray:
        """Row values scattered to frame positions, NaN where absent."""
        out = np.full((self.n_frames,) + values.shape[1:], np.nan)
        out[self.frames] = values
        return out


def _run_key(obj: ObjectInstance):
    return ("points", len(obj.points)) if obj.points is not None else ("box", 8)


def _stack_run(objects) -> np.ndarray:
    if objects[0].points is not None:
        return np.array([o.points for o in objects])
    boxes = np.array([o.box for o in objects], dtype=np.float64)
    return boxes[:, _CORNER_SIDE, [0, 1, 2]]


class GeometryCache:
    """Geometry of one sequence of frames, the one source of object states,
    bounding boxes, centroids and contact sets.  Frames are addressed by
    their index in the sequence; nothing carries over between sequences.

    Each object's clouds are stacked and checked for rigid steps once, as a
    :class:`_Track`; a static object's run of equal rows takes one
    comparison.  A state carries its cloud and box, rows of the track,
    and a hull built on the first read of its vertices or planes, from the
    object's ``box`` or its own cloud.  Rows whose step moved nothing share
    one state, so a static ground box is built once.  Only a pair within
    ``eps_touch`` may read hulls, and it reads one only where the boxes and
    clouds cannot decide (see ``touching`` and ``matrix``), so a cloud that
    no object comes into is never wrapped, and a wrap error surfaces at the
    first read, not when the cache is made.  Per object pair, the
    broad-phase gap of every frame is computed in one pass, and the pair's
    narrow-phase contact test and intersection matrix are re-used while
    both objects have only moved by one common shift since they were
    computed: the pair's relative pose, and with it the answer, is then the
    same.  Both are kept per unordered pair: contact is symmetric, and the
    matrix of the other order is the same matrix with its rows swapped.
    """

    def __init__(self, frames, cfg: RunConfig):
        self.cfg = cfg
        self.ids = [sorted(o.id for o in fr.objects) for fr in frames]
        appearances: dict[str, list] = {}
        for f_idx, fr in enumerate(frames):
            for o in fr.objects:
                appearances.setdefault(o.id, []).append((f_idx, o))
        self._tracks = {oid: _Track(app, len(frames)) for oid, app in appearances.items()}
        self._gaps: dict[tuple[str, str], list[float]] = {}
        # per unordered pair (ids in order): (frame computed, answer)
        self._touch: dict[tuple[str, str], tuple[int, bool]] = {}
        self._matrix: dict[tuple[str, str], tuple[int, RelMatrix]] = {}

    def state(self, oid: str, f_idx: int) -> ObjectState:
        """The object's state in frame ``f_idx``, where it must appear: one
        per pose, its hull built from its own cloud on first read."""
        tr = self._tracks[oid]
        r = tr.row_of[f_idx]
        if tr.last is None or tr.last[0] != tr.pose[r]:
            obj, cloud, geo = tr.objects[r], tr.clouds[r], self.cfg.geometry
            build = (partial(box_hull, *obj.box) if obj.points is None
                     else lambda: ObjectState.from_cloud(cloud, geo).hull)
            box = Aabb(tr.lo[r], tr.hi[r])
            tr.last = (tr.pose[r],
                       ObjectState(cloud, ConvexHull.deferred(cloud, box, geo, build), box))
        return tr.last[1]

    def aabb(self, oid: str, f_idx: int) -> Aabb:
        tr = self._tracks[oid]
        r = tr.row_of[f_idx]
        return Aabb(tr.lo[r], tr.hi[r])

    def seen(self, oid: str, f_idx: int) -> int:
        """How many of frames 0..f_idx the object appears in."""
        return self._tracks[oid].seen[f_idx] if f_idx >= 0 else 0

    def track(self, oid: str, f_idx: int, length: int) -> np.ndarray:
        """Centroids of the object's last ``length`` appearances up to frame
        ``f_idx``, oldest first."""
        tr = self._tracks[oid]
        end = tr.seen[f_idx]
        return tr.centroids[max(0, end - length):end]

    def gap(self, a: str, b: str, f_idx: int) -> float:
        """Separation of the two objects' bounding boxes in frame ``f_idx``
        (inf where either is absent), computed for all frames at once."""
        key = (a, b) if a < b else (b, a)
        gaps = self._gaps.get(key)
        if gaps is None:
            ta, tb = self._tracks[key[0]], self._tracks[key[1]]
            lo_a, hi_a = ta.per_frame(ta.lo), ta.per_frame(ta.hi)
            lo_b, hi_b = tb.per_frame(tb.lo), tb.per_frame(tb.hi)
            sep = np.maximum(np.maximum(lo_a - hi_b, lo_b - hi_a), 0.0)
            gap = np.sqrt(np.einsum("ij,ij->i", sep, sep))
            gaps = self._gaps[key] = np.where(np.isnan(gap), np.inf, gap).tolist()
        return gaps[f_idx]

    def _pose_kept(self, a: str, b: str, then: int, now: int) -> bool:
        """True when from frame ``then`` to frame ``now`` objects a and b
        moved only rigidly, and by one common shift."""
        if then == now:
            return True
        ta, tb = self._tracks[a], self._tracks[b]
        a0, a1, b0, b1 = ta.row_of[then], ta.row_of[now], tb.row_of[then], tb.row_of[now]
        if ta.segment[a0] != ta.segment[a1] or tb.segment[b0] != tb.segment[b1]:
            return False
        return all(abs((xa1 - xa0) - (xb1 - xb0)) <= _RIGID_TOL for xa0, xa1, xb0, xb1
                   in zip(ta.first[a0], ta.first[a1], tb.first[b0], tb.first[b1]))

    def contacts(self, f_idx: int) -> set[frozenset]:
        """Unordered id pairs of frame ``f_idx`` whose hulls are in contact."""
        ids = self.ids[f_idx]
        eps = self.cfg.geometry.eps_touch
        out: set[frozenset] = set()
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if self.gap(a, b, f_idx) <= eps and self.touching(a, b, f_idx):
                    out.add(frozenset((a, b)))
        return out

    def touching(self, a: str, b: str, f_idx: int) -> bool:
        """``geometry.touch`` of the two objects in frame ``f_idx``.  Boxes
        further apart than ``eps_touch`` answer False in ``touch`` before
        either hull is read; nearer ones build a hull only where a point
        lies deep in the other's box or the clouds' distance is within
        GJK's error of ``eps_touch``."""
        key = (a, b) if a < b else (b, a)
        last = self._touch.get(key)
        if last is not None and self._pose_kept(*key, last[0], f_idx):
            return last[1]
        sa, sb = self.state(key[0], f_idx), self.state(key[1], f_idx)
        hit = touch(sa.cloud, sa.hull, sb.cloud, sb.hull, self.cfg.geometry.eps_touch)
        self._touch[key] = (f_idx, hit)
        return hit

    def matrix(self, a: str, b: str, f_idx: int) -> RelMatrix:
        """``relations.pattern_matrix`` of a against b in frame ``f_idx``.
        Its entries are computed on first read and kept with it, so a
        pattern label that reads only the interior entries, and finds none
        of b's points deep in a's box or a's in b's, builds no hull."""
        key = (a, b) if a < b else (b, a)
        last = self._matrix.get(key)
        if last is not None and self._pose_kept(*key, last[0], f_idx):
            m = last[1]
        else:
            m = pattern_matrix(self.state(key[0], f_idx), self.state(key[1], f_idx),
                               self.cfg.geometry)
            self._matrix[key] = (f_idx, m)
        return m if key[0] == a else m.swapped()

    def pair(self, a: str, b: str, f_idx: int) -> "PairMemo":
        """The memos of a against b in frame ``f_idx``, as ``classify_ssr``'s
        ``memo``."""
        return PairMemo(self, a, b, f_idx)

    def pattern(self, a: str, b: str, f_idx: int) -> SsrLabel | None:
        """The intersection-pattern label of ``a`` against ``b`` in frame
        ``f_idx`` (see ``relations._pattern_label``)."""
        return _pattern_label(self.state(a, f_idx), self.state(b, f_idx),
                              self.matrix(a, b, f_idx), self.cfg.relation, self.cfg.geometry)


class PairMemo:
    """An ordered object pair of one :class:`GeometryCache` frame, answering
    ``classify_ssr``'s questions from the cache's pair memos."""

    __slots__ = ("cache", "a", "b", "f_idx")

    def __init__(self, cache: GeometryCache, a: str, b: str, f_idx: int):
        self.cache, self.a, self.b, self.f_idx = cache, a, b, f_idx

    def matrix(self) -> RelMatrix:
        return self.cache.matrix(self.a, self.b, self.f_idx)

    def touching(self) -> bool:
        return self.cache.touching(self.a, self.b, self.f_idx)


class _Debouncer:
    """Hysteresis on raw contact: an edge flips only after `debounce`
    consecutive frames of agreement."""

    def __init__(self, debounce: int):
        self.debounce = debounce
        self.counts: dict[frozenset, int] = {}
        self.confirmed: set[frozenset] = set()

    def update(self, raw: set[frozenset]):
        added, removed = [], []
        for pair in raw:
            c = self.counts.get(pair, 0)
            self.counts[pair] = c + 1 if c >= 0 else 1
        for pair in list(self.counts):
            if pair not in raw:
                c = self.counts[pair]
                self.counts[pair] = c - 1 if c <= 0 else -1
        for pair, c in list(self.counts.items()):
            if c >= self.debounce and pair not in self.confirmed:
                self.confirmed.add(pair)
                added.append(pair)
            elif c <= -self.debounce and pair in self.confirmed:
                self.confirmed.discard(pair)
                removed.append(pair)
            elif c <= -self.debounce and pair not in self.confirmed:
                del self.counts[pair]
        return added, removed


@dataclass
class ExtractionResult:
    actions: dict[str, list[AtomicAction]]
    hand_busy: dict[str, np.ndarray]
    n_frames: int
    labels: dict[str, str]

    def for_hand(self, hand: str) -> list[AtomicAction]:
        return self.actions.get(hand, [])


_NON_OBJECT_ROLES = ("hand_left", "hand_right", "ground")


class _Hand:
    """One hand's walk state: its id in the latest frame it appeared in, the
    object it holds, the frames since its last action or context change, and
    what it has emitted so far."""

    def __init__(self, side: str, hid: str, f_idx: int):
        self.side = side
        self.id = hid
        self.grasped: str | None = None
        self.quiet_frames = 0
        self.context = None
        self.actions: list[AtomicAction] = []
        self.busy = [False] * f_idx

    def subject(self) -> Subject:
        return Subject(self.side, self.grasped or None)


class _Walk:
    """One pass over a trace, emitting each hand's atomic actions.

    The walk holds the trace's geometry, labels and ground, and the confirmed
    contacts of every frame walked so far.  While a frame is walked it also
    holds that frame's index, roles and confirmed contacts, which every
    helper below reads.
    """

    def __init__(self, trace: SceneTrace, cfg: RunConfig):
        self.cfg = cfg
        self.window = cfg.relation.window
        self.frames = trace.frames
        self.cache = GeometryCache(trace.frames, cfg)
        self.labels = trace.labels()
        self.has_ground = trace.ground() is not None
        self.history: list[set[frozenset]] = []
        self.f_idx = 0
        self.roles: dict[str, str] = {}
        self.confirmed: set[frozenset] = set()

    def run(self) -> ExtractionResult:
        deb = _Debouncer(self.cfg.event.debounce)
        hands: dict[str, _Hand] = {}
        contact_age: dict[frozenset, int] = {}
        for f_idx, frame in enumerate(self.frames):
            self.f_idx = f_idx
            self.roles = {o.id: o.role for o in frame.objects}
            for o in frame.objects:
                side = HAND_ROLES.get(o.role)
                if side in hands:
                    hands[side].id = o.id
                elif side is not None:
                    hands[side] = _Hand(side, o.id, f_idx)

            added, removed = deb.update(self.cache.contacts(f_idx))
            self.confirmed = set(deb.confirmed)
            self.history.append(self.confirmed)
            contact_age = {pair: contact_age.get(pair, 0) + 1 for pair in self.confirmed}

            for hand in hands.values():
                present = hand.id in self.roles
                if present:
                    self._step(hand, added, removed, contact_age)
                hand.busy.append(present and any(hand.id in p for p in self.confirmed))

        return ExtractionResult(
            actions={s: h.actions for s, h in hands.items()},
            hand_busy={s: np.array(h.busy, dtype=bool) for s, h in hands.items()},
            n_frames=len(self.frames),
            labels=self.labels,
        )

    def _step(self, hand: _Hand, added, removed, contact_age) -> None:
        """One frame of one hand that appears in it."""
        events = self._edge_events(hand, added, removed)
        if events:
            for (other, kind), via in events:
                if other in self.roles:
                    hand.actions.append(self._contact(hand, kind, other, via))
            hand.quiet_frames = 0
            hand.context = None

        self._update_grasp(hand, contact_age)

        ctx = self._salient_context(hand)
        if ctx != hand.context:
            hand.context = ctx
            hand.quiet_frames = 0
        hand.quiet_frames += 1
        if hand.quiet_frames >= self.window and self.f_idx >= self.window:
            aa = self._motion(hand)
            if aa is not None:
                hand.actions.append(aa)
                hand.quiet_frames = 0

    def _edge_events(self, hand: _Hand, added, removed):
        """((other_id, kind), via) events on the hand chain, ordered by id.

        ``via`` records whether the edge met the hand itself or the carried
        object; simultaneous duplicates prefer the carried edge.
        """
        events: dict[tuple[str, str], str] = {}
        hid, g = hand.id, hand.grasped
        for kind, pairs in (("T", added), ("U", removed)):
            for pair in pairs:
                if hid in pair:
                    events.setdefault((_other(pair, hid), kind), "hand")
                elif g is not None and g in pair:
                    events[(_other(pair, g), kind)] = "carried"
        return sorted(events.items())

    def _contact(self, hand: _Hand, kind: str, other: str, via: str) -> AtomicAction:
        """The T or U action of a confirmed edge change on the hand chain."""
        if kind == "U" and via == "hand" and hand.grasped == other:
            subject = Subject(hand.side, None)      # letting go of the tool itself
            hand.grasped = None
            actor = hand.id
        else:
            subject = hand.subject()
            actor = hand.grasped if (via == "carried" and hand.grasped in self.roles) else hand.id
        prim = Primitive.T if kind == "T" else Primitive.U
        rel = self._ssr(actor, other, touching=(kind == "T"))
        return self._action(subject, prim, other, rel, (self.f_idx, self.f_idx))

    def _update_grasp(self, hand: _Hand, contact_age) -> None:
        hid = hand.id
        if hand.grasped is not None:
            if frozenset((hid, hand.grasped)) not in self.confirmed:
                hand.grasped = None
            return
        if self.f_idx < self.window:
            return
        for pair in self.confirmed:
            if hid not in pair:
                continue
            other = _other(pair, hid)
            if (self.roles.get(other) in _NON_OBJECT_ROLES
                    or contact_age.get(pair, 0) < self.cfg.event.grasp_min_frames):
                continue
            ta, tb = self._track(hid), self._track(other)
            if len(ta) != len(tb) or len(ta) < 2:
                continue
            if classify_dsr(ta, tb, True, self.cfg.relation) is DsrLabel.Mt:
                hand.grasped = other
                return

    def _salient_context(self, hand: _Hand):
        """(partners, (object_id | None, relation)): the moving entity's
        contacts and the spatial context most relevant to it.

        Containment is read off the intersection pattern alone: within
        contact range, ``classify_ssr`` returns it before any label that
        depends on contact.
        """
        cache, f_idx, roles = self.cache, self.f_idx, self.roles
        rep = hand.grasped if hand.grasped in roles else hand.id
        partners = frozenset(self._partners(rep))
        rep_box = cache.aabb(rep, f_idx)
        hover = None
        for oid in cache.ids[f_idx]:
            if oid in (rep, hand.id, hand.grasped) or roles.get(oid) in _NON_OBJECT_ROLES:
                continue
            if cache.gap(rep, oid, f_idx) <= self.cfg.geometry.eps_touch:
                rel = cache.pattern(rep, oid, f_idx)
                if rel in (SsrLabel.In, SsrLabel.Wi, SsrLabel.Pwi, SsrLabel.Cr):
                    return (partners, (oid, rel))
            other_box = cache.aabb(oid, f_idx)
            if (hover is None and rep_box.min_corner[1] > other_box.max_corner[1]
                    and footprint_overlap(rep_box, other_box, FOOTPRINT_MARGIN)):
                hover = (oid, SsrLabel.Ab)
        if hover is None:
            hover = (None, SsrLabel.Ab if self.has_ground else SsrLabel.NoRelation)
        return (partners, hover)

    def _motion(self, hand: _Hand) -> AtomicAction | None:
        """The Mt or Fmt action of the last ``window`` frames, if any."""
        hid, grasped, roles, window = hand.id, hand.grasped, self.roles, self.window
        rep = grasped if grasped in roles else hid
        span = (self.f_idx - window + 1, self.f_idx)
        # the hand itself is among the hands left out
        partners = [p for p in self._partners(rep) if roles.get(p) not in HAND_ROLES]
        for other in partners:
            if self.cache.seen(other, self.f_idx) < window + 1:
                continue
            pair = frozenset((rep, other))
            flags = [pair in confirmed for confirmed in self.history[-(window + 1):]]
            dsr = classify_dsr(self._track(rep), self._track(other), flags, self.cfg.relation)
            if dsr in (DsrLabel.Fmt, DsrLabel.Mt):
                prim = Primitive.Fmt if dsr is DsrLabel.Fmt else Primitive.Mt
                rel = self._ssr(rep, other, touching=True)
                return self._action(hand.subject(), prim, other, rel, span)
        if partners:
            # while an external contact exists, motion reads off that contact;
            # falling back to carried-pair co-motion would misreport it
            return None
        if (grasped and grasped in roles and self.cache.seen(grasped, self.f_idx) >= window + 1
                and classify_dsr(self._track(hid), self._track(grasped), True,
                                 self.cfg.relation) is DsrLabel.Mt):
            _, (ctx_obj, ctx_rel) = hand.context
            return self._action(hand.subject(), Primitive.Mt, ctx_obj, ctx_rel, span)
        return None

    def _partners(self, oid: str) -> list[str]:
        """The ids ``oid`` is in confirmed contact with, in order."""
        return sorted(_other(p, oid) for p in self.confirmed if oid in p)

    def _track(self, oid: str) -> np.ndarray:
        return self.cache.track(oid, self.f_idx, self.window + 1)

    def _ssr(self, a: str, b: str, touching: bool) -> SsrLabel:
        cache, f_idx = self.cache, self.f_idx
        return classify_ssr(cache.state(a, f_idx), cache.state(b, f_idx),
                            self.cfg.relation, self.cfg.geometry, touching=touching,
                            memo=cache.pair(a, b, f_idx))

    def _action(self, subject: Subject, prim: Primitive, other: str | None, rel: SsrLabel,
                span: tuple[int, int]) -> AtomicAction:
        """The atomic action of ``subject`` on ``other`` (an object id, or
        None for motion through the air), with the ground's token, the
        place from :meth:`_place_of` and the labels of object, carried
        object and place."""
        labels = self.labels
        if other is None:
            obj, place, obj_label = None, AIR, None
        else:
            obj = GROUND if self.roles.get(other) == "ground" else other
            place, obj_label = self._place_of(other), labels.get(other, other)
        return AtomicAction(subject, prim, obj, rel, place, span,
                            object_label=obj_label,
                            carried_label=labels.get(subject.carried) if subject.carried else None,
                            place_label=_place_label(place, labels))

    def _place_of(self, oid: str, seen: set | None = None) -> str:
        """What supports ``oid``: the ground, an object it rests on, or
        that of a partner it touches, followed through at most three
        partners (``seen`` holds the objects on the way); else the air."""
        roles = self.roles
        if roles.get(oid) == "ground":
            return GROUND
        seen = seen or {oid}
        partners = [p for p in self._partners(oid)
                    if roles.get(p) not in HAND_ROLES and p not in seen]
        aabb, eps = self.cache.aabb, self.cfg.geometry.eps_touch
        supporters = [p for p in partners if p in roles and oid in roles
                      and _above(aabb(oid, self.f_idx), aabb(p, self.f_idx), eps)]
        if supporters:
            return next((p for p in supporters if roles[p] != "ground"), GROUND)
        if len(seen) < 4:
            for p in partners:
                got = self._place_of(p, seen | {p})
                if got != AIR:
                    return got
        return AIR


def _other(pair: frozenset, oid: str) -> str:
    """The id a contact pair holds besides ``oid``."""
    (other,) = pair - {oid}
    return other


def _place_label(place: str, labels: dict[str, str]) -> str | None:
    """The label of a place that is an object; the ground and the air have none."""
    return None if place in (GROUND, AIR) else labels.get(place, place)


def extract_atomic_actions(trace: SceneTrace, cfg: RunConfig | None = None) -> ExtractionResult:
    return _Walk(trace, cfg or RunConfig()).run()


def _runs(flags, value: bool):
    """(first, last) frame of each maximal run whose flag is ``value``."""
    start = None
    for f, flag in enumerate(flags):
        if flag == value:
            if start is None:
                start = f
        elif start is not None:
            yield start, f - 1
            start = None
    if start is not None:
        yield start, len(flags) - 1


def segment_actions(result: ExtractionResult, hand: str) -> list[Snippet]:
    """Contact episodes of one hand: from first confirmed touch to free again."""
    flags = result.hand_busy.get(hand)
    if flags is None:
        return []
    acts = result.for_hand(hand)
    out = []
    for s, last in _runs(flags, True):
        e = min(last + 1, len(flags) - 1)    # an episode ends on the frame the hand is free
        out.append(Snippet(hand, (s, e), tuple(a for a in acts if s <= a.frame_span[0] <= e)))
    return out


def idle_spans(result: ExtractionResult, hand: str) -> list[tuple[int, int]]:
    """Maximal frame ranges where the hand touches nothing."""
    flags = result.hand_busy.get(hand)
    if flags is None:
        return [(0, result.n_frames - 1)] if result.n_frames else []
    return list(_runs(flags, False))
