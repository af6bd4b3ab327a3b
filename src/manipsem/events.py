"""Scene traces, the debounced touch graph, and atomic-action extraction.

A trace is a time-ordered sequence of frames, each carrying labeled object
point clouds (plus an optional ground box).  Extraction walks the frames,
maintains a debounced contact graph, infers grasps (hand and object moving
together long enough become a merged entity), and emits atomic-action
quintuples per hand:

  * a confirmed new contact edge on the hand chain emits T;
  * a confirmed lost edge emits U;
  * sustained windows of co-motion emit Mt (or Fmt when the partner holds
    still), annotated with the most salient spatial context.

Trace file format: UTF-8 JSON lines, one frame per line with exactly the
fields ``t`` (seconds) and ``objects`` (id, label, role, points[[x,y,z]..];
the ground may carry ``box`` [[min],[max]] instead of points).  Units are
meters, y up.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from .actions import AIR, GROUND, AtomicAction, Primitive, Snippet, Subject
from .config import RunConfig
from .geometry import aabb_gap, as_cloud, box_hull, compute_aabb, touch
from .relations import (FOOTPRINT_MARGIN, DsrLabel, ObjectState, SsrLabel, classify_dsr,
                        classify_ssr, footprint_overlap)

ROLES = ("hand_left", "hand_right", "object", "ground")
HAND_ROLES = {"hand_left": "left", "hand_right": "right"}


class TraceError(Exception):
    pass


class ParseError(TraceError):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


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
        lo, hi = self.box
        corners = [[x, y, z] for x in (lo[0], hi[0])
                   for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
        return np.array(corners, dtype=np.float64)


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

    def object_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for fr in self.frames:
            for o in fr.objects:
                seen.setdefault(o.id, None)
        return list(seen)

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


def _object_from_record(rec, lineno):
    if not isinstance(rec, dict):
        raise SchemaError("object record must be a mapping", lineno)
    allowed = {"id", "label", "role", "points", "box"}
    unknown = set(rec) - allowed
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
    pts = None
    if points is not None:
        pts = _coords(points, f"object {rec['id']!r} points", lineno)
        need = 1 if role == "ground" else 4
        if pts.shape[0] < need:
            raise SchemaError(f"object {rec['id']!r} has < {need} points", lineno)
    if box is not None:
        corners = _coords(box, "ground box", lineno)
        if corners.shape[0] != 2:
            raise SchemaError("ground box must be [[min x, y, z], [max x, y, z]]", lineno)
        if np.any(corners[1] <= corners[0]):
            raise SchemaError("ground box needs max > min on every axis", lineno)
        box = (tuple(corners[0].tolist()), tuple(corners[1].tolist()))
    return ObjectInstance(rec["id"], rec["label"], role, pts, box)


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1,
                         f"not UTF-8: {exc.reason}") from exc


def load_trace(source, trace_id: str | None = None) -> SceneTrace:
    """Parse a trace from a path, text, or byte stream."""
    if hasattr(source, "read"):
        data = source.read()
        text = _decode(data) if isinstance(data, bytes) else data
        name = trace_id or "trace"
    else:
        with open(source, "rb") as fh:
            text = _decode(fh.read())
        import os
        name = trace_id or os.path.splitext(os.path.basename(str(source)))[0]

    frames: list[Frame] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        objects = [_object_from_record(o, lineno) for o in rec["objects"]]
        roles = [o.role for o in objects]
        for unique_role in ("hand_left", "hand_right", "ground"):
            if roles.count(unique_role) > 1:
                raise SchemaError(f"duplicate {unique_role} in frame", lineno)
        ids = [o.id for o in objects]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate object id in frame", lineno)
        frames.append(Frame(float(t), tuple(objects)))

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


def dump_trace(trace: SceneTrace, target) -> None:
    """Serialize a trace to the JSON-lines format (round-trips load_trace)."""
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    fh = open(target, "w", encoding="utf-8") if own else target
    try:
        for fr in trace.frames:
            objs = []
            for o in fr.objects:
                rec = {"id": o.id, "label": o.label, "role": o.role}
                if o.points is not None:
                    rec["points"] = [[float(v) for v in p] for p in o.points]
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


# ---------------------------------------------------------------------------
# Geometry per frame: hull reuse across rigid translation, pair contact reuse
# across rigid co-motion
# ---------------------------------------------------------------------------

_RIGID_TOL = 1e-12


def _rigid(delta: np.ndarray) -> bool:
    """True when every row of ``delta`` is the same shift (to _RIGID_TOL)."""
    return np.ptp(delta, axis=0).max() <= _RIGID_TOL


def _co_moved(prev_a, prev_b, pts_a, pts_b) -> bool:
    """True when both clouds moved from their previous points by one common
    shift, which leaves the pair's relative pose unchanged."""
    return (prev_a.shape == pts_a.shape and prev_b.shape == pts_b.shape
            and _rigid(np.concatenate((pts_a - prev_a, pts_b - prev_b))))


class GeometryCache:
    """Per-trace geometry memo, the one source of object states and contact
    sets; it lives for one walk over a trace, so nothing carries over
    between traces.

    An object's state is built once, from its ``box`` or its cloud, and
    re-used, translated, while its cloud only moves rigidly; a static ground
    box is thus built once per trace.  A pair's narrow-phase contact result
    is re-used while both clouds are unchanged, or shifted by one common
    translation, since the pair's last :func:`touch` test: the pair's
    relative pose, and with it the answer, is then the same.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._cloud: dict[str, np.ndarray] = {}
        self._state: dict[str, ObjectState] = {}
        self._pair: dict[tuple[str, str], tuple[np.ndarray, np.ndarray, bool]] = {}

    def state(self, obj: ObjectInstance) -> ObjectState:
        pts = obj.cloud()
        prev = self._cloud.get(obj.id)
        if prev is not None and prev.shape == pts.shape:
            delta = pts - prev
            if _rigid(delta):
                shift = delta[0]
                if abs(shift).max() <= _RIGID_TOL:
                    return self._state[obj.id]
                old = self._state[obj.id]
                moved = ObjectState(pts, old.hull.translated(shift),
                                    compute_aabb(pts))
                self._cloud[obj.id] = pts
                self._state[obj.id] = moved
                return moved
        if obj.points is None:
            hull = box_hull(*obj.box)
            state = ObjectState(pts, hull, hull.aabb())
        else:
            state = ObjectState.from_cloud(pts, self.cfg.geometry)
        self._cloud[obj.id] = pts
        self._state[obj.id] = state
        return state

    def contacts(self, states: dict[str, ObjectState]) -> set[frozenset]:
        """Unordered id pairs of ``states`` whose hulls are in contact."""
        ids = sorted(states)
        eps = self.cfg.geometry.eps_touch
        out: set[frozenset] = set()
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                sa, sb = states[a], states[b]
                if aabb_gap(sa.aabb, sb.aabb) > eps:
                    continue
                last = self._pair.get((a, b))
                if last is not None and _co_moved(last[0], last[1], sa.cloud, sb.cloud):
                    hit = last[2]
                else:
                    hit = touch(sa.cloud, sa.hull, sb.cloud, sb.hull, eps, self.cfg.geometry)
                    self._pair[(a, b)] = (sa.cloud, sb.cloud, hit)
                if hit:
                    out.add(frozenset((a, b)))
        return out


def touch_graph(frame: Frame, cfg: RunConfig | None = None,
                cache: GeometryCache | None = None) -> set[frozenset]:
    """Unordered id pairs whose hulls are in contact in this frame.

    Pass one ``cache`` across the frames of a trace to re-use hulls and
    contact results; its config then takes the place of ``cfg``.
    """
    cache = cache or GeometryCache(cfg or RunConfig())
    return cache.contacts({o.id: cache.state(o) for o in frame.objects})


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
    ground_id: str | None
    labels: dict[str, str]

    def for_hand(self, hand: str) -> list[AtomicAction]:
        return self.actions.get(hand, [])


class _HandState:
    def __init__(self, side: str):
        self.side = side
        self.grasped: str | None = None
        self.quiet_frames = 0
        self.context = None


class Extractor:
    """Single-pass atomic-action extraction over one trace."""

    def __init__(self, cfg: RunConfig | None = None):
        self.cfg = cfg or RunConfig()

    def run(self, trace: SceneTrace) -> ExtractionResult:
        cfg = self.cfg
        window = cfg.relation.window
        cache = GeometryCache(cfg)
        deb = _Debouncer(cfg.event.debounce)
        ground = trace.ground()
        ground_id = ground.id if ground else None
        labels = trace.labels()

        hands: dict[str, _HandState] = {}
        hand_ids: dict[str, str] = {}
        actions: dict[str, list[AtomicAction]] = {}
        busy: dict[str, list[bool]] = {}
        centroids: dict[str, list[np.ndarray]] = {}
        contact_hist: list[set[frozenset]] = []
        contact_age: dict[frozenset, int] = {}

        n = len(trace.frames)
        for f_idx, frame in enumerate(trace.frames):
            states = {o.id: cache.state(o) for o in frame.objects}
            roles = {o.id: o.role for o in frame.objects}
            for oid, st in states.items():
                centroids.setdefault(oid, []).append(st.centroid())
            for o in frame.objects:
                if o.role in HAND_ROLES:
                    side = HAND_ROLES[o.role]
                    hand_ids[side] = o.id
                    if side not in hands:
                        hands[side] = _HandState(side)
                        actions[side] = []
                        busy[side] = [False] * f_idx

            raw = cache.contacts(states)
            added, removed = deb.update(raw)
            confirmed = set(deb.confirmed)
            contact_hist.append(confirmed)
            for pair in confirmed:
                contact_age[pair] = contact_age.get(pair, 0) + 1
            for pair in list(contact_age):
                if pair not in confirmed:
                    del contact_age[pair]

            for side, hs in hands.items():
                hid = hand_ids.get(side)
                if hid is None or hid not in states:
                    busy[side].append(False)
                    continue
                events = self._edge_events(hs, hid, added, removed)
                if events:
                    for kind, other, via in events:
                        aa = self._emit_contact(kind, other, via, hs, hid, states, roles,
                                                labels, confirmed, f_idx)
                        if aa is not None:
                            actions[side].append(aa)
                    hs.quiet_frames = 0
                    hs.context = None

                self._update_grasp(hs, hid, confirmed, contact_age,
                                   centroids, roles, f_idx)

                ctx = self._salient_context(hs, hid, states, roles, ground_id, confirmed, raw)
                if ctx != hs.context:
                    hs.context = ctx
                    hs.quiet_frames = 0
                hs.quiet_frames += 1
                if hs.quiet_frames >= window and f_idx >= window:
                    aa = self._emit_motion(hs, hid, states, roles, ground_id, labels,
                                           centroids, contact_hist, confirmed,
                                           f_idx, window)
                    if aa is not None:
                        actions[side].append(aa)
                        hs.quiet_frames = 0

                busy[side].append(any(hid in p for p in confirmed))

        return ExtractionResult(
            actions={s: acts for s, acts in actions.items()},
            hand_busy={s: np.array(b, dtype=bool) for s, b in busy.items()},
            n_frames=n,
            ground_id=ground_id,
            labels=labels,
        )

    # -- helpers ------------------------------------------------------------

    def _edge_events(self, hs: _HandState, hid: str, added, removed):
        """(kind, other_id, via) events on the hand chain, ordered by id.

        ``via`` records whether the edge met the hand itself or the carried
        object; simultaneous duplicates prefer the carried edge.
        """
        events = []
        g = hs.grasped
        for kind, pairs in (("T", added), ("U", removed)):
            for pair in pairs:
                ids = set(pair)
                if hid in ids:
                    events.append((kind, (ids - {hid}).pop(), "hand"))
                elif g is not None and g in ids:
                    other = (ids - {g}).pop()
                    if other != hid:
                        events.append((kind, other, "carried"))
        chosen: dict = {}
        for kind, other, via in events:
            key = (kind, other)
            if key not in chosen or via == "carried":
                chosen[key] = (kind, other, via)
        return sorted(chosen.values(), key=lambda e: (e[1], e[0]))

    def _emit_contact(self, kind, other, via, hs, hid, states, roles,
                      labels, confirmed, f_idx):
        if other not in states:
            return None
        grasped = hs.grasped
        if kind == "U" and via == "hand" and grasped == other:
            subject = Subject(hs.side, None)      # letting go of the tool itself
            hs.grasped = None
            actor_id = hid
        else:
            subject = Subject(hs.side, grasped) if grasped else Subject(hs.side, None)
            actor_id = grasped if (via == "carried" and grasped in states) else hid
        rel = classify_ssr(states[actor_id], states[other], self.cfg.relation,
                           self.cfg.geometry, touching=(kind == "T"))
        obj_id = GROUND if roles.get(other) == "ground" else other
        place = self._place_of(other, states, roles, confirmed)
        prim = Primitive.T if kind == "T" else Primitive.U
        return AtomicAction(subject, prim, obj_id, rel, place, (f_idx, f_idx),
                            object_label=labels.get(other, other),
                            carried_label=labels.get(subject.carried) if subject.carried else None)

    def _update_grasp(self, hs, hid, confirmed, contact_age,
                      centroids, roles, f_idx):
        if hs.grasped is not None:
            if frozenset((hid, hs.grasped)) not in confirmed:
                hs.grasped = None
            return
        window = self.cfg.relation.window
        if f_idx + 1 < window + 1:
            return
        for pair in confirmed:
            if hid not in pair:
                continue
            other = (set(pair) - {hid}).pop()
            if roles.get(other) in ("ground", "hand_left", "hand_right"):
                continue
            if contact_age.get(pair, 0) < self.cfg.event.grasp_min_frames:
                continue
            ta = np.array(centroids[hid][-(window + 1):])
            tb = np.array(centroids[other][-(window + 1):])
            if len(ta) != len(tb) or len(ta) < 2:
                continue
            if classify_dsr(ta, tb, True, self.cfg.relation) is DsrLabel.Mt:
                hs.grasped = other
                return

    def _salient_context(self, hs, hid, states, roles, ground_id, confirmed, raw):
        """(object_id | None, relation) most relevant to the moving entity.

        ``raw`` is this frame's undebounced contact graph; it stands in for
        the contact test inside ``classify_ssr``, whose containment labels,
        the only ones read here, do not depend on it.
        """
        rep = hs.grasped if hs.grasped in states else hid
        partners = frozenset(
            (set(p) - {rep}).pop() for p in confirmed if rep in p
        )
        rep_state = states[rep]
        containment = None
        hover = None
        for oid in sorted(states):
            if oid in (rep, hid, hs.grasped) or roles.get(oid) in ("hand_left", "hand_right"):
                continue
            if roles.get(oid) == "ground":
                continue
            other = states[oid]
            if aabb_gap(rep_state.aabb, other.aabb) <= self.cfg.geometry.eps_touch:
                rel = classify_ssr(rep_state, other, self.cfg.relation, self.cfg.geometry,
                                   touching=frozenset((rep, oid)) in raw)
                if rel in (SsrLabel.In, SsrLabel.Wi, SsrLabel.Pwi, SsrLabel.Cr):
                    containment = (oid, rel)
                    break
            if hover is None and rep_state.aabb.min_corner[1] > other.aabb.max_corner[1]:
                if footprint_overlap(rep_state.aabb, other.aabb, FOOTPRINT_MARGIN):
                    hover = (oid, SsrLabel.Ab)
        if containment:
            ctx = containment
        elif hover:
            ctx = hover
        elif ground_id is not None:
            ctx = (None, SsrLabel.Ab)
        else:
            ctx = (None, SsrLabel.NoRelation)
        return (partners, ctx)

    def _emit_motion(self, hs, hid, states, roles, ground_id, labels,
                     centroids, contact_hist, confirmed, f_idx, window):
        grasped = hs.grasped
        rep = grasped if grasped in states else hid
        span = (f_idx - window + 1, f_idx)
        partners = sorted(
            (set(p) - {rep}).pop() for p in confirmed
            if rep in p and not (set(p) - {rep}) & {hid}
        )
        partners = [p for p in partners if roles.get(p) not in ("hand_left", "hand_right")]
        subject = Subject(hs.side, grasped) if grasped else Subject(hs.side, None)

        def track(oid):
            return np.array(centroids[oid][-(window + 1):])

        def touching_flags(a, b):
            pair = frozenset((a, b))
            return [pair in hist for hist in contact_hist[-(window + 1):]]

        for other in partners:
            if len(centroids.get(other, ())) < window + 1:
                continue
            dsr = classify_dsr(track(rep), track(other),
                               touching_flags(rep, other), self.cfg.relation)
            if dsr in (DsrLabel.Fmt, DsrLabel.Mt):
                prim = Primitive.Fmt if dsr is DsrLabel.Fmt else Primitive.Mt
                rel = classify_ssr(states[rep], states[other], self.cfg.relation,
                                   self.cfg.geometry, touching=True)
                obj_id = GROUND if roles.get(other) == "ground" else other
                place = self._place_of(other, states, roles, confirmed)
                return AtomicAction(subject, prim, obj_id, rel, place, span,
                                    object_label=labels.get(other, other),
                                    carried_label=labels.get(grasped) if grasped else None)
        if partners:
            # while an external contact exists, motion reads off that contact;
            # falling back to carried-pair co-motion would misreport it
            return None
        if grasped and grasped in states and len(centroids.get(grasped, ())) >= window + 1:
            if classify_dsr(track(hid), track(grasped), True, self.cfg.relation) is DsrLabel.Mt:
                _, ctx = hs.context if hs.context else (None, (None, SsrLabel.Ab))
                ctx_obj, ctx_rel = ctx
                if ctx_obj is not None:
                    place = self._place_of(ctx_obj, states, roles, confirmed)
                    return AtomicAction(subject, Primitive.Mt, ctx_obj, ctx_rel, place, span,
                                        object_label=labels.get(ctx_obj, ctx_obj),
                                        carried_label=labels.get(grasped))
                rel = ctx_rel if ground_id is not None else SsrLabel.NoRelation
                return AtomicAction(subject, Primitive.Mt, None, rel, AIR, span,
                                    carried_label=labels.get(grasped))
        return None

    def _place_of(self, oid, states, roles, confirmed, _depth=0, _seen=None):
        if roles.get(oid) == "ground":
            return GROUND
        seen = _seen or {oid}
        partners = sorted((set(p) - {oid}).pop() for p in confirmed if oid in p)
        partners = [p for p in partners
                    if roles.get(p) not in ("hand_left", "hand_right") and p not in seen]
        supporters = []
        for p in partners:
            if p not in states or oid not in states:
                continue
            sa, sb = states[oid], states[p]
            if sa.aabb.min_corner[1] >= sb.aabb.max_corner[1] - self.cfg.geometry.eps_touch \
                    and sa.aabb.center()[1] > sb.aabb.center()[1]:
                supporters.append(p)
        non_ground = [p for p in supporters if roles.get(p) != "ground"]
        if non_ground:
            return non_ground[0]
        if any(roles.get(p) == "ground" for p in supporters):
            return GROUND
        if _depth < 3:
            for p in partners:
                got = self._place_of(p, states, roles, confirmed,
                                     _depth + 1, seen | {p})
                if got != AIR:
                    return got
        return AIR


def extract_atomic_actions(trace: SceneTrace, cfg: RunConfig | None = None) -> ExtractionResult:
    return Extractor(cfg).run(trace)


def segment_actions(result: ExtractionResult, hand: str) -> list[Snippet]:
    """Contact episodes of one hand: from first confirmed touch to free again."""
    flags = result.hand_busy.get(hand)
    if flags is None or not len(flags):
        return []
    acts = result.for_hand(hand)
    snippets = []
    start = None
    for f in range(len(flags)):
        if flags[f] and start is None:
            start = f
        elif not flags[f] and start is not None:
            snippets.append((start, f))
            start = None
    if start is not None:
        snippets.append((start, len(flags) - 1))
    out = []
    for s, e in snippets:
        members = tuple(a for a in acts if s <= a.frame_span[0] <= e)
        out.append(Snippet(hand, (s, e), members))
    return out


def idle_spans(result: ExtractionResult, hand: str) -> list[tuple[int, int]]:
    """Maximal frame ranges where the hand touches nothing."""
    flags = result.hand_busy.get(hand)
    if flags is None:
        return [(0, result.n_frames - 1)] if result.n_frames else []
    out = []
    start = None
    for f in range(len(flags)):
        if not flags[f] and start is None:
            start = f
        elif flags[f] and start is not None:
            out.append((start, f - 1))
            start = None
    if start is not None:
        out.append((start, len(flags) - 1))
    return out
