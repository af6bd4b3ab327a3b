"""Quantities only the tests compute: the valid atomic-action space, the
derived counts of a triangulated hull surface, the trace format read
plainly, and the extraction thresholds for noisy traces."""

import io
import json
import math
import sys

import numpy as np

from manipsem.actions import AIR, GROUND, NO_OBJECT
from manipsem.config import split_lines
from manipsem.events import (ROLES, Frame, MonotonicityError, ObjectInstance, ParseError,
                             SceneTrace, SchemaError)
from manipsem.relations import SsrLabel

# Overrides that let extraction follow traces with ~1 cm point noise
NOISY_OVERRIDES = dict(eps_touch=0.03, delta_move=0.005, delta_rel=0.01,
                       distinguish_in_su="false")

# ---------------------------------------------------------------------------
# Valid atomic-action space
# ---------------------------------------------------------------------------
# The quintuple axes are finite once object ids collapse to roles; most
# combinations are physically meaningless.  The constraint rows below trim
# the raw product; the count is reported, not asserted against any fixed
# figure.

ROLE_OBJECTS = ("O1", "O2", "O3")

CONSTRAINTS = (
    ("contact primitives need a partner",
     lambda s, p, o, r, pl: not (p in ("T", "U") and o == NO_OBJECT)),
    ("rubbing needs a partner",
     lambda s, p, o, r, pl: not (p == "Fmt" and o == NO_OBJECT)),
    ("only co-motion may lack a partner",
     lambda s, p, o, r, pl: p == "Mt" or o != NO_OBJECT),
    ("no-object moves happen off support",
     lambda s, p, o, r, pl: not (o == NO_OBJECT and pl != AIR)),
    ("no-object moves reference the support plane from above",
     lambda s, p, o, r, pl: not (o == NO_OBJECT and r != "Ab")),
    ("new contact implies a contact relation",
     lambda s, p, o, r, pl: not (p == "T" and r in ("Ab", "Be", "Ar"))),
    ("co-motion of a bare hand is a grasp in disguise",
     lambda s, p, o, r, pl: not (p == "Mt" and s == "H")),
    ("ground interactions are vertical or containment-free",
     lambda s, p, o, r, pl: not (o == GROUND and r in ("Wi", "Pwi", "Cr", "Co", "Pco"))),
    ("contained objects cannot also be the place",
     lambda s, p, o, r, pl: o == NO_OBJECT or o != pl),
    ("a bare hand does not rub its partner's container",
     lambda s, p, o, r, pl: not (s == "H" and p == "Fmt" and o == GROUND)),
)


def atomic_action_space() -> list[tuple]:
    """Enumerate quintuples that satisfy every constraint row."""
    subjects = ("H", "Me")
    prims = ("T", "U", "Mt", "Fmt")
    objects = ROLE_OBJECTS + (GROUND, NO_OBJECT)
    relations = tuple(lab.value for lab in SsrLabel
                      if lab is not SsrLabel.NoRelation and lab.value not in ("In", "Su"))
    places = ROLE_OBJECTS + (GROUND, AIR)
    out = []
    for s in subjects:
        for p in prims:
            for o in objects:
                for r in relations:
                    for pl in places:
                        if all(rule(s, p, o, r, pl) for _, rule in CONSTRAINTS):
                            out.append((s, p, o, r, pl))
    return out


# ---------------------------------------------------------------------------
# Derived quantities of a hull's triangulated surface
# ---------------------------------------------------------------------------

def hull_volume(hull) -> float:
    v = hull.vertices
    tris = v[hull.faces]
    return float(np.abs(np.einsum("ij,ij->i", tris[:, 0],
                                  np.cross(tris[:, 1], tris[:, 2])).sum()) / 6.0)


def euler_counts(hull) -> tuple[int, int, int]:
    """(V, E, F) of the triangulated surface."""
    verts = {int(i) for tri in hull.faces for i in tri}
    edges = set()
    for a, b, c in hull.faces:
        for i, j in ((a, b), (b, c), (c, a)):
            edges.add((min(int(i), int(j)), max(int(i), int(j))))
    return len(verts), len(edges), len(hull.faces)


def directed_edge_multiset(hull):
    out = []
    for a, b, c in hull.faces:
        out.extend([(int(a), int(b)), (int(b), int(c)), (int(c), int(a))])
    return out


# ---------------------------------------------------------------------------
# The trace format read plainly
# ---------------------------------------------------------------------------
# json.loads of each line and the README's record rules, every record
# decoded and checked on its own: the oracle of load_trace's scan, its reuse
# of repeated records and its numpy conversion.

def oracle_cloud(value, need, what, lineno):
    """A list of at least ``need`` [x, y, z] rows of JSON numbers as float
    rows.  Booleans are not numbers; an integer lies in [-2**63, 2**64) and
    every number is finite as a float."""
    if not (isinstance(value, list)
            and all(isinstance(row, list) and len(row) == 3 for row in value)
            and all(type(v) is float or (type(v) is int and -2 ** 63 <= v < 2 ** 64)
                    for row in value for v in row)):
        raise SchemaError(f"{what}: bad coordinates", lineno)
    rows = [[float(v) for v in row] for row in value]
    if not all(math.isfinite(v) for row in rows for v in row) or len(rows) < need:
        raise SchemaError(f"{what}: bad coordinates", lineno)
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


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
        points = oracle_cloud(points, 1 if role == "ground" else 4,
                              f"object {rec['id']!r} points", lineno)
    if box is not None:
        corners = oracle_cloud(box, 2, "ground box", lineno)
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


def load_outcome(load, text):
    """The trace ``load`` reads from ``text``, or the exception it raises."""
    try:
        return load(io.StringIO(text), "t")
    except Exception as exc:  # the error itself is the result compared
        return exc


def assert_same_trace(got, want):
    """Equal by value, point arrays bit for bit."""
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
