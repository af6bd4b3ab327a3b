"""Synthetic scene generation with exact ground truth.

Scenario scripts move axis-aligned box bodies through contact episodes that
realize the shipped action mappings: the expected atomic-action stream is
the mapping's expansion with known repetition counts, and noise-free
extraction must reproduce it exactly.  Spatial-relation ground truth comes
from interval arithmetic on the box descriptions, a route independent of
the hull pipeline.

Frame budgeting matters: motion windows are sized so sustained phases emit
a fixed number of co-motion actions under the default thresholds (window
10, debounce 3), while transitional zones stay shorter than one window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actions import GROUND, AtomicAction
from .bench import GroundTruthRelation
from .config import RelationConfig, RunConfig
from .events import Frame, ObjectInstance, SceneTrace
from .library import MappingLibrary, decompose, default_library
from .relations import SsrLabel, ssr_dual

SCENARIOS = ("Idle", "Approach", "Retreat", "Lift", "Place", "Hold", "Stir",
             "Pour", "Cut", "Drink", "Wipe", "Hammer", "Saw", "Screw")

V_VERT = 0.025     # m/frame vertical travel
V_WORK = 0.008     # m/frame sustained work motion
EVAL_STRIDE = 10   # ground-truth relations every ten frames


class UnknownScenario(ValueError):
    pass


class InvalidSpec(ValueError):
    """A ScenarioSpec field the generator cannot honour: args are the field's
    name and what is wrong with its value."""


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    seed: int = 0
    noise: float = 0.0
    frames: int | None = None       # optional padding to a minimum length
    points_per_edge: int = 3

    def __post_init__(self):
        if self.name not in SCENARIOS:
            raise UnknownScenario(self.name)
        if not 0.0 <= self.noise < math.inf:
            raise InvalidSpec("noise", f"must be a finite number >= 0, got {self.noise}")
        # a box face needs two points per edge: fewer leave a cloud of < 4 points
        if self.points_per_edge < 2:
            raise InvalidSpec("points_per_edge", f"must be at least 2, got {self.points_per_edge}")


@dataclass
class GeneratedTrace:
    trace: SceneTrace
    relations: list[GroundTruthRelation]
    actions: list[AtomicAction]
    name: str
    bindings: dict
    hand: str


@dataclass
class Body:
    id: str
    label: str
    role: str
    size: np.ndarray
    open_top: bool = False
    solid: bool = True

    def box(self, center):
        half = self.size / 2.0
        return center - half, center + half


def box_shell_cloud(size, per_edge: int = 3, open_top: bool = False,
                    solid: bool = True) -> np.ndarray:
    """Surface lattice of a box centered at the origin."""
    half = np.asarray(size, dtype=np.float64) / 2.0
    ts = np.linspace(0.0, 1.0, per_edge)
    pts = []
    for i in ts:
        for j in ts:
            for k in ts:
                interior = 0 < i < 1 and 0 < j < 1 and 0 < k < 1
                if interior:
                    continue
                if open_top and j == 1.0 and 0 < i < 1 and 0 < k < 1:
                    continue
                pts.append((np.array([i, j, k]) * 2.0 - 1.0) * half)
    if solid:
        pts.append(np.zeros(3))
    return np.array(pts)


class Script:
    """A rigid-body world animated frame by frame."""

    def __init__(self, rng: np.random.Generator, noise: float, per_edge: int):
        self.rng = rng
        self.noise = noise
        self.per_edge = per_edge
        self.bodies: dict[str, Body] = {}
        self.clouds: dict[str, np.ndarray] = {}
        self.pos: dict[str, np.ndarray] = {}
        self.track: list[dict[str, np.ndarray]] = []
        self.ground_box = None
        self.ground_id = None

    def add_ground(self, half_extent=0.9, oid="table", label="table"):
        self.ground_box = (np.array([-half_extent, -0.05, -half_extent]),
                           np.array([half_extent, 0.0, half_extent]))
        self.ground_id = oid
        self.ground_label = label

    def add(self, oid, label, role, size, center, open_top=False, solid=True):
        body = Body(oid, label, role, np.asarray(size, dtype=np.float64),
                    open_top, solid)
        self.bodies[oid] = body
        self.clouds[oid] = box_shell_cloud(body.size, self.per_edge, open_top, solid)
        self.pos[oid] = np.asarray(center, dtype=np.float64).copy()

    def snapshot(self):
        self.track.append({k: v.copy() for k, v in self.pos.items()})

    def hold(self, n: int):
        for _ in range(n):
            self.snapshot()

    def move(self, deltas: dict, n: int):
        deltas = {k: np.asarray(v, dtype=np.float64) for k, v in deltas.items()}
        for step in range(1, n + 1):
            for oid, d in deltas.items():
                self.pos[oid] = self.pos[oid] + d / n
            self.snapshot()

    def orbit(self, ids, n: int, radius: float = 0.016, step: float = 0.5):
        """Small horizontal circular drift keeping mean speed near V_WORK."""
        for k in range(n):
            d = np.array([math.cos(step * k), 0.0, math.sin(step * k)])
            d = d * radius * step
            for oid in ids:
                self.pos[oid] = self.pos[oid] + d
            self.snapshot()

    def shake(self, ids, n: int, axis=2, amp: float = 0.015):
        """Back-and-forth strokes along one axis."""
        direction = 1.0
        for k in range(n):
            d = np.zeros(3)
            d[axis] = direction * amp
            for oid in ids:
                self.pos[oid] = self.pos[oid] + d
            self.snapshot()
            if k % 2 == 1:
                direction = -direction

    def build_trace(self, trace_id: str, min_frames: int | None = None) -> SceneTrace:
        if min_frames is not None and len(self.track) < min_frames:
            last = self.track[-1]
            while len(self.track) < min_frames:
                self.track.append({k: v.copy() for k, v in last.items()})
        frames = []
        dt = 1.0 / 30.0
        for f_idx, positions in enumerate(self.track):
            objects = []
            if self.ground_box is not None:
                objects.append(ObjectInstance(self.ground_id, self.ground_label,
                                              "ground", None,
                                              (tuple(self.ground_box[0]),
                                               tuple(self.ground_box[1]))))
            for oid, body in self.bodies.items():
                pts = self.clouds[oid] + positions[oid]
                if self.noise > 0:
                    pts = pts + self.rng.uniform(-self.noise, self.noise, pts.shape)
                objects.append(ObjectInstance(oid, body.label, body.role, pts, None))
            frames.append(Frame(f_idx * dt, tuple(objects)))
        return SceneTrace(tuple(frames), trace_id, 30.0)


# ---------------------------------------------------------------------------
# Analytic relation ground truth from box descriptions
# ---------------------------------------------------------------------------

def _intervals(lo, hi):
    return tuple(zip(lo, hi))


def _inside(inner, outer, margin):
    return all(il >= ol + margin and ih <= oh - margin
               for (il, ih), (ol, oh) in zip(inner, outer))


def _gap(a, b):
    g = 0.0
    for (al, ah), (bl, bh) in zip(a, b):
        d = max(bl - ah, al - bh, 0.0)
        g += d * d
    return math.sqrt(g)


def _pen_depth(a, b):
    depth = math.inf
    for (al, ah), (bl, bh) in zip(a, b):
        overlap = min(ah, bh) - max(al, bl)
        if overlap <= 0:
            return 0.0
        depth = min(depth, overlap)
    return depth


def _xz_overlap(a, b, margin):
    for axis in (0, 2):
        (al, ah), (bl, bh) = a[axis], b[axis]
        if min(ah, bh) - max(al, bl) <= margin:
            return False
    return True


def analytic_box_ssr(box_a, box_b, meta_a: Body, meta_b: Body,
                     cfg: RelationConfig, eps_touch: float) -> SsrLabel:
    """Relation of box a to box b from interval arithmetic alone."""
    a = _intervals(*box_a)
    b = _intervals(*box_b)
    wall = eps_touch

    def through_opening(inner, outer):
        # rod standing in an open-topped container and poking out the top
        return (_xz_overlap(inner, outer, 0.0)
                and all(inner[ax][0] >= outer[ax][0] + 1e-9
                        and inner[ax][1] <= outer[ax][1] - 1e-9 for ax in (0, 2))
                and inner[1][1] > outer[1][1] + eps_touch
                and inner[1][0] < outer[1][1] - eps_touch
                and inner[1][0] >= outer[1][0] - 1e-9)

    if _inside(a, b, eps_touch):
        near_wall = min(
            min(abs(av - bv) for av in pair_a for bv in pair_b)
            for pair_a, pair_b in zip(a, b)
        ) <= wall
        return SsrLabel.In if near_wall else SsrLabel.Wi
    if _inside(b, a, eps_touch):
        near_wall = min(
            min(abs(av - bv) for av in pair_a for bv in pair_b)
            for pair_a, pair_b in zip(b, a)
        ) <= wall
        return SsrLabel.Su if near_wall else SsrLabel.Co
    if meta_b.open_top and through_opening(a, b):
        return SsrLabel.Pwi
    if meta_a.open_top and through_opening(b, a):
        return SsrLabel.Pco
    pen = _pen_depth(a, b)
    gap = _gap(a, b)
    if pen > eps_touch:
        return SsrLabel.Cr
    if gap <= eps_touch:
        above = a[1][0] >= b[1][1] - eps_touch and _xz_overlap(a, b, 1e-3)
        below = b[1][0] >= a[1][1] - eps_touch and _xz_overlap(a, b, 1e-3)
        ca = (a[1][0] + a[1][1]) / 2
        cb = (b[1][0] + b[1][1]) / 2
        if above and ca > cb:
            return SsrLabel.To
        if below and cb > ca:
            return SsrLabel.Bo
        return SsrLabel.ArT
    if a[1][0] > b[1][1] and _xz_overlap(a, b, 1e-3):
        return SsrLabel.Ab
    if b[1][0] > a[1][1] and _xz_overlap(a, b, 1e-3):
        return SsrLabel.Be
    if gap <= cfg.theta_near:
        return SsrLabel.Ar
    return SsrLabel.NoRelation


def _ground_body(sc: Script) -> Body:
    return Body(sc.ground_id, sc.ground_label, "ground",
                sc.ground_box[1] - sc.ground_box[0])


def script_relations(sc: Script, cfg: RunConfig) -> list[GroundTruthRelation]:
    out = []
    ids = list(sc.bodies)
    gb = _ground_body(sc)
    for f_idx in range(0, len(sc.track), EVAL_STRIDE):
        positions = sc.track[f_idx]
        entries = [(oid, sc.bodies[oid], sc.bodies[oid].box(positions[oid]))
                   for oid in ids]
        if sc.ground_box is not None:
            entries.append((sc.ground_id, gb, sc.ground_box))
        for i, (ida, ba, boxa) in enumerate(entries):
            for idb, bb, boxb in entries[i + 1:]:
                lab = analytic_box_ssr(boxa, boxb, ba, bb,
                                       cfg.relation, cfg.geometry.eps_touch)
                out.append(GroundTruthRelation(f_idx, ida, idb, lab))
                out.append(GroundTruthRelation(f_idx, idb, ida, ssr_dual(lab)))
    return out


# ---------------------------------------------------------------------------
# Scenario scripts
# ---------------------------------------------------------------------------

def _jitter(rng):
    return rng.uniform(-0.01, 0.01)


def _world(spec, rng, x, size=(0.1, 0.16, 0.1), oid="block1", label="box"):
    """The table with one object resting on it near (x, 0), jittered in x
    and z."""
    sc = Script(rng, spec.noise, spec.points_per_edge)
    sc.add_ground()
    sc.add(oid, label, "object", size, (x + _jitter(rng), size[1] / 2, _jitter(rng)))
    return sc


def _add_target(sc, rng, label, size, x=0.19, y=None, open_top=False):
    """The work target ``target1`` near (x, 0), jittered in x and z; it rests
    on the table unless centred at height ``y``.  An open top makes it a
    hollow container."""
    sc.add("target1", label, "object", size,
           (x + _jitter(rng), size[1] / 2 if y is None else y, _jitter(rng)),
           open_top=open_top, solid=not open_top)


def _target_top(sc):
    return sc.pos["target1"][1] + sc.bodies["target1"].size[1] / 2


def _add_hand(sc, center):
    sc.add("hand_l", "left hand", "hand_left", (0.08, 0.08, 0.08), center)


def _grasp(sc, oid, hold=12, grip_dx=0.0):
    """Place the hand (an 8-cm cube) 15 cm over the object's top, settle,
    descend onto the top, confirm contact and settle; returns the (hand,
    object) pair."""
    top = sc.pos[oid][1] + sc.bodies[oid].size[1] / 2
    _add_hand(sc, (sc.pos[oid][0] + grip_dx, top + 0.15 + 0.04, sc.pos[oid][2]))
    sc.hold(6)
    drop = sc.pos["hand_l"][1] - (top + 0.04)
    sc.move({"hand_l": (0.0, -drop, 0.0)}, max(2, int(round(drop / V_VERT))))
    sc.hold(hold)
    return ["hand_l", oid]


def _lift(sc, ids, height=0.15, frames=6):
    sc.move({i: (0.0, height, 0.0) for i in ids}, frames)


def _carry(sc, ids, dx, dz=0.0, frames=11):
    sc.move({i: (dx, 0.0, dz) for i in ids}, frames)


def _lower_to(sc, pair, top, frames=None):
    """Lower the pair until the held object ``pair[1]`` rests at ``top``."""
    drop = sc.pos[pair[1]][1] - (top + sc.bodies[pair[1]].size[1] / 2)
    _lift(sc, pair, -drop, frames or max(2, int(round(drop / V_VERT))))


def _release(sc):
    _lift(sc, ["hand_l"], 0.15, 6)
    sc.hold(6)


def _put_down(sc, pair):
    _lower_to(sc, pair, 0.0)                           # T ground
    sc.hold(6)
    _release(sc)                                       # U object


def _tool_bindings():
    return {"?tool": "tool1", "?object": "target1", "?place": GROUND, "?target": GROUND}


def _tool_action_script(spec, rng, tool_size, tool_label, target, engage, reach=0.0,
                        grip_dx=0.0, lift_height=0.15, exit_rise=0.12, exit_frames=5):
    """Shared skeleton: pick a tool up, carry it over the target, work there,
    put it back.

    ``target`` holds the keyword arguments of `_add_target`; the carry ends
    ``reach`` metres along x from the target's centre; ``engage(sc, pair)``
    scripts the approach, work and disengage phases.
    """
    sc = _world(spec, rng, -0.25, tool_size, "tool1", tool_label)
    home_x, _, home_z = sc.pos["tool1"]
    _add_target(sc, rng, **target)
    pair = _grasp(sc, "tool1", grip_dx=grip_dx)        # T tool
    _lift(sc, pair, lift_height)                       # U ground (+3)
    to = sc.pos["target1"]
    _carry(sc, pair, to[0] + reach - sc.pos["tool1"][0],
           to[2] - sc.pos["tool1"][2])                 # Mt air x1
    engage(sc, pair)                                   # approach + work + disengage
    _lift(sc, pair, exit_rise, exit_frames)
    _carry(sc, pair, home_x - sc.pos["tool1"][0], home_z - sc.pos["tool1"][2],
           frames=9)                                   # Mt air x1
    _put_down(sc, pair)
    return sc


def generate_synthetic_trace(spec: ScenarioSpec,
                             lib: MappingLibrary | None = None,
                             cfg: RunConfig | None = None) -> GeneratedTrace:
    """Build one scenario trace plus its exact ground truth."""
    lib = lib or default_library()
    cfg = cfg or RunConfig()
    rng = np.random.default_rng(spec.seed)
    builder = _BUILDERS.get(spec.name)
    if builder is None:
        raise UnknownScenario(spec.name)
    sc, bindings, repeats = builder(spec, rng)
    hand = "left"                                      # every script moves the left hand
    trace = sc.build_trace(f"{spec.name.lower()}-{spec.seed}", spec.frames)
    expected = decompose(spec.name, bindings, lib, hand=hand, repeats=repeats)
    relations = script_relations(sc, cfg)
    return GeneratedTrace(trace, relations, expected, spec.name, bindings, hand)


# -- individual scenarios: (script, bindings, repeat counts) ------------------

def _scn_idle(spec, rng):
    sc = _world(spec, rng, 0.3, size=(0.1, 0.1, 0.1))
    _add_hand(sc, (-0.4 + _jitter(rng), 0.35, _jitter(rng)))
    sc.hold(20)
    sc.move({"hand_l": (0.05, 0.0, 0.0)}, 20)
    sc.hold(20)
    return sc, {}, 1


def _scn_approach(spec, rng):
    sc = _world(spec, rng, 0.1)
    bx, _, bz = sc.pos["block1"]
    _add_hand(sc, (bx - 0.35, 0.12, bz))
    sc.hold(6)
    gap = (bx - 0.05) - (sc.pos["hand_l"][0] + 0.04)
    sc.move({"hand_l": (gap, 0.0, 0.0)}, 10)       # side contact -> T (ArT)
    sc.hold(14)
    return sc, {"?object": "block1", "?place": GROUND}, 1


def _scn_retreat(spec, rng):
    sc = _world(spec, rng, 0.1)
    bx, _, bz = sc.pos["block1"]
    _add_hand(sc, (bx - 0.05 - 0.04, 0.12, bz))
    sc.hold(4)                                      # contact from frame 0 -> T
    sc.move({"hand_l": (-0.15, 0.0, 0.0)}, 10)      # withdraw -> U (Ar)
    sc.hold(8)
    return sc, {"?object": "block1", "?place": GROUND}, 1


def _scn_hold(spec, rng):
    sc = _world(spec, rng, 0.1)
    _grasp(sc, "block1", hold=20)
    return sc, {"?object": "block1", "?place": GROUND}, 1


def _scn_lift(spec, rng):
    sc = _world(spec, rng, 0.1)
    pair = _grasp(sc, "block1")
    _lift(sc, pair, 0.25, frames=10)
    _carry(sc, pair, 0.06, frames=8)
    return sc, {"?object": "block1", "?place": GROUND}, {2: 1}


def _scn_place(spec, rng):
    sc = _world(spec, rng, -0.25)
    pair = _grasp(sc, "block1")
    _lift(sc, pair)
    _carry(sc, pair, 0.44)
    _put_down(sc, pair)
    return sc, {"?object": "block1", "?place": GROUND, "?target": GROUND}, {2: 2}


def _scn_wipe(spec, rng):
    sc = _world(spec, rng, -0.1, (0.08, 0.08, 0.08), "tool1", "sponge")
    pair = _grasp(sc, "tool1")
    sc.shake(pair, 22, axis=0, amp=0.015)          # Fmt on ground x2
    sc.hold(3)
    _release(sc)
    return sc, {"?tool": "tool1", "?place": GROUND}, {1: 2}


def _scn_screw(spec, rng):
    def engage(sc, pair):
        _lower_to(sc, pair, _target_top(sc), frames=3)  # T target (To)
        sc.shake(pair, 22, axis=0, amp=0.01)            # Fmt x2
        _lift(sc, pair, 0.1, frames=4)                  # U target (Ab)

    sc = _tool_action_script(spec, rng, (0.03, 0.1, 0.03), "screwdriver",
                             dict(label="hard disk", size=(0.12, 0.1, 0.12)), engage)
    return sc, _tool_bindings(), {2: 1, 4: 2, 6: 2}


def _scn_hammer(spec, rng):
    def engage(sc, pair):
        top = _target_top(sc)
        _lower_to(sc, pair, top, frames=3)              # first strike: T
        for strike in range(4):
            sc.hold(3)
            _lift(sc, pair, 0.12, frames=4)             # U (Ab)
            if strike < 3:
                _lower_to(sc, pair, top, frames=4)      # T again
        sc.hold(1)

    sc = _tool_action_script(spec, rng, (0.05, 0.07, 0.05), "hammer",
                             dict(label="nail", size=(0.04, 0.1, 0.04)), engage,
                             exit_rise=0.06, exit_frames=3)
    return sc, _tool_bindings(), {2: 1, 11: 2}


def _scn_saw(spec, rng):
    def engage(sc, pair):
        # drop to the upper part of the side face the carry ended against
        drop = sc.pos["tool1"][1] - (sc.pos["target1"][1] + 0.02)
        _lift(sc, pair, -drop, max(2, int(round(drop / V_VERT))))
        sc.hold(8)                                      # T target (ArT)
        sc.shake(pair, 16, axis=2, amp=0.015)           # Fmt (ArT) x2
        _carry(sc, pair, -0.12, frames=8)               # U target (Ar)
        sc.hold(2)

    sc = _tool_action_script(spec, rng, (0.14, 0.05, 0.05), "saw",
                             dict(label="board", size=(0.14, 0.16, 0.12)), engage,
                             reach=-(0.14 + 0.14) / 2,    # side faces touching
                             grip_dx=-0.045)
    return sc, _tool_bindings(), {2: 1, 4: 2, 6: 3}


def _scn_cut(spec, rng):
    def engage(sc, pair):
        _lower_to(sc, pair, _target_top(sc), frames=3)  # T target (To)
        sc.hold(2)
        _lift(sc, pair, -0.05, 2)                       # plunge -> U (Pwi)
        sc.shake(pair, 24, axis=2, amp=0.01)            # Mt (Pwi) x2
        _lift(sc, pair, 0.12, frames=3)

    sc = _tool_action_script(spec, rng, (0.02, 0.14, 0.06), "knife",
                             dict(label="apple", size=(0.1, 0.14, 0.1), x=0.215), engage,
                             reach=0.025, exit_rise=0.04, exit_frames=2)
    return sc, _tool_bindings(), {2: 1, 5: 2, 6: 1}


def _scn_stir(spec, rng):
    def engage(sc, pair):
        rim = _target_top(sc)
        drop = sc.pos["tool1"][1] - (rim - 0.03 - sc.bodies["tool1"].size[1] / 2)
        _lift(sc, pair, -drop, 3)                       # sink inside (Wi)
        sc.orbit(pair, 24)                              # Mt (Wi) x2
        _lift(sc, pair, rim + 0.08 - sc.pos["tool1"][1], 2)

    sc = _tool_action_script(spec, rng, (0.03, 0.08, 0.03), "spoon",
                             dict(label="bowl", size=(0.2, 0.22, 0.2), open_top=True), engage,
                             lift_height=0.32, exit_rise=0.06, exit_frames=3)
    return sc, _tool_bindings(), {2: 1, 3: 2, 4: 2}


def _scn_pour(spec, rng):
    def engage(sc, pair):
        hover_y = _target_top(sc) + 0.08 + sc.bodies["tool1"].size[1] / 2
        _lift(sc, pair, hover_y - sc.pos["tool1"][1], 2)
        sc.orbit(pair, 14)                              # Mt (Ab target) x2
        _lift(sc, pair, 0.05, 2)

    sc = _tool_action_script(spec, rng, (0.06, 0.1, 0.06), "cup",
                             dict(label="bowl", size=(0.2, 0.16, 0.2), open_top=True), engage,
                             lift_height=0.3, exit_rise=0.05, exit_frames=2)
    return sc, _tool_bindings(), {2: 1, 3: 2, 4: 2}


def _scn_drink(spec, rng):
    def engage(sc, pair):
        # rise to mouth height well to the side, then slide into side contact
        _lift(sc, pair, sc.pos["target1"][1] - sc.pos["tool1"][1], 8)
        _carry(sc, pair, sc.pos["target1"][0] - (0.06 + 0.08) / 2 - sc.pos["tool1"][0],
               frames=4)                                # T mouth (ArT, Air)
        sc.hold(4)
        _carry(sc, pair, -0.15, frames=10)              # U mouth (Ar, Air)
        _lift(sc, pair, -(sc.pos["tool1"][1] - 0.25), 6)

    sc = _tool_action_script(spec, rng, (0.08, 0.1, 0.06), "cup",
                             dict(label="mouth", size=(0.06, 0.06, 0.06), x=0.3, y=0.42),
                             engage, reach=-(0.06 + 0.08) / 2 - 0.12,  # 12 cm off contact
                             grip_dx=-0.05, exit_rise=0.0, exit_frames=2)
    return sc, {"?tool": "tool1", "?object": "target1", "?place": GROUND}, {2: 2, 5: 3}


_BUILDERS = {
    "Idle": _scn_idle,
    "Approach": _scn_approach,
    "Retreat": _scn_retreat,
    "Hold": _scn_hold,
    "Lift": _scn_lift,
    "Place": _scn_place,
    "Wipe": _scn_wipe,
    "Screw": _scn_screw,
    "Hammer": _scn_hammer,
    "Saw": _scn_saw,
    "Cut": _scn_cut,
    "Stir": _scn_stir,
    "Pour": _scn_pour,
    "Drink": _scn_drink,
}


# ---------------------------------------------------------------------------
# Static relation scenes for the model-comparison corpus
# ---------------------------------------------------------------------------

SCENE_KINDS = ("Ab", "To", "Ar", "ArT", "In", "Wi", "Pwi", "Cr", "NoRelation")
SCENE_FRAMES = 11   # static; evaluated every ten frames
# range of the gap drawn between the two boxes (for In/Wi, between a and
# b's nearest wall); the other kinds draw no gap
_GAPS = {"Ab": (0.05, 0.25), "Ar": (0.02, 0.12), "NoRelation": (0.3, 0.8),
         "In": (0.0008, 0.004), "Wi": (0.03, 0.06)}


def make_relation_scene(kind: str, rng: np.random.Generator):
    """One static, noise-free two-object scene realizing ``kind`` for the
    ordered pair (a, b); the reverse pair carries the dual label.  Returns
    (SceneTrace, [GroundTruthRelation])."""
    if kind not in SCENE_KINDS:
        raise UnknownScenario(kind)
    sc = Script(rng, 0.0, 4)

    def rsize(lo=0.1, hi=0.3):
        return rng.uniform(lo, hi, 3)

    def gap():
        return rng.uniform(*_GAPS[kind]) if kind in _GAPS else 0.0

    names = ("box a", "box b")
    if kind in ("Ab", "To"):                  # a stacked over b
        sb = rsize()
        sa = sb * rng.uniform(0.4, 0.9)
        ca, cb = (0, sb[1] + gap() + sa[1] / 2, 0), (0, sb[1] / 2, 0)
    elif kind in ("Ar", "ArT", "NoRelation"):  # side by side along x
        sa, sb = rsize(), rsize()
        g = gap()
        ca, cb = (-(sa[0] / 2 + g / 2), sa[1] / 2, 0), (sb[0] / 2 + g / 2, sb[1] / 2, 0)
    elif kind in ("In", "Wi"):                # a inside hollow b, near one wall
        sb = rng.uniform(0.24, 0.4, 3)
        sa = sb * rng.uniform(0.25, 0.4)
        ca = (sb[0] / 2 - sa[0] / 2 - gap(), sb[1] / 2 + rng.uniform(-0.02, 0.02), 0)
        cb = (0, sb[1] / 2, 0)
    elif kind == "Pwi":                       # a rod poking out of an open box
        sb = rng.uniform(0.24, 0.4, 3)
        sa = np.array([sb[0] * 0.22, sb[1] * 1.6, sb[2] * 0.22])
        ca, cb = (0, sb[1] * 0.4 + sa[1] / 2, 0), (0, sb[1] / 2, 0)
        names = ("rod", "open box")
    else:                                     # Cr: overlapping along x
        sa, sb = rsize(0.14, 0.3), rsize(0.14, 0.3)
        overlap = rng.uniform(0.45, 0.75) * min(sa[0], sb[0])
        y = max(sa[1], sb[1]) / 2
        ca, cb = (-(sa[0] / 2) + overlap / 2, y, 0), (sb[0] / 2 - overlap / 2, y, 0)
    sc.add("obj_a", names[0], "object", sa, ca)
    sc.add("obj_b", names[1], "object", sb, cb, open_top=kind == "Pwi",
           solid=kind not in ("In", "Wi", "Pwi"))
    sc.hold(SCENE_FRAMES)
    trace = sc.build_trace(f"scene-{kind.lower()}")
    label = SsrLabel(kind)
    gts = []
    for f_idx in range(0, SCENE_FRAMES, EVAL_STRIDE):
        gts.append(GroundTruthRelation(f_idx, "obj_a", "obj_b", label))
        gts.append(GroundTruthRelation(f_idx, "obj_b", "obj_a", ssr_dual(label)))
    return trace, gts


def make_corpus(count: int = 500, seed: int = 0):
    """Mixed static-scene corpus cycling all relation kinds."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        kind = SCENE_KINDS[k % len(SCENE_KINDS)]
        out.append(make_relation_scene(kind, rng))
    return out
