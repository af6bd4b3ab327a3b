"""Static and dynamic spatial relation classification between object pairs.

Thirteen static labels: vertical (Ab/Be, upgraded to To/Bo on contact),
lateral proximity (Ar, upgraded to ArT on contact), and the five
set-intersection patterns (Cr, Wi, Pwi, Co, Pco) with contact-aware
variants In/Su for snug containment.  Six dynamic labels describe windowed
pair kinetics (Gc, Ma, Mt, Ht, Fmt, S).

The classifier runs in two modes.  ``hull`` mode is the full model; ``aabb``
mode reproduces the coarser legacy behaviour where objects are bounding
boxes, contact is box proximity, and the intersection patterns are not
available at all (so Cr/Wi/Pwi/Co/Pco can never be emitted).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .config import GeometryConfig, RelationConfig
from .geometry import (
    Aabb,
    ConvexHull,
    DEFAULT_GEOMETRY,
    RelMatrix,
    aabb_gap,
    hull_with_fallback,
    relation_matrix,
    touch,
    touches_wall,
)

DEFAULT_RELATION = RelationConfig()


class SsrLabel(str, Enum):
    Ab = "Ab"
    Be = "Be"
    To = "To"
    Bo = "Bo"
    Ar = "Ar"
    ArT = "ArT"
    In = "In"
    Su = "Su"
    Cr = "Cr"
    Wi = "Wi"
    Pwi = "Pwi"
    Co = "Co"
    Pco = "Pco"
    NoRelation = "NoRelation"

    def __str__(self) -> str:
        return self.value


class DsrLabel(str, Enum):
    Gc = "Gc"
    Ma = "Ma"
    Mt = "Mt"
    Ht = "Ht"
    Fmt = "Fmt"
    S = "S"

    def __str__(self) -> str:
        return self.value


PATTERN_LABELS = frozenset({SsrLabel.Cr, SsrLabel.Wi, SsrLabel.Pwi,
                            SsrLabel.Co, SsrLabel.Pco, SsrLabel.In, SsrLabel.Su})

# Projection overlap uses a small fixed margin: corner grazing must not read
# as vertical stacking, but slender objects must keep their footprint even
# when the touch band is widened for noisy data.
FOOTPRINT_MARGIN = 1e-3

_DUAL = {
    SsrLabel.Ab: SsrLabel.Be, SsrLabel.Be: SsrLabel.Ab,
    SsrLabel.To: SsrLabel.Bo, SsrLabel.Bo: SsrLabel.To,
    SsrLabel.Wi: SsrLabel.Co, SsrLabel.Co: SsrLabel.Wi,
    SsrLabel.Pwi: SsrLabel.Pco, SsrLabel.Pco: SsrLabel.Pwi,
    SsrLabel.In: SsrLabel.Su, SsrLabel.Su: SsrLabel.In,
}


def ssr_dual(label: SsrLabel) -> SsrLabel:
    """Label seen from the other object's side; symmetric labels map to themselves."""
    return _DUAL.get(label, label)


class WindowTooShort(ValueError):
    pass


class ObjectState:
    """Geometry snapshot of one object in one frame: its cloud, hull and box.

    The hull may be one that is built from the state's cloud on first read
    (``ConvexHull.deferred``); a state's contact and pattern tests read it
    only where its box and cloud cannot decide.
    """

    __slots__ = ("cloud", "hull", "aabb")

    def __init__(self, cloud: np.ndarray, hull: ConvexHull, aabb: Aabb):
        self.cloud, self.hull, self.aabb = cloud, hull, aabb

    @classmethod
    def from_cloud(cls, pts: np.ndarray, cfg: GeometryConfig = DEFAULT_GEOMETRY) -> "ObjectState":
        """The state of a cloud, its hull wrapped now."""
        # an empty cloud raises EmptyCloud in the wrap, before the box
        hull = hull_with_fallback(pts, cfg)
        return cls(pts, hull, Aabb(pts.min(axis=0), pts.max(axis=0)))


def footprint_overlap(a: Aabb, b: Aabb, margin: float) -> bool:
    """True when the x and z projections genuinely overlap (beyond margin)."""
    (ax0, _, az0), (ax1, _, az1) = a.corners
    (bx0, _, bz0), (bx1, _, bz1) = b.corners
    return (min(ax1, bx1) - max(ax0, bx0) > margin
            and min(az1, bz1) - max(az0, bz0) > margin)


def _above(a: Aabb, b: Aabb, slack: float) -> bool:
    """a sits over b: y ranges separated (up to slack) with overlapping footprints."""
    (_, a_lo, _), (_, a_hi, _) = a.corners
    (_, b_lo, _), (_, b_hi, _) = b.corners
    # the boxes' centres, as Aabb.center computes them
    return a_lo >= b_hi - slack and (a_hi + a_lo) / 2.0 > (b_hi + b_lo) / 2.0


def pattern_matrix(a: ObjectState, b: ObjectState,
                   geo: GeometryConfig = DEFAULT_GEOMETRY) -> RelMatrix:
    """The intersection matrix the patterns are read from: full clouds
    against hulls, with the boundary band widened to the touch tolerance."""
    return relation_matrix(a.cloud, a.hull, b.cloud, b.hull, geo.eps_touch)


def _pattern_label(a: ObjectState, b: ObjectState, m: RelMatrix, cfg: RelationConfig,
                   geo: GeometryConfig) -> SsrLabel | None:
    """The intersection-pattern label of a against b, given their
    :func:`pattern_matrix` ``m``, or None when they are disjoint."""
    if m.a_in_b0 and m.a0_has_b:
        return SsrLabel.Cr
    if m.a_in_b0 and not m.a0_has_b:
        if not m.a_in_bminus:
            if cfg.distinguish_in_su and touches_wall(a.cloud, a.hull, b.hull, geo.eps_touch):
                return SsrLabel.In
            return SsrLabel.Wi
        return SsrLabel.Pwi
    if m.a0_has_b and not m.a_in_b0:
        if not m.aminus_has_b:
            if cfg.distinguish_in_su and touches_wall(b.cloud, b.hull, a.hull, geo.eps_touch):
                return SsrLabel.Su
            return SsrLabel.Co
        return SsrLabel.Pco
    return None


def classify_ssr(a: ObjectState, b: ObjectState,
                 cfg: RelationConfig = DEFAULT_RELATION,
                 geo: GeometryConfig = DEFAULT_GEOMETRY,
                 mode: str = "hull",
                 touching: bool | None = None,
                 memo=None) -> SsrLabel:
    """Static relation of a with respect to b for one frame.

    ``touching`` short-circuits the internal contact test when the caller
    already maintains a touch graph.  ``memo``, when given, answers for the
    pair in hull mode where a fresh computation would: ``memo.matrix()``
    gives their :func:`pattern_matrix` and ``memo.touching()`` their
    contact test (see ``events.GeometryCache.pair``).  Ordering:
    intersection patterns first (hull mode only), then contact-dependent
    labels, then disjoint ones.
    """
    if mode not in ("hull", "aabb"):
        raise ValueError(f"unknown mode {mode!r}")

    gap = aabb_gap(a.aabb, b.aabb)
    if mode == "aabb":
        # legacy box model: no interior/boundary structure to compare
        if touching is None:
            touching = gap <= geo.eps_touch
    else:
        if gap <= geo.eps_touch:
            m = memo.matrix() if memo else pattern_matrix(a, b, geo)
            label = _pattern_label(a, b, m, cfg, geo)
            if label is not None:
                return label
        if touching is None:
            touching = (memo.touching() if memo
                        else touch(a.cloud, a.hull, b.cloud, b.hull, geo.eps_touch))

    if touching:
        if _above(a.aabb, b.aabb, geo.eps_touch) and footprint_overlap(a.aabb, b.aabb, FOOTPRINT_MARGIN):
            return SsrLabel.To
        if _above(b.aabb, a.aabb, geo.eps_touch) and footprint_overlap(a.aabb, b.aabb, FOOTPRINT_MARGIN):
            return SsrLabel.Bo
        return SsrLabel.ArT

    (_, a_lo, _), (_, a_hi, _) = a.aabb.corners
    (_, b_lo, _), (_, b_hi, _) = b.aabb.corners
    if a_lo > b_hi and footprint_overlap(a.aabb, b.aabb, FOOTPRINT_MARGIN):
        return SsrLabel.Ab
    if b_lo > a_hi and footprint_overlap(a.aabb, b.aabb, FOOTPRINT_MARGIN):
        return SsrLabel.Be
    if gap <= cfg.theta_near:
        return SsrLabel.Ar
    return SsrLabel.NoRelation


def classify_dsr(ta: np.ndarray, tb: np.ndarray, touching,
                 cfg: RelationConfig = DEFAULT_RELATION) -> DsrLabel:
    """Dynamic relation of an object pair over a window of centroid samples.

    ``ta`` and ``tb`` are (W, 3) centroid arrays; ``touching`` is a
    per-frame contact flag (or one flag for the whole window).
    """
    if ta.shape != tb.shape:
        raise ValueError("tracks must have identical shapes")
    w = ta.shape[0]
    if w < 2:
        raise WindowTooShort(f"need >= 2 samples, got {w}")
    flags = np.atleast_1d(np.asarray(touching, dtype=bool))
    in_contact = bool(flags.mean() >= 0.5)

    move_a = float(np.linalg.norm(np.diff(ta, axis=0), axis=1).mean())
    move_b = float(np.linalg.norm(np.diff(tb, axis=0), axis=1).mean())
    dist = np.linalg.norm(ta - tb, axis=1)
    drift = float(dist[-1] - dist[0])

    a_moves = move_a > cfg.delta_move
    b_moves = move_b > cfg.delta_move
    # hysteresis: "held still" sits clearly below the moving threshold, so a
    # pair ramping up together never reads as one-moving during the onset
    a_still = move_a < 0.75 * cfg.delta_move
    b_still = move_b < 0.75 * cfg.delta_move

    if in_contact:
        if a_moves and b_moves and abs(drift) < cfg.delta_rel:
            return DsrLabel.Mt
        if (a_moves and b_still) or (b_moves and a_still):
            return DsrLabel.Fmt
        if not a_moves and not b_moves:
            return DsrLabel.Ht
    if drift < -cfg.delta_rel * w:
        return DsrLabel.Gc
    if drift > cfg.delta_rel * w:
        return DsrLabel.Ma
    return DsrLabel.S
