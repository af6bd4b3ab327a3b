"""Atomic-action quintuples and their token form.

An atomic action is (subject, primitive, object, spatial relation, place).
Subjects are a bare hand or a merged entity (hand plus the object it has
grasped, acting as one).  Primitives are the four observable contact and
co-motion states.  Object and place slots hold object ids, with the
reserved spellings ``Ground`` (the supporting surface), ``Air`` (no
support), and ``none`` (no object participates, e.g. carrying through the
air).

Token form: each quintuple flattens to terminals for the action grammar;
a merged-entity subject contributes the hand token followed by the carried
object's token.  Object ids map onto the role alphabet O1..O3 in order of
first appearance in a hand's event stream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

from .relations import SsrLabel

GROUND = "Ground"
AIR = "Air"
NO_OBJECT = "none"

HAND_TOKENS = {"left": "Hand_L", "right": "Hand_R"}


class Primitive(str, Enum):
    T = "T"      # touching starts
    U = "U"      # touching ends
    Mt = "Mt"    # moving together
    Fmt = "Fmt"  # moving on a fixed partner

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Subject:
    side: str                  # "left" | "right"
    carried: str | None = None  # object id when acting as a merged entity

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"bad hand side {self.side!r}")

    @property
    def is_merged(self) -> bool:
        return self.carried is not None

    def hand_token(self) -> str:
        return HAND_TOKENS[self.side]


@dataclass(frozen=True)
class AtomicAction:
    subject: Subject
    primitive: Primitive
    object_id: str | None          # object id, GROUND, or None
    relation: SsrLabel
    place: str                     # object id, GROUND, or AIR
    frame_span: tuple[int, int] = (0, 0)
    object_label: str | None = None
    carried_label: str | None = None
    place_label: str | None = None

    def object_token(self) -> str:
        return NO_OBJECT if self.object_id is None else self.object_id

    def __str__(self) -> str:
        sub = self.subject.hand_token()
        if self.subject.is_merged:
            sub = f"Me({sub}+{self.subject.carried})"
        return (f"({sub}, {self.primitive}, {self.object_token()}, "
                f"{self.relation}, {self.place})")


@dataclass(frozen=True)
class Snippet:
    """One hand's activity between first contact and becoming free again."""

    hand: str
    frame_span: tuple[int, int]
    actions: tuple[AtomicAction, ...]

    @property
    def idle(self) -> bool:
        return not self.actions


# Relations whose grammar spelling differs: snug containment aliases back to
# the plain containment tokens the rule set enumerates.
_SR_ALIASES = {SsrLabel.In: SsrLabel.Wi, SsrLabel.Su: SsrLabel.Co}


def relation_token(rel: SsrLabel) -> str:
    return _SR_ALIASES.get(rel, rel).value


@dataclass
class RoleMap:
    """Stable object-id -> O1..O3 assignment in order of first event use."""

    assigned: dict[str, str] = field(default_factory=dict)
    overflow: bool = False

    def token_for(self, object_id: str | None) -> str:
        if object_id is None:
            return NO_OBJECT
        if object_id in (GROUND, AIR):
            return object_id
        tok = self.assigned.get(object_id)
        if tok is None:
            if len(self.assigned) >= 3:
                # more distinct objects than the role alphabet carries
                if not self.overflow:
                    warnings.warn("more than three objects changed relations; reusing O3",
                                  stacklevel=3)
                    self.overflow = True
                tok = "O3"
            else:
                tok = f"O{len(self.assigned) + 1}"
            self.assigned[object_id] = tok
        return tok


def action_tokens(actions, role_map: RoleMap | None = None) -> list[str]:
    """Flatten a quintuple sequence into grammar terminals."""
    rm = role_map if role_map is not None else RoleMap()
    out: list[str] = []
    for aa in actions:
        out.append(aa.subject.hand_token())
        if aa.subject.is_merged:
            out.append(rm.token_for(aa.subject.carried))
        out.append(aa.primitive.value)
        out.append(rm.token_for(aa.object_id))
        out.append(relation_token(aa.relation))
        out.append(rm.token_for(aa.place) if aa.place not in (GROUND, AIR) else aa.place)
    return out
