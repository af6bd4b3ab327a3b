"""Quantities only the tests compute: the valid atomic-action space and the
derived counts of a triangulated hull surface."""

import numpy as np

from manipsem.actions import AIR, GROUND, NO_OBJECT
from manipsem.relations import SsrLabel

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
