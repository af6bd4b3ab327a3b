"""Context-free grammar over atomic-action token strings.

The rule set mirrors the twelve production groups of the action grammar:
sentences chain subject + action-phrase units, action phrases expand to a
primitive plus an object phrase, object phrases carry a spatial-relation
phrase, and a merged entity derives as hand followed by the object it
carries.  The declared alternative Hand -> Me is kept in the table for
fidelity but never preferred during tree extraction (taken literally it
is circular with Me -> Hand.O).

Parsing uses an Earley chart (the grammar is ambiguous and left-recursive)
with deterministic extraction over the chart's constituents only:
derivations with fewer interior nodes win, ties break by rule order, and
longer left constituents are preferred, which realizes the leftmost-longest
sentence-phrase grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .relations import SsrLabel

HAND_TERMINALS = frozenset({"Hand_L", "Hand_R"})
PRIMITIVE_TERMINALS = frozenset({"T", "U", "Mt", "Fmt"})
SR_TERMINALS = frozenset(l.value for l in SsrLabel
                         if l.value not in ("In", "Su", "NoRelation"))
RESERVED = HAND_TERMINALS | PRIMITIVE_TERMINALS | SR_TERMINALS | {"Air"}

# Terminal classes referenced by productions; OBJ is open (object ids).
_TERMINAL_CLASSES = ("HAND", "PRIM", "SRTOK", "OBJ", "PLACE")

PRODUCTIONS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("S", ("Sp",)),
    ("S", ("Sp", "Sp")),
    ("Sp", ("Sub", "Ap")),
    ("Sp", ("Sp", "Sub", "Ap")),
    ("Sub", ("Hand",)),
    ("Sub", ("Me",)),
    ("Ap", ("A", "Op")),
    ("Ap", ("Ap", "Op")),
    ("Me", ("Hand", "O")),
    ("Op", ("O", "SRp")),
    ("SRp", ("SR", "P")),
    ("Hand", ("HAND",)),
    ("Hand", ("Me",)),
    ("A", ("PRIM",)),
    ("O", ("OBJ",)),
    ("P", ("PLACE",)),
    ("SR", ("SRTOK",)),
)

START = "S"
NONTERMINALS = frozenset(lhs for lhs, _ in PRODUCTIONS)
_BY_LHS = {lhs: tuple((idx, rhs) for idx, (head, rhs) in enumerate(PRODUCTIONS) if head == lhs)
           for lhs in NONTERMINALS}


def terminal_matches(cls: str, token: str) -> bool:
    if cls == "HAND":
        return token in HAND_TERMINALS
    if cls == "PRIM":
        return token in PRIMITIVE_TERMINALS
    if cls == "SRTOK":
        return token in SR_TERMINALS
    if cls == "OBJ":
        return token not in RESERVED
    if cls == "PLACE":
        return token not in (RESERVED - {"Air"})
    return False


class NoParse(Exception):
    """Token string is not derivable; carries the furthest position reached."""

    def __init__(self, position: int, message: str | None = None):
        self.position = position
        super().__init__(message or f"no parse; furthest progress at token {position}")


@dataclass(frozen=True)
class ParseTree:
    symbol: str
    children: tuple["ParseTree", ...] = ()
    token: str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    def leaves(self) -> list[str]:
        if self.is_leaf:
            return [self.token]
        out = []
        for ch in self.children:
            out.extend(ch.leaves())
        return out

    def render(self, indent: str = "  ") -> str:
        lines: list[str] = []

        def walk(node, level):
            if node.is_leaf:
                lines.append(f"{indent * level}{node.token}")
            else:
                lines.append(f"{indent * level}{node.symbol}")
                for ch in node.children:
                    walk(ch, level + 1)

        walk(self, 0)
        return "\n".join(lines)


def _earley(tokens):
    """Chart of completed constituents plus the furthest scan position."""
    n = len(tokens)
    # item: (rule_idx, dot, origin)
    chart: list[set] = [set() for _ in range(n + 1)]
    order: list[list] = [[] for _ in range(n + 1)]

    def add(pos, item):
        if item not in chart[pos]:
            chart[pos].add(item)
            order[pos].append(item)

    for idx, _ in _BY_LHS[START]:
        add(0, (idx, 0, 0))
    completed: set[tuple[str, int, int]] = set()
    furthest = 0

    for pos in range(n + 1):
        k = 0
        while k < len(order[pos]):
            rule_idx, dot, origin = order[pos][k]
            k += 1
            lhs, rhs = PRODUCTIONS[rule_idx]
            if dot == len(rhs):
                completed.add((lhs, origin, pos))
                # completer
                for item2 in list(order[origin]):
                    r2, d2, o2 = item2
                    lhs2, rhs2 = PRODUCTIONS[r2]
                    if d2 < len(rhs2) and rhs2[d2] == lhs:
                        add(pos, (r2, d2 + 1, o2))
                continue
            nxt = rhs[dot]
            if nxt in NONTERMINALS:
                for idx2, _ in _BY_LHS[nxt]:
                    add(pos, (idx2, 0, pos))
                # handle nullable completion (none in this grammar) omitted
                if (nxt, pos, pos) in completed:
                    add(pos, (rule_idx, dot + 1, origin))
            else:
                if pos < n and terminal_matches(nxt, tokens[pos]):
                    add(pos + 1, (rule_idx, dot + 1, origin))
                    furthest = max(furthest, pos + 1)
    return completed, furthest


def parse(tokens) -> ParseTree:
    """Parse terminal tokens into the canonical derivation tree."""
    tokens = list(tokens)
    n = len(tokens)
    if n == 0:
        raise NoParse(0, "empty token string")
    completed, furthest = _earley(tokens)
    if (START, 0, n) not in completed:
        raise NoParse(furthest)

    @lru_cache(maxsize=None)
    def best(symbol: str, i: int, j: int):
        """(cost, rule_order, tree) for the cheapest derivation, or None."""
        if symbol not in NONTERMINALS:
            if j == i + 1 and terminal_matches(symbol, tokens[i]):
                return (0, 0, ParseTree(symbol, token=tokens[i]))
            return None
        if (symbol, i, j) not in completed:
            return None  # every node of a chart derivation is in the chart
        best_entry = None
        for rank, (_, rhs) in enumerate(_BY_LHS[symbol]):
            seq = _best_sequence(rhs, i, j, best)
            if seq is None:
                continue
            cost = 1 + sum(c for c, _, _ in seq)
            entry = (cost, rank, ParseTree(symbol, tuple(t for _, _, t in seq)))
            if best_entry is None or (entry[0], entry[1]) < (best_entry[0], best_entry[1]):
                best_entry = entry
        return best_entry

    def _best_sequence(rhs, i, j, best_fn):
        """Cheapest child list for an RHS over span [i, j); longest-left splits."""
        if len(rhs) == 1:
            one = best_fn(rhs[0], i, j)
            return None if one is None else [one]
        head, rest = rhs[0], rhs[1:]
        # prefer the longest span for the leftmost child
        for mid in range(j - len(rest), i, -1):
            left = best_fn(head, i, mid)
            if left is None:
                continue
            tail = _best_sequence(rest, mid, j, best_fn)
            if tail is not None:
                return [left] + tail
        return None

    result = best(START, 0, n)
    best.cache_clear()
    if result is None:
        raise NoParse(furthest)
    return result[2]
