"""Canonical tree extraction bounded by the Earley chart, against the
unbounded extraction it replaced, which tried every split of every span."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from manipsem import library
from manipsem.grammar import (
    NONTERMINALS,
    PRODUCTIONS,
    RESERVED,
    START,
    NoParse,
    ParseTree,
    _earley,
    parse,
    terminal_matches,
)


def oracle_parse(tokens) -> ParseTree:
    """``grammar.parse`` as it was before extraction consulted the chart:
    the chart decides only whether the whole string derives."""
    tokens = list(tokens)
    n = len(tokens)
    if n == 0:
        raise NoParse(0, "empty token string")
    completed, furthest = _earley(tokens)
    if (START, 0, n) not in completed:
        raise NoParse(furthest)

    by_lhs: dict[str, list[tuple[int, tuple[str, ...]]]] = {}
    for idx, (lhs, rhs) in enumerate(PRODUCTIONS):
        by_lhs.setdefault(lhs, []).append((idx, rhs))

    @lru_cache(maxsize=None)
    def best(symbol: str, i: int, j: int):
        if symbol not in NONTERMINALS:
            if j == i + 1 and terminal_matches(symbol, tokens[i]):
                return (0, 0, ParseTree(symbol, token=tokens[i]))
            return None
        best_entry = None
        for rank, (idx, rhs) in enumerate(by_lhs[symbol]):
            seq = _best_sequence(rhs, i, j, best)
            if seq is None:
                continue
            cost = 1 + sum(c for c, _, _ in seq)
            entry = (cost, rank, ParseTree(symbol, tuple(t for _, _, t in seq)))
            if best_entry is None or (entry[0], entry[1]) < (best_entry[0], best_entry[1]):
                best_entry = entry
        return best_entry

    def _best_sequence(rhs, i, j, best_fn):
        if len(rhs) == 1:
            one = best_fn(rhs[0], i, j)
            return None if one is None else [one]
        head, rest = rhs[0], rhs[1:]
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


def library_token_strings() -> list[list[str]]:
    """The token strings the packaged library's validation parses."""
    seen: list[list[str]] = []
    real = library.parse
    text = library.importlib.resources.files("manipsem").joinpath(
        "data/action_library.txt").read_text("utf-8")
    library.parse = lambda tokens: seen.append(list(tokens))
    try:
        library.parse_library_text(text)
    finally:
        library.parse = real
    return seen


LIBRARY_STRINGS = library_token_strings()
VOCABULARY = sorted(RESERVED) + ["obj1", "obj2", "obj3", "Ground"]
# the unbounded oracle recurses once per split it tries and exceeds the
# interpreter's recursion limit from about 175 tokens
MAX_CONCAT = 120

entries = st.sampled_from(LIBRARY_STRINGS)


@st.composite
def concatenations(draw):
    tokens: list[str] = []
    for _ in range(draw(st.integers(2, 3))):
        fits = [s for s in LIBRARY_STRINGS if len(tokens) + len(s) <= MAX_CONCAT]
        if not fits:
            break
        tokens += draw(st.sampled_from(fits))
    return tokens


@st.composite
def edited(draw, base):
    tokens = list(draw(base))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("substitute", "delete", "insert")))
        if kind == "insert":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(VOCABULARY)))
        elif len(tokens) > 1:
            at = draw(st.integers(0, len(tokens) - 1))
            if kind == "delete":
                del tokens[at]
            else:
                tokens[at] = draw(st.sampled_from(VOCABULARY))
    return tokens


token_strings = st.one_of(entries, concatenations(), edited(entries), edited(concatenations()))


def test_library_strings_are_collected():
    assert len(LIBRARY_STRINGS) == 13
    assert all(oracle_parse(toks).leaves() == toks for toks in LIBRARY_STRINGS)


@settings(max_examples=400, deadline=None)
@given(token_strings)
def test_pruned_parse_matches_unbounded_extraction(tokens):
    try:
        expected = oracle_parse(tokens)
    except NoParse as exc:
        with pytest.raises(NoParse) as got:
            parse(tokens)
        assert got.value.position == exc.position
        return
    tree = parse(tokens)
    assert tree.render() == expected.render()
    assert tree.leaves() == expected.leaves() == tokens


def test_long_concatenation_parses():
    """Three copies of the longest entry (246 tokens): the unbounded
    extraction raised RecursionError here."""
    tokens = max(LIBRARY_STRINGS, key=len) * 3
    assert parse(tokens).leaves() == tokens
