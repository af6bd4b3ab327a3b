"""BLEU-N scoring with clipped modified n-gram precision.

Geometric mean of precisions for n = 1..max_n with the standard brevity
penalty exp(1 - r/c) for candidates shorter than the closest reference.
Smoothing (add-one on the higher-order counts) is off by default so exact
matches score exactly 1.0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class BleuScore:
    max_n: int
    precisions: tuple[float, ...]
    brevity_penalty: float
    score: float
    empty_candidate: bool = False

    def to_record(self) -> dict:
        return {
            "max_n": self.max_n,
            "precisions": list(self.precisions),
            "brevity_penalty": self.brevity_penalty,
            "score": self.score,
            "empty_candidate": self.empty_candidate,
        }


def _tokens(seq) -> list[str]:
    if isinstance(seq, str):
        return seq.split()
    return list(seq)


def _ngrams(tokens, n) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate, references, max_n: int = 4, smoothing: bool = False) -> BleuScore:
    """Score a candidate against one or more references."""
    if not 1 <= max_n <= 4:
        raise ValueError("max_n must be in 1..4")
    refs = [_tokens(r) for r in references]
    if not refs:
        raise ValueError("at least one reference is required")
    cand = _tokens(candidate)
    if not cand:
        return BleuScore(max_n, (0.0,) * max_n, 0.0, 0.0, empty_candidate=True)

    c = len(cand)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)

    precisions = []
    active = []
    for n in range(1, max_n + 1):
        cand_grams = _ngrams(cand, n)
        total = sum(cand_grams.values())
        if total == 0:
            # candidate too short to form n-grams of this order; the order
            # does not participate in the mean
            precisions.append(0.0)
            continue
        clip: Counter = Counter()
        for ref in refs:
            ref_grams = _ngrams(ref, n)
            for gram in cand_grams:
                clip[gram] = max(clip[gram], ref_grams.get(gram, 0))
        matched = sum(min(cnt, clip[gram]) for gram, cnt in cand_grams.items())
        if smoothing and n >= 2:
            precisions.append((matched + 1.0) / (total + 1.0))
        else:
            precisions.append(matched / total)
        active.append(precisions[-1])

    if not active or any(p == 0.0 for p in active):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in active) / len(active))
    return BleuScore(max_n, tuple(precisions), bp, score)
