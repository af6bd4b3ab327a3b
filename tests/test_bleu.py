import math

import pytest
from hypothesis import given, settings, strategies as st

from manipsem.bleu import bleu

words = st.sampled_from("the cat sat on a mat dog ran fast slow".split())
sentences = st.lists(words, min_size=1, max_size=12)


class TestExamples:
    def test_self_comparison_is_one(self):
        cand = "the left hand wipes the table".split()
        assert bleu(cand, [cand]).score == 1.0

    def test_clipped_precision_hand_example(self):
        got = bleu("the the the the".split(), ["the cat sat".split()], max_n=1)
        assert got.precisions[0] == pytest.approx(0.25, abs=1e-9)

    def test_disjoint_vocabulary_scores_zero(self):
        got = bleu("alpha beta gamma".split(), ["delta epsilon zeta".split()])
        assert got.score == 0.0

    def test_empty_candidate_flagged(self):
        got = bleu([], ["the cat".split()])
        assert got.score == 0.0 and got.empty_candidate

    def test_no_references_rejected(self):
        with pytest.raises(ValueError):
            bleu("a b".split(), [])

    def test_string_inputs_split(self):
        assert bleu("a b c", ["a b c"]).score == 1.0

    def test_brevity_penalty(self):
        got = bleu("the cat".split(), ["the cat sat on the mat".split()], max_n=2)
        assert got.brevity_penalty == pytest.approx(math.exp(1 - 6 / 2))

    def test_smoothing_rescues_short_higher_orders(self):
        cand = "the dog sat".split()
        ref = "the cat sat".split()
        plain = bleu(cand, [ref], max_n=4)
        smooth = bleu(cand, [ref], max_n=4, smoothing=True)
        assert plain.score == 0.0
        assert smooth.score > 0.0

    def test_max_n_bounds(self):
        with pytest.raises(ValueError):
            bleu("a", ["a"], max_n=5)


@settings(max_examples=60, deadline=None)
@given(sentences, st.lists(sentences, min_size=1, max_size=3))
def test_reference_duplication_invariance(cand, refs):
    base = bleu(cand, refs)
    doubled = bleu(cand, refs + [refs[0]])
    assert base.score == pytest.approx(doubled.score, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(sentences)
def test_score_bounded(cand):
    got = bleu(cand, ["the cat sat on a mat".split()])
    assert 0.0 <= got.score <= 1.0
    assert got.score <= max(got.precisions) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5))
def test_matched_extension_never_lowers_unigram_precision_product(k):
    ref = "the cat sat on the mat".split()
    cand = ref[:k]
    shorter = bleu(cand, [ref], max_n=1)
    longer = bleu(ref[:k + 1], [ref], max_n=1)
    assert longer.score >= shorter.score - 1e-12


def test_structured_record_round_trips():
    import json
    got = bleu("a b c", ["a b c"])
    rec = json.loads(json.dumps(got.to_record()))
    assert rec["score"] == 1.0
    assert len(rec["precisions"]) == got.max_n
    assert rec["empty_candidate"] is False
