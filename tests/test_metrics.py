"""Tests for corpus BLEU and SARI.

Hand-derived anchors (worked out before the implementation):

* "the the the the the the the" vs the two classic references has clipped
  unigram count 2 (the references contain "the" at most twice), so
  p1 = 2/7 and the unsmoothed score is 0 via the empty 4-gram order.
* "x the cat sat down" vs {"the cat sat down", "y the cat sat"} has
  precisions 4/5, 3/4, 2/3, 1/2 -> geometric mean 0.2^(1/4), brevity 1.
* "a b c d" vs "a b c d e f": all precisions 1, brevity e^(1-6/4).
* SARI on src "the big cat sat" / out "the small cat" / ref "the small
  cat": keep = 1/4, delete = 1, add = 3/4, SARI = 100*(2/3) = 66.66...
"""

import math

import numpy as np
import pytest

import oracles
from nsesimp.errors import UsageError
from nsesimp.metrics import (
    EvalInstance,
    bleu_corpus,
    ngram_profile,
    sari_corpus,
    sari_instance,
)


def inst(output, references, source=None):
    return EvalInstance(
        source=source if source is not None else [],
        output=output,
        references=references,
    )


class TestNgramProfile:
    def test_bigram(self):
        assert ngram_profile(["a", "b"], 2) == {("a", "b"): 1}

    def test_multiplicity(self):
        assert ngram_profile(["a", "a", "a"], 1) == {("a",): 3}

    def test_short_sequence_empty(self):
        assert ngram_profile(["a"], 2) == {}

    def test_bad_order(self):
        with pytest.raises(UsageError):
            ngram_profile(["a"], 0)


class TestBleuCanonical:
    def test_perfect_match_is_100(self):
        instances = [
            inst("the cat sat on the mat".split(), ["the cat sat on the mat".split()]),
            inst("a stitch in time saves nine".split(), ["a stitch in time saves nine".split()]),
        ]
        report = bleu_corpus(instances)
        assert abs(report.score - 100.0) < 1e-9
        assert report.brevity_penalty == 1.0

    def test_clipped_the_case(self):
        report = bleu_corpus(
            [
                inst(
                    "the the the the the the the".split(),
                    ["the cat is on the mat".split(), "there is a cat on the mat".split()],
                )
            ]
        )
        assert abs(report.precisions[0] - 2.0 / 7.0) < 1e-9
        assert report.score == 0.0  # no higher-order matches, no smoothing

    def test_zero_overlap_is_zero(self):
        report = bleu_corpus([inst("w x y z".split(), ["a b c d".split()])])
        assert report.score == 0.0

    def test_mixed_precision_ladder(self):
        report = bleu_corpus(
            [
                inst(
                    "x the cat sat down".split(),
                    ["the cat sat down".split(), "y the cat sat".split()],
                )
            ]
        )
        assert report.precisions == (4 / 5, 3 / 4, 2 / 3, 1 / 2)
        assert report.brevity_penalty == 1.0
        assert abs(report.score - 100.0 * 0.2**0.25) < 1e-9

    def test_brevity_penalty(self):
        report = bleu_corpus([inst("a b c d".split(), ["a b c d e f".split()])])
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)
        assert abs(report.score - 100.0 * math.exp(-0.5)) < 1e-9


class TestBleuBehavior:
    def test_closest_ref_tie_prefers_shorter(self):
        # candidate length 5 sits exactly between references of length 4
        # and 6; choosing 4 gives brevity 1 and a perfect score
        report = bleu_corpus(
            [inst("a b c d e".split(), ["a b c d".split(), "a b c d e f".split()])]
        )
        assert report.reference_length == 4
        assert abs(report.score - 100.0) < 1e-9

    def test_empty_output_scores_zero(self):
        assert bleu_corpus([inst([], [["a"]])]).score == 0.0

    def test_smoothing_lifts_tiny_corpora(self):
        instances = [inst("the cat".split(), ["the cat sat".split()])]
        assert bleu_corpus(instances).score == 0.0  # no 3/4-grams at all
        assert bleu_corpus(instances, smooth=True).score > 0.0

    def test_lowercasing(self):
        a = bleu_corpus([inst("The CAT".split(), ["the cat".split()])]).score
        b = bleu_corpus([inst("the cat".split(), ["the cat".split()])]).score
        assert a == b

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        instances = _random_instances(rng, 12)
        perm = [instances[i] for i in rng.permutation(len(instances))]
        assert bleu_corpus(instances).score == pytest.approx(
            bleu_corpus(perm).score, abs=1e-12
        )

    def test_corpus_pools_counts(self):
        # corpus BLEU pools n-gram counts; it is not a mean of per-sentence
        # scores, so a perfect sentence cannot fully mask a bad one
        good = inst("a b c d e".split(), ["a b c d e".split()])
        bad = inst("v w x y z".split(), ["p q r s t".split()])
        both = bleu_corpus([good, bad])
        assert abs(both.precisions[0] - 0.5) < 1e-12

    def test_empty_instance_list(self):
        with pytest.raises(UsageError):
            bleu_corpus([])

    def test_oracle_agreement_randomized(self):
        rng = np.random.default_rng(1)
        instances = _random_instances(rng, 40)
        mine = bleu_corpus(instances).score
        ref = oracles.bleu_corpus([(i.output, i.references) for i in instances])
        assert abs(mine - ref) < 1e-9
        mine_s = bleu_corpus(instances, smooth=True).score
        ref_s = oracles.bleu_corpus(
            [(i.output, i.references) for i in instances], smooth=True
        )
        assert abs(mine_s - ref_s) < 1e-9


def _random_instances(rng, count, vocab=("a", "b", "c", "d", "e"), with_source=False):
    out = []
    for _ in range(count):
        def sent(lo=1, hi=9):
            return [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(lo, hi))]

        refs = [sent() for _ in range(int(rng.integers(1, 4)))]
        out.append(
            EvalInstance(
                source=sent() if with_source else [],
                output=sent(lo=0),
                references=refs,
            )
        )
    return out


class TestSari:
    def test_hand_case(self):
        report = sari_instance(
            "the big cat sat".split(), "the small cat".split(), ["the small cat".split()]
        )
        assert abs(report.keep - 0.25) < 1e-12
        assert abs(report.delete - 1.0) < 1e-12
        assert abs(report.add - 0.75) < 1e-12
        assert abs(report.score - 100.0 * 2.0 / 3.0) < 1e-9

    def test_identity_keep_is_one(self):
        sent = "the cat sat down".split()  # 4 tokens so every order has grams
        report = sari_instance(sent, sent, [sent])
        assert abs(report.keep - 1.0) < 1e-12
        # nothing was deleted or addable, so those components default to 0
        assert report.delete == 0.0
        assert report.add == 0.0

    def test_undeleted_word_scores_zero_delete(self):
        # output keeps everything but the reference dropped a word: the
        # delete component has no deleted grams to rate and scores 0
        src = "the big cat".split()
        report = sari_instance(src, src, ["the cat".split()])
        assert report.delete == 0.0

    def test_subscores_within_unit_interval(self):
        rng = np.random.default_rng(2)
        for i in _random_instances(rng, 50, with_source=True):
            r = sari_instance(i.source, i.output, i.references)
            for value in (r.add, r.keep, r.delete):
                assert 0.0 <= value <= 1.0
            assert 0.0 <= r.score <= 100.0

    def test_corpus_is_mean_of_instances(self):
        rng = np.random.default_rng(3)
        instances = _random_instances(rng, 10, with_source=True)
        per = [sari_instance(i.source, i.output, i.references).score for i in instances]
        assert sari_corpus(instances).score == pytest.approx(sum(per) / len(per), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        instances = _random_instances(rng, 15, with_source=True)
        perm = [instances[i] for i in rng.permutation(len(instances))]
        assert sari_corpus(instances).score == pytest.approx(
            sari_corpus(perm).score, abs=1e-12
        )

    def test_oracle_agreement_randomized(self):
        rng = np.random.default_rng(5)
        for i in _random_instances(rng, 60, with_source=True):
            mine = sari_instance(i.source, i.output, i.references)
            score, add, keep, delete = oracles.sari_instance(
                i.source, i.output, i.references
            )
            assert abs(mine.score - score) < 1e-9
            assert abs(mine.add - add) < 1e-9
            assert abs(mine.keep - keep) < 1e-9
            assert abs(mine.delete - delete) < 1e-9

    def test_eight_references_accepted(self):
        rng = np.random.default_rng(6)
        refs = [["a", "b", "c"] for _ in range(8)]
        report = sari_instance(["a", "b", "d"], ["a", "b"], refs)
        assert 0.0 <= report.score <= 100.0

    def test_requires_reference(self):
        with pytest.raises(UsageError):
            EvalInstance(source=["a"], output=["b"], references=[])

    def test_empty_instance_list(self):
        with pytest.raises(UsageError):
            sari_corpus([])
