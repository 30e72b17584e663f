"""Tests for greedy decoding, beam search, and UNK replacement.

The synthetic session below is a first-order Markov table: the next-token
distribution depends only on the previous token, which makes exhaustive
enumeration of all output sequences trivial.  The hand-built table where
greedy is suboptimal was scored by hand before implementation:

  start: P(4)=0.5, P(0)=0.45; from 4: P(1)=0.35, P(end)=0.30;
  from 0: P(end)=0.9; from 1: P(end)=0.9.
  greedy path [4, 1] has probability 0.5*0.35*0.9 = 0.1575, while [0]
  scores 0.45*0.9 = 0.405 -- found by beam 2 and by enumeration.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from nsesimp import search
from nsesimp.data import BOS_ID, EOS_ID, UNK_ID, build_vocab
from nsesimp.errors import ConfigError, UsageError
from nsesimp.model import DecodeSession, build_model
from nsesimp.search import Hypothesis, beam_decode, greedy_decode, replace_unks


class MarkovSession:
    """Synthetic decode session backed by a [V, V] transition table."""

    def __init__(self, probs: np.ndarray):
        self.log_probs = np.log(probs)
        self.V = probs.shape[0]

    def start(self):
        return BOS_ID

    def step(self, state):
        return self.log_probs[state], np.array([1.0]), state

    def advance(self, core, token):
        return token


def random_markov(rng, V=5, eos_floor=0.05):
    """Random stochastic matrix with a minimum end-of-sentence mass."""
    probs = rng.dirichlet(np.ones(V), size=V)
    probs[:, EOS_ID] += eos_floor
    return probs / probs.sum(axis=1, keepdims=True)


def enumerate_best(session, max_len):
    """Exhaustive search mirroring beam semantics: finished sequences
    preferred, unfinished only count at exactly max_len steps."""
    best_fin = None
    best_unfin = None

    def consider(slot, cand):
        return cand if slot is None or cand[0] > slot[0] else slot

    def rec(state, tokens, score, steps):
        nonlocal best_fin, best_unfin
        if steps == max_len:
            best_unfin = consider(best_unfin, (score, tokens))
            return
        log_probs, _, core = session.step(state)
        for tok in range(len(log_probs)):
            s2 = score + float(log_probs[tok])
            if tok == EOS_ID:
                best_fin = consider(best_fin, (s2, tokens))
            else:
                rec(session.advance(core, tok), tokens + (tok,), s2, steps + 1)

    rec(session.start(), (), 0.0, 0)
    return best_fin if best_fin is not None else best_unfin


def suboptimal_greedy_table():
    V = 5
    probs = np.full((V, V), 0.2)
    probs[BOS_ID] = [0.45, 0.04, 0.005, 0.005, 0.5]
    probs[4] = [0.2, 0.35, 0.1, 0.3, 0.05]
    probs[0] = [0.025, 0.025, 0.025, 0.9, 0.025]
    probs[1] = [0.025, 0.025, 0.025, 0.9, 0.025]
    assert np.allclose(probs.sum(axis=1), 1.0)
    return probs


class TestGreedy:
    def test_immediate_eos_on_biased_model(self):
        rng = np.random.default_rng(0)
        model = build_model("lstm", 4, 6, 6, rng)
        for _, t in model.named_params():
            t.data[:] = 0.0
        model.decoder.out_b.data[EOS_ID] = 10.0
        hyp = greedy_decode(DecodeSession(model, [4, 5]), max_len=20)
        assert hyp.tokens == ()
        assert hyp.finished

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        model = build_model("nse", 4, 7, 7, rng)
        a = greedy_decode(DecodeSession(model, [4, 5, 6]), max_len=8)
        b = greedy_decode(DecodeSession(model, [4, 5, 6]), max_len=8)
        assert a.tokens == b.tokens
        assert a.score == b.score

    def test_respects_max_len(self):
        probs = np.full((5, 5), 0.2)
        probs[:, EOS_ID] = 1e-9
        probs /= probs.sum(axis=1, keepdims=True)
        hyp = greedy_decode(MarkovSession(probs), max_len=6)
        assert len(hyp.tokens) == 6
        assert not hyp.finished

    def test_one_alpha_per_content_token(self):
        rng = np.random.default_rng(2)
        model = build_model("lstm", 4, 7, 7, rng)
        hyp = greedy_decode(DecodeSession(model, [4, 5, 6]), max_len=7)
        assert len(hyp.alphas) == len(hyp.tokens)
        for alpha in hyp.alphas:
            assert alpha.shape == (3,)
            assert abs(alpha.sum() - 1.0) < 1e-12

    def test_bad_max_len(self):
        with pytest.raises(ConfigError):
            greedy_decode(MarkovSession(np.full((5, 5), 0.2)), max_len=0)


class TestBeamEqualsGreedyAtOne:
    def test_markov_models(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            session = MarkovSession(random_markov(rng))
            g = greedy_decode(session, max_len=10)
            b = beam_decode(session, beam=1, max_len=10)
            assert g.tokens == b.tokens
            assert g.score == b.score

    def test_real_models(self):
        rng = np.random.default_rng(4)
        for i in range(10):
            kind = "nse" if i % 2 else "lstm"
            model = build_model(kind, 4, 7, 7, rng)
            src = [int(x) for x in rng.integers(4, 7, size=rng.integers(2, 5))]
            session = DecodeSession(model, src)
            g = greedy_decode(session, max_len=8)
            b = beam_decode(session, beam=1, max_len=8)
            assert g.tokens == b.tokens
            assert g.score == b.score


class TestBeamSearch:
    def test_hand_case_greedy_suboptimal(self):
        session = MarkovSession(suboptimal_greedy_table())
        g = greedy_decode(session, max_len=3)
        assert g.tokens == (4, 1)
        b = beam_decode(session, beam=2, max_len=3)
        assert b.tokens == (0,)
        assert b.finished
        npt.assert_allclose(math.exp(b.score), 0.405, rtol=1e-3)
        assert b.score > g.score
        # enumeration agrees the beam-2 answer is globally optimal
        best = enumerate_best(session, max_len=3)
        assert best[1] == (0,)

    def test_exhaustive_optimality_markov(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            V = int(rng.integers(4, 6))
            max_len = int(rng.integers(1, 5))
            session = MarkovSession(random_markov(rng, V=V))
            best_score, best_tokens = enumerate_best(session, max_len)
            hyp = beam_decode(session, beam=V**max_len, max_len=max_len)
            assert hyp.tokens == best_tokens
            npt.assert_allclose(hyp.score, best_score, atol=1e-12)

    def test_exhaustive_optimality_real_model(self):
        rng = np.random.default_rng(6)
        for i in range(4):
            kind = "nse" if i % 2 else "lstm"
            model = build_model(kind, 3, 5, 5, rng)
            session = DecodeSession(model, [4, 0])
            best_score, best_tokens = enumerate_best(session, max_len=3)
            hyp = beam_decode(session, beam=5**3, max_len=3)
            assert hyp.tokens == best_tokens
            npt.assert_allclose(hyp.score, best_score, atol=1e-12)

    def test_score_dominates_greedy(self):
        # dominance is a finished-to-finished comparison, so only sessions
        # where greedy terminates with the end marker are eligible
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 20:
            session = MarkovSession(random_markov(rng, eos_floor=0.3))
            g = greedy_decode(session, max_len=10)
            if not g.finished:
                continue
            checked += 1
            for beam in (2, 5, 10):
                b = beam_decode(session, beam=beam, max_len=10)
                assert b.finished
                assert b.score >= g.score

    def test_beam_monotonicity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            session = MarkovSession(random_markov(rng, eos_floor=0.15))
            scores = [
                beam_decode(session, beam=b, max_len=10).score for b in (1, 2, 3, 5, 10)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))

    def test_eos_never_in_content(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            session = MarkovSession(random_markov(rng))
            hyp = beam_decode(session, beam=4, max_len=6)
            assert EOS_ID not in hyp.tokens
            assert len(hyp.tokens) <= 6

    def test_bad_beam(self):
        session = MarkovSession(np.full((5, 5), 0.2))
        with pytest.raises(ConfigError):
            beam_decode(session, beam=0)

    def test_length_normalized_selection(self):
        # two finished candidates: [0] with logP -2.0 and [4, 1] with
        # logP -2.4; raw selection prefers [0], per-token prefers [4, 1]
        fin_a = Hypothesis((0,), -2.0, None, (np.array([1.0]),), True)
        fin_b = Hypothesis((4, 1), -2.4, None, (np.array([1.0]),) * 2, True)
        raw = max([fin_a, fin_b], key=lambda h: search._selection_key(h, False))
        norm = max([fin_a, fin_b], key=lambda h: search._selection_key(h, True))
        assert raw is fin_a
        assert norm is fin_b


class TestReplaceUnks:
    def make_hyp(self, tokens, alphas, finished=True):
        return Hypothesis(tuple(tokens), -1.0, None, tuple(alphas), finished)

    def vocab(self):
        return build_vocab([["big", "cats", "sleep"]], cap=10)

    def test_unk_takes_argmax_source(self):
        v = self.vocab()
        hyp = self.make_hyp(
            [v.id("big"), UNK_ID],
            [np.array([0.6, 0.3, 0.1]), np.array([0.1, 0.7, 0.2])],
        )
        out = replace_unks(hyp, ["Quixote", "windmill", "tilt"], v)
        assert out == ["big", "windmill"]

    def test_tie_takes_earliest(self):
        v = self.vocab()
        hyp = self.make_hyp([UNK_ID], [np.array([0.5, 0.5])])
        assert replace_unks(hyp, ["first", "second"], v) == ["first"]

    def test_no_unk_passthrough(self):
        v = self.vocab()
        hyp = self.make_hyp(
            [v.id("cats"), v.id("sleep")],
            [np.array([1.0]), np.array([1.0])],
        )
        assert replace_unks(hyp, ["src"], v) == ["cats", "sleep"]

    def test_missing_alignment(self):
        v = self.vocab()
        hyp = self.make_hyp([UNK_ID, UNK_ID], [np.array([1.0])])
        with pytest.raises(UsageError):
            replace_unks(hyp, ["src"], v)

    def test_alignment_width_mismatch(self):
        v = self.vocab()
        hyp = self.make_hyp([UNK_ID], [np.array([0.5, 0.5])])
        with pytest.raises(UsageError):
            replace_unks(hyp, ["only-one-token"], v)

    def test_end_to_end_with_real_model(self):
        rng = np.random.default_rng(10)
        model = build_model("lstm", 4, 8, 8, rng)
        src_ids = [4, 5, 6, 7]
        hyp = greedy_decode(DecodeSession(model, src_ids), max_len=6)
        v = build_vocab([["w1", "w2", "w3", "w4"]], cap=10)
        out = replace_unks(hyp, ["s1", "s2", "s3", "s4"], v)
        assert len(out) == len(hyp.tokens)
