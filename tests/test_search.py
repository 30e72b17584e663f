"""Tests for greedy decoding, beam search, and UNK replacement.

The synthetic session below is a first-order Markov table: the next-token
distribution depends only on the previous token, which makes exhaustive
enumeration of all output sequences trivial.  The hand-built table where
greedy is suboptimal was scored by hand before implementation:

  start: P(4)=0.5, P(5)=0.45; from 4: P(1)=0.35, P(end)=0.30;
  from 5: P(end)=0.9; from 1: P(end)=0.9.
  greedy path [4, 1] has probability 0.5*0.35*0.9 = 0.1575, while [5]
  scores 0.45*0.9 = 0.405 -- found by beam 2 and by enumeration.

Padding and the begin marker are never proposed, so enumeration skips them.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from nsesimp import autodiff as ad
from nsesimp import search
from nsesimp.data import BOS_ID, EOS_ID, PAD_ID, UNK_ID, build_vocab
from nsesimp.decoder import decoder_step, init_decoder
from nsesimp.errors import ConfigError, UsageError
from nsesimp.model import ENCODER_KINDS, DecodeSession, build_model, encode
from nsesimp.search import Hypothesis, beam_decode, greedy_decode, replace_unks


class MarkovSession:
    """Synthetic decode session backed by a [V, V] transition table.

    A state is the array of each hypothesis's last token.
    """

    def __init__(self, probs: np.ndarray):
        self.log_probs = np.log(probs)
        self.V = probs.shape[0]

    def start(self):
        return np.array([BOS_ID])

    def step(self, state):
        return self.log_probs[state], np.ones((len(state), 1)), state

    def advance(self, core, rows, tokens):
        return np.asarray(tokens)


class PrefixSession(MarkovSession):
    """A Markov table whose state is each hypothesis's whole prefix.

    ``stepped`` records every prefix passed to ``step``, in order, so two
    searches can be compared beam by beam.
    """

    def __init__(self, probs: np.ndarray):
        super().__init__(probs)
        self.stepped = []

    def start(self):
        return [(BOS_ID,)]

    def step(self, state):
        self.stepped.extend(state)
        last = [prefix[-1] for prefix in state]
        return self.log_probs[last], np.ones((len(state), 1)), state

    def advance(self, core, rows, tokens):
        return [core[r] + (token,) for r, token in zip(rows, tokens)]


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
        for tok in range(log_probs.shape[1]):
            if tok in (PAD_ID, BOS_ID):
                continue
            s2 = score + float(log_probs[0, tok])
            if tok == EOS_ID:
                best_fin = consider(best_fin, (s2, tokens))
            else:
                rec(session.advance(core, [0], [tok]), tokens + (tok,), s2, steps + 1)

    rec(session.start(), (), 0.0, 0)
    return best_fin if best_fin is not None else best_unfin


def suboptimal_greedy_table():
    V = 6
    probs = np.full((V, V), 1.0 / V)
    probs[BOS_ID] = [0.002, 0.04, 0.003, 0.005, 0.5, 0.45]
    probs[4] = [0.02, 0.35, 0.08, 0.3, 0.05, 0.2]
    probs[5] = [0.02, 0.02, 0.02, 0.9, 0.02, 0.02]
    probs[1] = [0.02, 0.02, 0.02, 0.9, 0.02, 0.02]
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
        assert b.tokens == (5,)
        assert b.finished
        npt.assert_allclose(math.exp(b.score), 0.405, rtol=1e-3)
        assert b.score > g.score
        # enumeration agrees the beam-2 answer is globally optimal
        best = enumerate_best(session, max_len=3)
        assert best[1] == (5,)

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
        # two finished candidates: [5] with logP -2.0 and [4, 1] with
        # logP -2.4; raw selection prefers [5], per-token prefers [4, 1]
        fin_a = Hypothesis((5,), -2.0, (np.array([1.0]),), True)
        fin_b = Hypothesis((4, 1), -2.4, (np.array([1.0]),) * 2, True)
        raw = max([fin_a, fin_b], key=lambda h: search._selection_key(h, False))
        norm = max([fin_a, fin_b], key=lambda h: search._selection_key(h, True))
        assert raw is fin_a
        assert norm is fin_b


def one_row_greedy(model, src, max_len):
    """Greedy decoding as a plain loop over the one-row decoder step.

    Each step takes the argmax over every id but padding and the begin marker.
    """
    enc = encode(model, src)
    state = init_decoder(model.decoder, enc)
    token, tokens, alphas, score = BOS_ID, [], [], 0.0
    for _ in range(max_len):
        y = ad.take_rows(model.tgt_embed.E, [token])
        state, alpha, logits = decoder_step(model.decoder, state, y, enc.states)
        log_probs = ad.log_softmax_rows(logits).data[0]
        proposable = log_probs.copy()
        proposable[[PAD_ID, BOS_ID]] = -np.inf
        token = int(np.argmax(proposable))
        score = score + float(log_probs[token])
        if token == EOS_ID:
            return tuple(tokens), score, alphas, True
        tokens.append(token)
        alphas.append(alpha.data[0])
    return tuple(tokens), score, alphas, False


def random_session(seed, eos_shift=0.0):
    """A random model of either encoder kind over a short random source."""
    rng = np.random.default_rng(seed)
    kind = ENCODER_KINDS[seed % 2]
    vocab = int(rng.integers(7, 13))
    model = build_model(kind, int(rng.integers(3, 7)), vocab, vocab, rng)
    model.decoder.out_b.data[EOS_ID] += eos_shift
    src = [int(t) for t in rng.integers(4, vocab, size=int(rng.integers(2, 6)))]
    return model, src


class TestBatchedSearch:
    """The batched search against one-hypothesis-at-a-time references."""

    def test_greedy_is_bitwise_a_one_row_decoder_loop(self):
        for seed in range(12):
            model, src = random_session(700 + seed)
            hyp = greedy_decode(DecodeSession(model, src), max_len=9)
            tokens, score, alphas, finished = one_row_greedy(model, src, 9)
            assert hyp.tokens == tokens
            assert hyp.score == score
            assert hyp.finished == finished
            for got, want in zip(hyp.alphas, alphas):
                assert np.array_equal(got, want)

    def test_matches_per_hypothesis_oracle_on_real_models(self):
        outcomes = set()
        for seed in range(24):
            # every third model rarely ends, so the live pool is selected too
            model, src = random_session(600 + seed, eos_shift=-4.0 if seed % 3 == 0 else 0.0)
            session = DecodeSession(model, src)
            for beam in (2, 3, 5, 10):
                for length_normalize in (False, True):
                    tokens, score, alphas, finished = oracles.beam_search(
                        session, beam, 8, length_normalize, EOS_ID
                    )
                    hyp = beam_decode(session, beam, 8, length_normalize)
                    assert hyp.tokens == tokens
                    assert hyp.finished == finished
                    assert abs(hyp.score - score) <= 1e-12 * abs(score)
                    assert len(hyp.alphas) == len(alphas)
                    for got, want in zip(hyp.alphas, alphas):
                        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
                    outcomes.add(finished)
        assert outcomes == {True, False}

    def test_session_is_reusable(self):
        model, src = random_session(5)
        session = DecodeSession(model, src)
        first = [beam_decode(session, b, 6) for b in (1, 3, 5)]
        again = [beam_decode(session, b, 6) for b in (1, 3, 5)]
        assert [(h.tokens, h.score) for h in first] == [(h.tokens, h.score) for h in again]


def tie_at_the_cut_row():
    """Ids 7, 4 and 9 lead; ids 1, 5 and 8 tie at the 4th best value."""
    row = np.full(12, -9.0)
    row[[7, 4, 9]] = [-1.0, -2.0, -3.0]
    row[[1, 5, 8]] = -4.0
    return row


def stable_order(table):
    """Each row's ids by a stable argsort of the negated row, reserved ids left out."""
    order = np.argsort(-table, axis=1, kind="stable")
    return np.array([[t for t in row if t not in (PAD_ID, BOS_ID)] for row in order])


class TestTies:
    """Ties at the k-th best value must resolve to the lowest ids."""

    def test_best_tokens_equal_a_stable_argsort(self):
        row = tie_at_the_cut_row()
        tables = [
            np.zeros((4, 12)),  # every id ties
            np.stack([row, row[::-1]]),
            np.round(np.random.default_rng(11).normal(size=(5, 12))),  # many ties
        ]
        for table in tables:
            want = stable_order(table)
            for n in range(1, table.shape[1] - 1):
                npt.assert_array_equal(search._best_tokens(table, n), want[:, :n])

    def test_ties_at_the_cut_keep_the_lowest_ids(self):
        npt.assert_array_equal(search._best_tokens(np.zeros((2, 12)), 3), [[1, 3, 4]] * 2)
        row = tie_at_the_cut_row()[None, :]
        npt.assert_array_equal(search._best_tokens(row, 4), [[7, 4, 9, 1]])
        npt.assert_array_equal(search._best_tokens(row, 5), [[7, 4, 9, 1, 5]])

    def test_beams_follow_the_oracle_on_tied_tables(self):
        rng = np.random.default_rng(12)
        V = 7
        tables = [np.full((V, V), 1.0 / V)]
        for _ in range(8):
            weights = rng.integers(1, 4, size=(V, V)).astype(float)
            tables.append(weights / weights.sum(axis=1, keepdims=True))
        for probs in tables:
            for beam in (1, 2, 3, 5):
                for length_normalize in (False, True):
                    batched, single = PrefixSession(probs), PrefixSession(probs)
                    hyp = beam_decode(batched, beam, 5, length_normalize)
                    tokens, score, _, finished = oracles.beam_search(
                        single, beam, 5, length_normalize, EOS_ID
                    )
                    assert batched.stepped == single.stepped
                    assert (hyp.tokens, hyp.score, hyp.finished) == (tokens, score, finished)


def reserved_heavy_table():
    """Padding and the begin marker lead every row, and they are never proposed.

    Among the other ids, greedy takes 4 from the start, then 1, then ends.
    """
    V = 5
    probs = np.full((V, V), 1.0 / V)
    probs[BOS_ID] = [0.6, 0.01, 0.3, 0.04, 0.05]
    probs[4] = [0.5, 0.05, 0.4, 0.04, 0.01]
    probs[1] = [0.5, 0.01, 0.3, 0.15, 0.04]
    return probs


class RecordingSession(PrefixSession):
    """Keeps each table it hands out, with a copy, to show that none is written."""

    def __init__(self, probs: np.ndarray):
        super().__init__(probs)
        self.handed = []

    def step(self, state):
        log_probs, alpha, core = super().step(state)
        self.handed.append((log_probs, log_probs.copy()))
        return log_probs, alpha, core


class TestReservedIds:
    """Padding and the begin marker are never proposed, even as a row's best."""

    def test_greedy_and_beams_skip_the_best_entries_when_reserved(self):
        probs = reserved_heavy_table()
        for beam in (1, 2, 3):
            session = RecordingSession(probs)
            hyp = beam_decode(session, beam, 4)
            assert all(not {PAD_ID, BOS_ID} & set(prefix[1:]) for prefix in session.stepped)
            assert not {PAD_ID, BOS_ID} & set(hyp.tokens)
            assert all(np.array_equal(table, copy) for table, copy in session.handed)
            tokens, score, _, finished = oracles.beam_search(
                PrefixSession(probs), beam, 4, False, EOS_ID
            )
            assert (hyp.tokens, hyp.score, hyp.finished) == (tokens, score, finished)
        assert greedy_decode(MarkovSession(probs), 4).tokens == (4, 1)

    def test_a_model_biased_to_reserved_ids_never_emits_them(self):
        model, src = random_session(41)
        model.decoder.out_b.data[[PAD_ID, BOS_ID]] += 20.0
        session = DecodeSession(model, src)
        for beam in (1, 3):
            assert not {PAD_ID, BOS_ID} & set(beam_decode(session, beam, 6).tokens)


class TestReplaceUnks:
    def make_hyp(self, tokens, alphas, finished=True):
        return Hypothesis(tuple(tokens), -1.0, tuple(alphas), finished)

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
