"""Tests for dot-product attention and the two-layer decoder step.

The bias-only oracle: with every weight matrix zeroed the LSTM states stay
at zero and the logits equal the output bias each step, so a two-step
teacher-forced log-likelihood reduces to log softmax(out_b)[y1] +
log softmax(out_b)[y2], computable by hand.  With out_b = [0, 0, ln 3, 0]
the emission distribution is [1/6, 1/6, 1/2, 1/6].
"""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from nsesimp import autodiff as ad
from nsesimp import decoder, encoders, layers
from nsesimp.autodiff import Tensor
from nsesimp.decoder import (
    DecoderParams,
    DecoderState,
    attend,
    decoder_recurrence,
    decoder_step,
    init_decoder,
)
from nsesimp.errors import DimensionError


def zero_all(params):
    for _, t in params.named_params():
        t.data[:] = 0.0


def make_encoder_output(rng, T=3, H=4):
    states = Tensor(rng.normal(size=(T, H)))
    return encoders.EncoderOutput(
        states=states,
        final_h=Tensor(rng.normal(size=(1, H))),
        final_c=Tensor(rng.normal(size=(1, H))),
    )


def log_prob(logits, token):
    """log softmax(logits)[token] of a one-row logit matrix, as a scalar."""
    return oracles.sum_all(oracles.gather_rows(ad.log_softmax_rows(logits), [token]))


class TestAttend:
    def test_single_row(self):
        rng = np.random.default_rng(0)
        states = Tensor(rng.normal(size=(1, 4)))
        alpha, context = attend(Tensor(rng.normal(size=(1, 4))), states)
        npt.assert_allclose(alpha.data, [[1.0]])
        npt.assert_allclose(context.data, states.data, atol=1e-12)

    def test_zero_query_uniform(self):
        rng = np.random.default_rng(1)
        states = Tensor(rng.normal(size=(5, 3)))
        alpha, context = attend(Tensor(np.zeros((1, 3))), states)
        npt.assert_allclose(alpha.data, 0.2)
        npt.assert_allclose(context.data[0], states.data.mean(axis=0), atol=1e-12)

    def test_scaled_basis_sharp_attention(self):
        states = Tensor(np.eye(2) * 10.0)
        alpha, context = attend(Tensor([[1.0, 0.0]]), states)
        npt.assert_allclose(alpha.data, [[1.0, 0.0]], atol=1e-4)
        npt.assert_allclose(context.data, [[10.0, 0.0]], atol=1e-3)

    def test_permutation_covariance(self):
        rng = np.random.default_rng(2)
        states = rng.normal(size=(6, 4))
        query = Tensor(rng.normal(size=(1, 4)))
        perm = rng.permutation(6)
        a1, c1 = attend(query, Tensor(states))
        a2, c2 = attend(query, Tensor(states[perm]))
        npt.assert_allclose(a1.data[:, perm], a2.data, atol=1e-14)
        npt.assert_allclose(c1.data, c2.data, atol=1e-13)

    def test_positive_weights(self):
        rng = np.random.default_rng(3)
        alpha, _ = attend(Tensor(rng.normal(size=(1, 4))), Tensor(rng.normal(size=(7, 4)) * 5))
        assert np.all(alpha.data > 0)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            attend(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))))
        with pytest.raises(DimensionError):
            attend(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_vectors_are_rejected(self):
        with pytest.raises(DimensionError):
            attend(Tensor(np.zeros(4)), Tensor(np.zeros((2, 4))))

    def test_query_rows_attend_independently(self):
        rng = np.random.default_rng(12)
        states = Tensor(rng.normal(size=(5, 4)))
        queries = rng.normal(size=(3, 4))
        alpha, context = attend(Tensor(queries), states)
        assert alpha.shape == (3, 5) and context.shape == (3, 4)
        for r in range(3):
            a, c = attend(Tensor(queries[r : r + 1]), states)
            npt.assert_allclose(alpha.data[r : r + 1], a.data, rtol=1e-12, atol=1e-15)
            npt.assert_allclose(context.data[r : r + 1], c.data, rtol=1e-12, atol=1e-15)


class TestInitDecoder:
    def test_shapes_and_bos(self):
        rng = np.random.default_rng(4)
        p = DecoderParams.create(3, 4, 5, rng)
        state = init_decoder(p, make_encoder_output(rng, H=4))
        assert state.h1.shape == (1, 4)
        assert state.c2.shape == (1, 4)
        assert state.prev_token.tolist() == [decoder.BOS_ID]

    def test_zero_map_zero_state(self):
        rng = np.random.default_rng(5)
        p = DecoderParams.create(3, 4, 5, rng)
        p.init_h.data[:] = 0.0
        p.init_c.data[:] = 0.0
        state = init_decoder(p, make_encoder_output(rng, H=4))
        npt.assert_allclose(state.h1.data, 0.0, atol=1e-15)
        npt.assert_allclose(state.c1.data, 0.0, atol=1e-15)

    def test_gradient_reaches_init_map(self):
        rng = np.random.default_rng(6)
        p = DecoderParams.create(3, 4, 5, rng)
        enc = make_encoder_output(rng, T=3, H=4)
        emb = Tensor(rng.normal(size=(1, 3)))

        def f():
            state = init_decoder(p, enc)
            _, _, logits = decoder_step(p, state, emb, enc.states)
            return log_prob(logits, 1)

        report = oracles.grad_check(f, [p.init_h, p.init_c], names=["init_h", "init_c"])
        assert report.ok, report.failures
        assert report.max_error < 1e-4


class TestDecoderStep:
    def test_logit_shape_and_softmax(self):
        rng = np.random.default_rng(7)
        p = DecoderParams.create(3, 4, 6, rng)
        enc = make_encoder_output(rng, H=4)
        state = init_decoder(p, enc)
        _, alpha, logits = decoder_step(p, state, Tensor(rng.normal(size=(1, 3))), enc.states)
        assert logits.shape == (1, 6)
        assert abs(ad.softmax_rows(logits).data.sum() - 1.0) < 1e-12
        assert abs(alpha.data.sum() - 1.0) < 1e-12

    def test_bias_only_two_step_likelihood(self):
        rng = np.random.default_rng(8)
        p = DecoderParams.create(3, 4, 4, rng)
        zero_all(p)
        p.out_b.data[:] = [0.0, 0.0, math.log(3.0), 0.0]
        enc = make_encoder_output(rng, T=2, H=4)
        emb_table = layers.EmbeddingTable.create(4, 3, rng)

        total = 0.0
        state = init_decoder(p, enc)
        for target in (2, 3):
            y = layers.embed(emb_table, state.prev_token)
            state, _, logits = decoder_step(p, state, y, enc.states)
            total += log_prob(logits, target).item()
            state = replace(state, prev_token=np.array([target]))
        expected = math.log(0.5) + math.log(1.0 / 6.0)
        assert abs(total - expected) < 1e-10

    def test_factorization_matches_product(self):
        rng = np.random.default_rng(9)
        p = DecoderParams.create(3, 4, 5, rng)
        enc = make_encoder_output(rng, H=4)
        emb_table = layers.EmbeddingTable.create(5, 3, rng)
        targets = [4, 1, 3]

        log_total = 0.0
        prob_total = 1.0
        state = init_decoder(p, enc)
        for target in targets:
            y = layers.embed(emb_table, state.prev_token)
            state, _, logits = decoder_step(p, state, y, enc.states)
            log_total += log_prob(logits, target).item()
            prob_total *= ad.softmax_rows(logits).data[0, target]
            state = replace(state, prev_token=np.array([target]))
        assert abs(log_total - math.log(prob_total)) < 1e-10

    def test_rate_zero_is_the_identity(self):
        rng = np.random.default_rng(10)
        p = DecoderParams.create(3, 4, 5, rng)
        enc = make_encoder_output(rng, H=4)
        state = init_decoder(p, enc)
        y = Tensor(rng.normal(size=(1, 3)))
        _, _, a = decoder_recurrence(
            p, state, y, enc.states, dropout_rate=0.0, rng=np.random.default_rng(3)
        )
        _, _, b = decoder_recurrence(p, state, y, enc.states)
        npt.assert_array_equal(a.data, b.data)
        _, _, c = decoder_recurrence(
            p, state, y, enc.states, dropout_rate=0.5, rng=np.random.default_rng(3)
        )
        assert not np.array_equal(b.data, c.data)

    def test_full_step_gradients(self):
        rng = np.random.default_rng(11)
        p = DecoderParams.create(3, 3, 4, rng)
        enc = make_encoder_output(rng, T=2, H=3)
        emb = Tensor(rng.normal(size=(1, 3)), requires_grad=True)

        def f():
            state = init_decoder(p, enc)
            state, _, logits = decoder_step(p, state, emb, enc.states)
            first = log_prob(logits, 2)
            state = replace(state, prev_token=np.array([2]))
            _, _, logits2 = decoder_step(p, state, emb, enc.states)
            return oracles.add(first, log_prob(logits2, 0))

        params = [t for _, t in p.named_params()] + [emb]
        names = [n for n, _ in p.named_params()] + ["emb"]
        report = oracles.grad_check(f, params, tol=1e-4, names=names)
        assert report.ok, report.failures

    def test_vectors_are_rejected(self):
        rng = np.random.default_rng(12)
        p = DecoderParams.create(3, 4, 5, rng)
        enc = make_encoder_output(rng, H=4)
        rows = init_decoder(p, enc)
        vectors = DecoderState(
            *(Tensor(t.data[0]) for t in (rows.h1, rows.c1, rows.h2, rows.c2)), rows.prev_token
        )
        for state, y in ((vectors, np.zeros(3)), (rows, np.zeros(3)), (vectors, np.zeros((1, 3)))):
            with pytest.raises(DimensionError):
                decoder_step(p, state, Tensor(y), enc.states)
