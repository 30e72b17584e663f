"""Tests for the LSTM and memory-augmented encoders.

The memory-update algebra has exact anchors: a one-hot attention row
replaces exactly one memory slot with the written vector; a uniform row
(forced by a zero read state) retrieves the column mean; every updated
coordinate is a convex blend of the old slot value and the written value.
"""

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from nsesimp import encoders
from nsesimp.autodiff import Tensor
from nsesimp.errors import DimensionError, UsageError


def make_embeddings(rng, T=4, D=3):
    return Tensor(rng.normal(size=(T, D)))


class TestLstmEncoder:
    def test_single_token_shape(self):
        rng = np.random.default_rng(0)
        p = encoders.LstmEncoderParams.create(3, rng)
        out = encoders.lstm_encode(p, make_embeddings(rng, T=1))
        assert out.states.shape == (1, 3)
        assert out.final_h.shape == (1, 3)
        assert out.final_c.shape == (1, 3)

    def test_zero_params_zero_states(self):
        rng = np.random.default_rng(1)
        p = encoders.LstmEncoderParams.create(3, rng, forget_bias=0.0)
        for _, t in p.named_params():
            t.data[:] = 0.0
        out = encoders.lstm_encode(p, make_embeddings(rng))
        npt.assert_allclose(out.states.data, 0.0, atol=1e-15)

    def test_order_sensitivity(self):
        rng = np.random.default_rng(2)
        p = encoders.LstmEncoderParams.create(3, rng)
        emb = make_embeddings(rng)
        fwd = encoders.lstm_encode(p, emb).states.data
        rev = encoders.lstm_encode(p, Tensor(emb.data[::-1])).states.data
        assert not np.allclose(fwd[-1], rev[-1])

    def test_empty_input(self):
        p = encoders.LstmEncoderParams.create(3, np.random.default_rng(0))
        with pytest.raises(UsageError):
            encoders.lstm_encode(p, Tensor(np.zeros((0, 3))))
        with pytest.raises(DimensionError):
            encoders.lstm_encode(p, Tensor(np.zeros(3)))

    def test_final_state_is_last_row(self):
        rng = np.random.default_rng(3)
        p = encoders.LstmEncoderParams.create(3, rng)
        out = encoders.lstm_encode(p, make_embeddings(rng))
        npt.assert_array_equal(out.states.data[-1:], out.final_h.data)

    def test_rate_zero_is_the_identity(self):
        rng = np.random.default_rng(4)
        p = encoders.LstmEncoderParams.create(3, rng)
        emb = make_embeddings(rng)
        a = encoders.lstm_encode(
            p, emb, dropout_rate=0.0, rng=np.random.default_rng(9)
        ).states.data
        b = encoders.lstm_encode(p, emb).states.data
        npt.assert_array_equal(a, b)
        c = encoders.lstm_encode(
            p, emb, dropout_rate=0.5, rng=np.random.default_rng(9)
        ).states.data
        assert not np.array_equal(b, c)


class TestMemoryAlgebra:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        memory = Tensor(rng.normal(size=(6, 4)))
        read_h = Tensor(rng.normal(size=(1, 4)))
        weights, _ = encoders.memory_retrieve(read_h, memory)
        assert abs(weights.data.sum() - 1.0) <= 1e-12
        assert np.all(weights.data > 0)

    def test_zero_read_state_gives_column_mean(self):
        rng = np.random.default_rng(6)
        memory = Tensor(rng.normal(size=(5, 3)))
        weights, summary = encoders.memory_retrieve(Tensor(np.zeros((1, 3))), memory)
        npt.assert_allclose(weights.data, 0.2)
        npt.assert_allclose(summary.data[0], memory.data.mean(axis=0), atol=1e-12)

    def test_single_slot_retrieves_itself(self):
        rng = np.random.default_rng(7)
        memory = Tensor(rng.normal(size=(1, 4)))
        read_h = Tensor(rng.normal(size=(1, 4)))
        weights, summary = encoders.memory_retrieve(read_h, memory)
        npt.assert_allclose(weights.data, [[1.0]])
        npt.assert_allclose(summary.data, memory.data, atol=1e-12)

    def test_one_hot_update_replaces_single_row(self):
        rng = np.random.default_rng(8)
        memory = Tensor(rng.normal(size=(4, 3)))
        written = Tensor(rng.normal(size=(1, 3)))
        onehot = np.zeros((1, 4))
        onehot[0, 2] = 1.0
        updated = encoders.memory_update(memory, Tensor(onehot), written).data
        npt.assert_allclose(updated[2], written.data[0], atol=1e-15)
        for i in (0, 1, 3):
            npt.assert_array_equal(updated[i], memory.data[i])

    def test_update_is_convex_per_coordinate(self):
        rng = np.random.default_rng(9)
        memory = Tensor(rng.normal(size=(5, 4)))
        written = Tensor(rng.normal(size=(1, 4)))
        w = rng.random((1, 5))
        updated = encoders.memory_update(memory, Tensor(w), written).data
        lo = np.minimum(memory.data, written.data)
        hi = np.maximum(memory.data, written.data)
        assert np.all(updated >= lo - 1e-12)
        assert np.all(updated <= hi + 1e-12)

    def test_dimension_errors(self):
        memory = Tensor(np.zeros((4, 3)))
        with pytest.raises(DimensionError):
            encoders.memory_retrieve(Tensor(np.zeros((1, 4))), memory)
        with pytest.raises(DimensionError):
            encoders.memory_update(memory, Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))
        with pytest.raises(DimensionError):
            encoders.memory_update(memory, Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))))

    def test_vectors_are_rejected(self):
        memory = Tensor(np.zeros((4, 3)))
        with pytest.raises(DimensionError):
            encoders.memory_retrieve(Tensor(np.zeros(3)), memory)
        with pytest.raises(DimensionError):
            encoders.memory_update(memory, Tensor(np.zeros(4)), Tensor(np.zeros(3)))


class TestNseEncoder:
    def test_initial_memory_is_embeddings(self):
        rng = np.random.default_rng(10)
        emb = make_embeddings(rng)
        state = encoders.nse_initial_state(emb, 3)
        assert state.memory is emb

    def test_output_shapes(self):
        rng = np.random.default_rng(11)
        p = encoders.NseEncoderParams.create(3, rng)
        out = encoders.nse_encode(p, make_embeddings(rng, T=5, D=3))
        assert out.states.shape == (5, 3)
        assert out.final_h.shape == (1, 3)

    def test_trace_collection(self):
        rng = np.random.default_rng(12)
        p = encoders.NseEncoderParams.create(3, rng)
        emb = make_embeddings(rng, T=4, D=3)
        traced = encoders.nse_encode(p, emb)
        assert len(traced.slot_weights) == 4
        for w in traced.slot_weights:
            assert w.shape == (1, 4)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_determinism_without_dropout(self):
        rng = np.random.default_rng(13)
        p = encoders.NseEncoderParams.create(3, rng)
        emb = make_embeddings(rng)
        a = encoders.nse_encode(p, emb).states.data
        b = encoders.nse_encode(p, emb).states.data
        npt.assert_array_equal(a, b)

    def test_empty_input(self):
        p = encoders.NseEncoderParams.create(3, np.random.default_rng(0))
        with pytest.raises(UsageError):
            encoders.nse_encode(p, Tensor(np.zeros((0, 3))))

    def test_gradient_check_small(self):
        rng = np.random.default_rng(14)
        p = encoders.NseEncoderParams.create(3, rng)
        emb = Tensor(rng.normal(size=(3, 3)) * 0.5, requires_grad=True)
        weight = Tensor(rng.normal(size=(3, 3)))

        def f():
            out = encoders.nse_encode(p, emb)
            return oracles.sum_all(oracles.mul(out.states, weight))

        params = [t for _, t in p.named_params()] + [emb]
        names = [n for n, _ in p.named_params()] + ["emb"]
        report = oracles.grad_check(f, params, tol=1e-4, names=names)
        assert report.ok, report.failures


class TestBatchedEncoders:
    """B sentences stepped together as time-major rows, against each alone."""

    LENGTHS = [4, 1, 3]

    def batch(self, rng, D=3):
        B, S = len(self.LENGTHS), max(self.LENGTHS)
        sentences = [rng.normal(size=(n, D)) for n in self.LENGTHS]
        emb = rng.normal(size=(S * B, D))  # padding rows stay random
        for b, sent in enumerate(sentences):
            emb[b::B][: len(sent)] = sent
        return sentences, Tensor(emb)

    @pytest.mark.parametrize(
        "create, encode",
        [
            (encoders.LstmEncoderParams.create, encoders.lstm_encode),
            (encoders.NseEncoderParams.create, encoders.nse_encode),
        ],
    )
    def test_each_sentence_encodes_as_it_does_alone(self, create, encode):
        rng = np.random.default_rng(15)
        p = create(3, rng)
        sentences, emb = self.batch(rng)
        B = len(sentences)
        out = encode(p, emb, lengths=self.LENGTHS)
        assert out.states.shape == emb.shape
        assert out.final_h.shape == out.final_c.shape == (B, 3)
        for b, sent in enumerate(sentences):
            alone = encode(p, Tensor(sent))
            pairs = [
                (out.states.data[b::B][: len(sent)], alone.states.data),
                (out.final_h.data[b], alone.final_h.data[0]),
                (out.final_c.data[b], alone.final_c.data[0]),
            ]
            for got, want in pairs:
                npt.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_batched_memory_update_touches_only_own_slots(self):
        rng = np.random.default_rng(16)
        B, S, D = 2, 3, 4
        memory = rng.normal(size=(S * B, D))
        weights = rng.random((B, S))
        written = rng.normal(size=(B, D))
        updated = encoders.memory_update(Tensor(memory), Tensor(weights), Tensor(written)).data
        for b in range(B):
            alone = encoders.memory_update(
                Tensor(memory[b::B]), Tensor(weights[b : b + 1]), Tensor(written[b : b + 1])
            ).data
            npt.assert_array_equal(updated[b::B], alone)

    def test_lengths_must_fit_the_rows(self):
        p = encoders.NseEncoderParams.create(3, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            encoders.nse_encode(p, Tensor(np.zeros((7, 3))), lengths=[3, 2])
        with pytest.raises(UsageError):
            encoders.nse_encode(p, Tensor(np.zeros((6, 3))), lengths=[3, 0])
