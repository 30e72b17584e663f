"""Tests for model construction and the teacher-forced forward pass."""

import numpy as np
import numpy.testing as npt
import pytest

from nsesimp import autodiff as ad
from nsesimp import layers
from nsesimp import model as M
from nsesimp.autodiff import Tape, backward
from nsesimp.data import BOS_ID, EOS_ID
from nsesimp.decoder import decoder_recurrence, init_decoder
from nsesimp.errors import ConfigError
from nsesimp.training import sentence_loss, xent_loss


class TestBuildModel:
    def test_lstm_and_nse_kinds(self):
        rng = np.random.default_rng(0)
        for kind in ("lstm", "nse"):
            m = M.build_model(kind, 4, 7, 9, rng)
            assert m.encoder_kind == kind
            assert m.dim == 4
            assert m.src_embed.E.shape == (7, 4)
            assert m.decoder.out_w.shape == (9, 8)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            M.build_model("gru", 4, 7, 7, np.random.default_rng(0))

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            M.build_model("lstm", 0, 7, 7, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            M.build_model("lstm", 4, 3, 7, np.random.default_rng(0))

    def test_param_names_unique(self):
        m = M.build_model("nse", 4, 7, 7, np.random.default_rng(1))
        names = [n for n, _ in m.named_params()]
        assert len(names) == len(set(names))
        assert all(t.requires_grad for t in m.params())

    def test_zero_grads(self):
        m = M.build_model("lstm", 4, 7, 7, np.random.default_rng(2))
        for t in m.params():
            t.grad = np.zeros_like(t.data)
        m.zero_grads()
        assert all(t.grad is None for t in m.params())


class TestEncodeDispatch:
    def test_lstm_has_no_memory(self):
        m = M.build_model("lstm", 4, 7, 7, np.random.default_rng(3))
        enc = M.encode(m, [4, 5, 6])
        assert enc.states.shape == (3, 4)
        assert enc.slot_weights == []

    def test_nse_exposes_memory(self):
        m = M.build_model("nse", 4, 7, 7, np.random.default_rng(4))
        enc = M.encode(m, [4, 5, 6])
        assert len(enc.slot_weights) == 3
        assert all(w.shape == (1, 3) for w in enc.slot_weights)


class TestTeacherLogits:
    def test_shape_and_determinism(self):
        m = M.build_model("lstm", 4, 7, 9, np.random.default_rng(5))
        enc = M.encode(m, [4, 5])
        logits = M.teacher_logits(m, enc, [BOS_ID, 4, 5])
        assert logits.shape == (3, 9)
        again = M.teacher_logits(m, enc, [BOS_ID, 4, 5])
        npt.assert_array_equal(logits.data, again.data)

    def test_matches_session_first_step(self):
        m = M.build_model("nse", 4, 7, 7, np.random.default_rng(6))
        enc = M.encode(m, [4, 5, 6])
        logits = M.teacher_logits(m, enc, [BOS_ID])
        session = M.DecodeSession(m, [4, 5, 6])
        log_probs, _, _ = session.step(session.start())
        assert log_probs.shape == (1, 7)
        import nsesimp.autodiff as ad
        from nsesimp.autodiff import Tensor

        expected = ad.log_softmax_rows(Tensor(logits.data[:1])).data
        npt.assert_allclose(log_probs, expected, atol=1e-14)


def per_step_logits(m, enc, decoder_input_ids, rate, rng):
    """Reference forward: one decoder step and its own output product per token."""
    p = m.decoder
    state = init_decoder(p, enc)
    rows = []
    for tok in decoder_input_ids:
        y = ad.take_rows(m.tgt_embed.E, [tok])
        state, _, feature = decoder_recurrence(p, state, y, enc.states, rate, rng)
        rows.append(layers.linear(p.out_w, p.out_b, feature))
    return ad.stack_rows(rows)


def max_relative_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestHoistedTeacherLogits:
    """The once-per-sentence output layer against the per-step reference.

    The same rng seed on both sides makes the dropout masks agree only if
    both draw in the same order, so the dropout case also pins that order.
    """

    SRC = [4, 5, 6, 4]
    TGT = [5, 7, 8, 4, 6]

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("kind", M.ENCODER_KINDS)
    def test_logits_match(self, kind, rate):
        m = M.build_model(kind, 4, 7, 9, np.random.default_rng(8))
        dec_in = [BOS_ID] + self.TGT
        outs = []
        for logits_fn in (M.teacher_logits, per_step_logits):
            rng = np.random.default_rng(31)
            enc = M.encode(m, self.SRC, rate, rng)
            outs.append(logits_fn(m, enc, dec_in, rate, rng).data)
        assert outs[0].shape == (len(dec_in), 9)
        assert max_relative_error(outs[0], outs[1]) <= 1e-12

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("kind", M.ENCODER_KINDS)
    def test_sentence_loss_gradients_match(self, kind, rate):
        m = M.build_model(kind, 4, 7, 9, np.random.default_rng(9))

        def grads(loss_fn):
            m.zero_grads()
            with Tape() as tape:
                loss = loss_fn(np.random.default_rng(32))
            backward(loss, tape)
            return {name: t.grad.copy() for name, t in m.named_params()}

        def reference_loss(rng):
            enc = M.encode(m, self.SRC, rate, rng)
            logits = per_step_logits(m, enc, [BOS_ID] + self.TGT, rate, rng)
            return xent_loss(logits, self.TGT + [EOS_ID])

        got = grads(lambda rng: sentence_loss(m, self.SRC, self.TGT, rate, rate > 0, rng))
        want = grads(reference_loss)
        for name, g in want.items():
            assert max_relative_error(got[name], g) <= 1e-9, name
