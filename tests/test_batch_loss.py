"""The batched teacher-forced loss against the per-sentence reference.

A padded batch runs as one graph of [B, ·] rows.  Its loss and every
parameter gradient must equal the token-weighted sum of the per-sentence
reference in ``oracles``; the ids at padding positions must change nothing;
and the masked attention and memory reads, each over its own sentence's
steps, must give padding slots exactly zero weight.  One sentence (B = 1) must encode as
the per-step reference encoders do.
"""

import numpy as np
import pytest

import oracles
from nsesimp import autodiff as ad
from nsesimp.autodiff import Tape, backward
from nsesimp.data import BOS_ID, Batch
from nsesimp.decoder import decoder_recurrence, init_decoder
from nsesimp.model import ENCODER_KINDS, build_model, encode, teacher_logits
from nsesimp.training import batch_loss, xent_loss

SRC_V, TGT_V = 10, 11

# unequal source and target lengths, with a one-token source and an empty
# bare target (whose wrapped target is the end marker alone)
PAIRS = [
    ([4, 5, 6, 7, 8], [5, 6]),
    ([9], []),
    ([6, 4, 9], [7, 8, 9, 4]),
]
CASES = {1: PAIRS[1:2], 2: PAIRS[:2], 3: PAIRS}


def make_model(kind, seed):
    return build_model(kind, 4, SRC_V, TGT_V, np.random.default_rng(seed))


def loss_and_grads(model, loss_fn):
    model.zero_grads()
    with Tape() as tape:
        loss = loss_fn()
    backward(loss, tape)
    return loss.item(), {name: t.grad.copy() for name, t in model.named_params()}


def relative_error(got, want):
    # an all-zero reference (a recurrent weight behind a one-token source)
    # is judged on the absolute scale
    return float(np.abs(got - want).max() / (np.abs(want).max() or 1.0))


def reference_loss(model, pairs):
    """Sum over sentences of n_i / N times sentence i's mean token loss."""
    tokens = sum(len(tgt) + 1 for _, tgt in pairs)
    total = oracles.sentence_nll(model, *pairs[0])
    for src, tgt in pairs[1:]:
        total = ad.add(total, oracles.sentence_nll(model, src, tgt))
    return ad.scale(total, 1.0 / tokens)


@pytest.mark.parametrize("B", sorted(CASES))
@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_batch_loss_and_gradients_equal_the_per_sentence_sum(kind, B):
    model = make_model(kind, 10 + B)
    pairs = CASES[B]
    batch = Batch.from_ids(pairs)
    got_loss, got = loss_and_grads(model, lambda: batch_loss(model, batch))
    want_loss, want = loss_and_grads(model, lambda: reference_loss(model, pairs))
    assert abs(got_loss - want_loss) <= 1e-9 * abs(want_loss)
    for name, g in want.items():
        assert relative_error(got[name], g) <= 1e-9, name


def decoder_inputs(tgt_out):
    """The gold targets shifted right behind sentence-begin, as batch_loss builds them."""
    return np.concatenate([np.full((tgt_out.shape[0], 1), BOS_ID), tgt_out[:, :-1]], axis=1)


def loss_from(model, batch, src, dec_in):
    """batch_loss with the source and decoder-input ids given explicitly."""
    enc = encode(model, src, lengths=batch.src_mask.sum(axis=1))
    return xent_loss(teacher_logits(model, enc, dec_in), batch.tgt_out.T.reshape(-1))


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_padding_ids_change_neither_the_loss_nor_any_gradient(kind):
    model = make_model(kind, 20)
    batch = Batch.from_ids(PAIRS)
    rng = np.random.default_rng(21)
    dec_in = decoder_inputs(batch.tgt_out)
    # decoder input t is read for target t, so t is real where the target is
    noisy_src = np.where(batch.src_mask > 0, batch.src, rng.integers(4, SRC_V, batch.src.shape))
    noisy_in = np.where(batch.tgt_mask > 0, dec_in, rng.integers(4, TGT_V, dec_in.shape))
    assert not np.array_equal(noisy_src, batch.src)
    assert not np.array_equal(noisy_in, dec_in)
    batched_loss, batched = loss_and_grads(model, lambda: batch_loss(model, batch))
    clean_loss, clean = loss_and_grads(model, lambda: loss_from(model, batch, batch.src, dec_in))
    noisy_loss, dirty = loss_and_grads(model, lambda: loss_from(model, batch, noisy_src, noisy_in))
    assert clean_loss == batched_loss
    assert noisy_loss == clean_loss
    for name, g in clean.items():
        assert np.array_equal(batched[name], g), name
        assert np.array_equal(dirty[name], g), name


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_attention_and_memory_weights_are_exactly_zero_at_padding(kind):
    model = make_model(kind, 30)
    batch = Batch.from_ids(PAIRS)
    lengths = [len(src) for src, _ in PAIRS]
    S = batch.src.shape[1]
    real = np.array([[t < n for t in range(S)] for n in lengths])
    enc = encode(model, batch.src, lengths=lengths)
    assert np.array_equal(enc.mask, real)
    assert len(enc.slot_weights) == (S if kind == "nse" else 0)
    weights = list(enc.slot_weights)
    state = init_decoder(model.decoder, enc)
    dec_in = decoder_inputs(batch.tgt_out)
    for t in range(dec_in.shape[1]):
        y = ad.take_rows(model.tgt_embed.E, dec_in[:, t])
        state, alpha, _ = decoder_recurrence(
            model.decoder, state, y, enc.states, batch=enc.batch, mask=enc.mask
        )
        weights.append(alpha.data)
    for w in weights:
        assert w.shape == real.shape
        assert np.all(w[~real] == 0.0)
        assert np.all(w[real] > 0.0)
        assert np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_no_padding_emits_no_mask():
    model = make_model("nse", 31)
    batch = Batch.from_ids([([4, 5], [6]), ([7, 8], [])])
    assert encode(model, batch.src, lengths=[2, 2]).mask is None


@pytest.mark.parametrize("src", [[4], [4, 5, 6, 7, 8, 9, 4, 5]])
@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_one_sentence_encodes_as_the_per_step_reference(kind, src):
    model = make_model(kind, 40)
    enc = encode(model, src)
    assert enc.mask is None
    want = oracles.encode(model, src)
    for got, ref in zip((enc.states, enc.final_h, enc.final_c), want):
        assert got.shape == ref.shape
        assert relative_error(got.data, ref.data) <= 1e-12
    if kind == "nse":
        ref_weights = oracles.nse_encode(model.encoder, ad.take_rows(model.src_embed.E, src))[3]
        for got, ref in zip(enc.slot_weights, ref_weights, strict=True):
            assert relative_error(got[0], ref) <= 1e-12
