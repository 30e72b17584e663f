"""Tests for the loss, optimizer, config, selection, checkpoint, and loop."""

import dataclasses
import errno
import math
import os
import pathlib
import struct
import time
import tracemalloc

import numpy as np
import pytest

import oracles
import toy_tasks
from nsesimp import autodiff as ad
from nsesimp import training
from nsesimp.autodiff import Tape, Tensor, backward
from nsesimp.data import PAD_ID, UNK_ID, Vocabulary
from nsesimp.errors import ConfigError, FormatError, UsageError
from nsesimp.metrics import EvalInstance, bleu_corpus, sari_corpus
from nsesimp.model import DecodeSession, build_model
from nsesimp.search import beam_decode, greedy_decode, replace_unks
from nsesimp.training import (
    AdamState,
    Checkpoint,
    EpochRecord,
    TrainConfig,
    adam_step,
    clip_global_norm,
    decode_tokens,
    dev_decode_scores,
    load_checkpoint,
    make_checkpoint,
    preset_config,
    restore_adam,
    restore_model,
    save_checkpoint,
    select_model,
    sentence_loss,
    train,
    xent_loss,
)

# ---------------------------------------------------------------------------
# cross-entropy


def test_xent_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((3, 4)))
    loss = xent_loss(logits, [1, 2, 3])
    assert abs(loss.item() - math.log(4.0)) < 1e-12


def test_xent_hand_value():
    # softmax([0, ln 3]) = [0.25, 0.75]; picking class 1 costs -ln 0.75.
    logits = Tensor(np.array([[0.0, math.log(3.0)]]))
    loss = xent_loss(logits, [1])
    assert abs(loss.item() - (-math.log(0.75))) < 1e-12


def test_xent_confident_correct_is_near_zero():
    logits = np.zeros((2, 5))
    logits[0, 3] = 50.0
    logits[1, 1] = 50.0
    loss = xent_loss(Tensor(logits), [3, 1])
    assert loss.item() < 1e-10


def test_xent_ignores_padding_positions():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(4, 5))
    padded = xent_loss(Tensor(logits), [2, 4, PAD_ID, PAD_ID])
    bare = xent_loss(Tensor(logits[:2]), [2, 4])
    assert abs(padded.item() - bare.item()) < 1e-12


def test_xent_all_padding_rejected():
    with pytest.raises(UsageError):
        xent_loss(Tensor(np.zeros((2, 4))), [PAD_ID, PAD_ID])


def test_xent_length_mismatch_rejected():
    with pytest.raises(UsageError):
        xent_loss(Tensor(np.zeros((3, 4))), [1, 2])


def test_xent_rejects_a_target_outside_the_vocabulary():
    for bad in ([1, 4, 2], [1, -1, 2]):
        with pytest.raises(IndexError):
            xent_loss(Tensor(np.zeros((3, 4))), bad)


def test_xent_is_one_tape_node_bitwise_the_unfused_chain():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(7, 9)) * 3
    # padding rows (target id 0) at the front, middle and end
    ids = np.array([PAD_ID, 3, 8, PAD_ID, 1, 5, PAD_ID])
    results = []
    for loss_fn in (xent_loss, lambda x, t: oracles.xent_chain(x, t, (t != PAD_ID) * 1.0)):
        x = Tensor(logits, requires_grad=True)
        with Tape() as tape:
            loss = loss_fn(x, ids)
        nodes = len(tape.nodes)
        backward(loss, tape)
        results.append((nodes, loss.data.tobytes(), x.grad.tobytes()))
    fused, chain = results
    assert fused[0] == 1 and chain[0] == 5
    assert fused[1:] == chain[1:]


def test_xent_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    logits = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    report = oracles.grad_check(
        lambda: xent_loss(logits, [3, PAD_ID, 1, 5]), [logits], tol=1e-6
    )
    assert report.ok, report.failures


def test_sentence_loss_touches_every_parameter():
    rng = np.random.default_rng(3)
    model = build_model("nse", 4, 7, 7, rng)
    with Tape() as tape:
        loss = sentence_loss(model, [4, 5, 6], [5, 4])
    backward(loss, tape)
    for name, p in model.named_params():
        assert p.grad is not None, name
    assert np.isfinite(loss.item())


def test_sentence_loss_deterministic_without_dropout():
    rng = np.random.default_rng(4)
    model = build_model("lstm", 5, 8, 8, rng)
    a = sentence_loss(model, [4, 6], [5]).item()
    b = sentence_loss(model, [4, 6], [5]).item()
    assert a == b


@pytest.mark.parametrize("tgt_len", [1, 6])
@pytest.mark.parametrize("kind", ["lstm", "nse"])
def test_sentence_loss_tape_touches_vocab_sized_params_once(kind, tgt_len):
    # the output layer and the target-embedding gather run once per sentence,
    # so their V-sized gradients are built once, not once per target step
    model = build_model(kind, 4, 7, 9, np.random.default_rng(6))
    params = dict(model.named_params())
    tgt = [4 + i % 5 for i in range(tgt_len)]
    with Tape() as tape:
        sentence_loss(model, [4, 5, 6], tgt, 0.3, True, np.random.default_rng(0))
    for name in ("dec.out_w", "tgt_emb.E"):
        users = [n for n in tape.nodes if any(x is params[name] for x in n.inputs)]
        assert len(users) == 1, name


def test_repeated_backward_accumulates_bitwise_like_a_fresh_sum():
    rng = np.random.default_rng(14)
    W = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    c = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    d = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    leaves = (W, b, c, d)
    inputs = [Tensor(rng.normal(size=(3, 4))) for _ in range(2)]

    def loss(x):
        # W and b feed two nodes; the add hands c and d one and the same
        # gradient array, so leaves sharing a buffer would double-count
        z = oracles.add(oracles.add(c, d), ad.affine_rows(x, W, b))
        return oracles.sum_all(oracles.mul(ad.tanh(z), ad.affine_rows(x, W, b)))

    separate = []
    for x in inputs:
        for t in leaves:
            t.grad = None
        with Tape() as tape:
            out = loss(x)
        backward(out, tape)
        separate.append([t.grad.copy() for t in leaves])
    for t in leaves:
        t.grad = None
    for x in inputs:
        with Tape() as tape:
            out = loss(x)
        backward(out, tape)
    for t, first, second in zip(leaves, *separate):
        assert np.array_equal(t.grad, first + second)


# ---------------------------------------------------------------------------
# optimizer


def _param(values):
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


def test_adam_first_step_formula():
    p = _param([1.0, -2.0, 0.5])
    g = np.array([2.5, -0.3, 1.0])
    p.grad = g.copy()
    state = AdamState.create([p])
    adam_step([p], state, lr=0.01)
    # With constant gradient the bias-corrected step is -lr * g / (|g| + eps).
    expected = np.array([1.0, -2.0, 0.5]) - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.data, expected, atol=1e-15)
    # ... which is essentially a sign step for gradients well above eps.
    assert np.allclose(p.data, np.array([1.0, -2.0, 0.5]) - 0.01 * np.sign(g), atol=1e-6)


def test_adam_constant_gradient_walks_linearly():
    p = _param([0.0])
    g = np.array([4.0])
    state = AdamState.create([p])
    for _ in range(3):
        p.grad = g.copy()
        adam_step([p], state, lr=0.1)
    # Constant g keeps m-hat = g and v-hat = g^2 at every step.
    assert np.allclose(p.data, -3 * 0.1 * g / (np.abs(g) + 1e-8), atol=1e-12)
    assert state.t == 3


def test_adam_zero_gradient_moves_nothing_but_counts():
    p = _param([3.0, -1.0])
    p.grad = np.zeros(2)
    state = AdamState.create([p])
    adam_step([p], state, lr=0.5)
    assert np.array_equal(p.data, np.array([3.0, -1.0]))
    assert state.t == 1


def test_adam_missing_gradient_rejected():
    p = _param([1.0])
    state = AdamState.create([p])
    with pytest.raises(UsageError):
        adam_step([p], state, lr=0.1)
    assert state.t == 0


def test_adam_param_count_mismatch_rejected():
    p, q = _param([1.0]), _param([2.0])
    p.grad = np.zeros(1)
    q.grad = np.zeros(1)
    state = AdamState.create([p])
    with pytest.raises(UsageError):
        adam_step([p, q], state, lr=0.1)


def _chunks_past_the_pool(extra):
    """Elements for more whole-model chunks than the pool has threads, plus ``extra``."""
    return (len(os.sched_getaffinity(0)) + 2) * training._CHUNK + extra


def test_adam_matches_whole_array_formula_bitwise():
    # shapes that span several chunks, more than the pool's threads, and end mid-chunk
    shapes = [(3,), (4, 5), (1,), (130, 300), (_chunks_past_the_pool(37),)]
    rng = np.random.default_rng(15)
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    ref_p = [p.data.copy() for p in params]
    ref_m = [np.zeros(s) for s in shapes]
    ref_v = [np.zeros(s) for s in shapes]
    state = AdamState.create(params)
    lr, beta1, beta2, eps = 0.003, 0.9, 0.999, 1e-8
    for t in range(1, 4):
        grads = [rng.normal(size=s) for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g.copy()
        adam_step(params, state, lr, beta1, beta2, eps)
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        for p, m, v, g in zip(ref_p, ref_m, ref_v, grads):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    for p, want_p, got_m, want_m, got_v, want_v in zip(
        params, ref_p, state.m, ref_m, state.v, ref_v
    ):
        assert np.array_equal(p.data, want_p)
        assert np.array_equal(got_m, want_m)
        assert np.array_equal(got_v, want_v)


def test_passes_lent_to_the_pool_give_the_bits_of_the_caller_alone(monkeypatch):
    # the clip rescale, Adam and the widening, over shapes that span several
    # chunks, more than the pool's threads, and end mid-chunk
    shapes = [(3,), (130, 300), (_chunks_past_the_pool(37),)]
    rng = np.random.default_rng(16)
    start = [rng.normal(size=s) for s in shapes]
    grads = [10.0 * rng.normal(size=s) for s in shapes]
    assert sum(math.prod(s) for s in shapes) < training._LEND_FROM  # the first run stays here
    results = []
    for lend_from in (training._LEND_FROM, 0):
        monkeypatch.setattr(training, "_LEND_FROM", lend_from)
        params = [Tensor(a.copy(), requires_grad=True) for a in start]
        state = AdamState.create(params)
        for _ in range(2):
            for p, g in zip(params, grads):
                p.grad = g.copy()
            clip_global_norm(params, 1.0)
            adam_step(params, state, lr=0.01)
        widened = [np.empty(s) for s in shapes]
        training._round_into(zip(widened, (p.data for p in params)))
        arrays = [p.data for p in params] + state.m + state.v + widened
        results.append([a.tobytes() for a in arrays])
    assert results[0] == results[1]


def _bad_moments(shape):
    n = math.prod(shape)
    return {
        "too short": np.zeros(n - 1),
        "too long": np.zeros(n + 5),
        "float32": np.zeros(shape, np.float32),
        "read-only": np.zeros(shape),
        "not contiguous": np.zeros(shape + (2,))[..., 0],
    }


@pytest.mark.parametrize("case", list(_bad_moments((3,))))
@pytest.mark.parametrize("which", ["m", "v"])
def test_adam_rejects_a_bad_moment_before_changing_anything(case, which):
    rng = np.random.default_rng(16)
    params = [_param(rng.normal(size=4)), _param(rng.normal(size=3))]
    for p in params:
        p.grad = rng.normal(size=p.data.shape)
    state = AdamState.create(params)
    state.t = 2
    bad = _bad_moments((3,))[case]
    bad.flags.writeable = case != "read-only"
    getattr(state, which)[1] = bad
    before = [a.tobytes() for a in [p.data for p in params] + state.m + state.v]
    with pytest.raises(UsageError):
        adam_step(params, state, lr=0.1)
    assert [a.tobytes() for a in [p.data for p in params] + state.m + state.v] == before
    assert state.t == 2


def test_adam_minimizes_quadratic():
    p = _param([5.0])
    state = AdamState.create([p])
    for _ in range(500):
        p.grad = 2.0 * p.data
        adam_step([p], state, lr=0.05)
    assert abs(p.data[0]) < 1e-2


def test_clip_scales_oversized_gradients():
    a, b = _param([0.0, 0.0]), _param([0.0])
    a.grad = np.array([6.0, 0.0])
    b.grad = np.array([8.0])
    norm = clip_global_norm([a, b], 5.0)
    assert abs(norm - 10.0) < 1e-12
    clipped = math.sqrt(float((a.grad**2).sum() + (b.grad**2).sum()))
    assert abs(clipped - 5.0) < 1e-12
    # Direction is preserved: components keep their 6:8 ratio.
    assert abs(a.grad[0] / b.grad[0] - 0.75) < 1e-12


def test_clip_keeps_the_direction_when_the_sum_of_squares_overflows():
    a = _param([0.0, 0.0])
    a.grad = np.array([3e200, 4e200])
    norm = clip_global_norm([a], 5.0)
    assert abs(norm - 5e200) <= 1e-15 * 5e200
    np.testing.assert_allclose(a.grad, [3.0, 4.0], rtol=1e-15)


def test_clip_keeps_the_direction_when_the_norm_itself_overflows():
    # every entry is finite, but the norm, 1.5e308·√2, is not
    a = _param([0.0, 0.0])
    a.grad = np.array([1.5e308, 1.5e308])
    assert clip_global_norm([a], 5.0) == math.inf
    assert a.grad[0] == a.grad[1]
    assert abs(math.hypot(*a.grad) - 5.0) <= 1e-15 * 5.0


def test_clip_leaves_small_gradients_alone():
    a = _param([0.0, 0.0])
    a.grad = np.array([0.3, 0.4])
    norm = clip_global_norm([a], 5.0)
    assert abs(norm - 0.5) < 1e-12
    assert np.array_equal(a.grad, np.array([0.3, 0.4]))


def test_clip_norm_matches_the_elementwise_formula():
    rng = np.random.default_rng(15)
    shapes = ((40, 30), (17,), (3, 200), (_chunks_past_the_pool(11),))
    params = [_param(np.zeros(shape)) for shape in shapes]
    for p in params:
        p.grad = rng.normal(size=p.data.shape) * 3.0
    before = [p.grad.copy() for p in params]
    want = math.sqrt(sum(float((g * g).sum()) for g in before))
    norm = clip_global_norm(params, 1.0)
    assert abs(norm - want) <= 1e-12 * want
    # with max_norm 1 and no overflow, the factor is exactly 1 / norm
    factor = 1.0 / norm
    for p, g in zip(params, before):
        assert p.grad.tobytes() == (g * factor).tobytes()


def test_clip_rejects_a_gradient_it_cannot_scale_in_place():
    a = _param(np.zeros((3, 4)))
    a.grad = np.ones((4, 3)).T
    with pytest.raises(UsageError):
        clip_global_norm([a], 1.0)
    assert np.array_equal(a.grad, np.ones((3, 4)))


def test_clip_missing_gradient_rejected():
    with pytest.raises(UsageError):
        clip_global_norm([_param([1.0])], 5.0)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_follow_standard_recipe():
    c = TrainConfig()
    assert c.dim == 300
    assert (c.beta1, c.beta2, c.adam_eps) == (0.9, 0.999, 1e-8)
    assert c.batch_size == 32
    assert c.dropout == 0.3
    assert c.max_epochs == 40
    assert c.clip_norm == 5.0
    assert c.beam_sizes == (5, 10)
    c.validate()


def test_config_lr_resolution_by_encoder():
    assert TrainConfig(encoder_kind="lstm").resolved_lr() == 0.001
    assert TrainConfig(encoder_kind="nse").resolved_lr() == 0.0003
    assert TrainConfig(encoder_kind="nse", lr=0.01).resolved_lr() == 0.01


@pytest.mark.parametrize(
    "overrides",
    [
        dict(encoder_kind="gru"),
        dict(dim=0),
        dict(vocab_size=4),
        dict(lr=-1.0),
        dict(beta1=1.0),
        dict(dropout=1.0),
        dict(batch_size=0),
        dict(max_epochs=0),
        dict(tune_metric="rouge"),
        dict(clip_norm=0.0),
        dict(beam_sizes=(5, 0)),
    ],
)
def test_config_validation_rejects_bad_values(overrides):
    with pytest.raises(ConfigError):
        TrainConfig(**overrides).validate()


def test_presets_carry_corpus_settings():
    newsela = preset_config("newsela", "nse")
    assert newsela.vocab_size == 20000
    assert newsela.sari_bleu_threshold == 22.0
    assert newsela.resolved_lr() == 0.0003
    small = preset_config("wikismall")
    assert small.vocab_size == 30000
    assert small.sari_bleu_threshold == 33.0
    assert small.resolved_lr() == 0.001
    large = preset_config("wikilarge")
    assert large.vocab_size == 30000
    assert large.sari_bleu_threshold == 77.0


def test_presets_accept_overrides_and_reject_unknown_corpus():
    c = preset_config("newsela", "lstm", batch_size=4, max_epochs=2)
    assert c.batch_size == 4 and c.max_epochs == 2
    with pytest.raises(ConfigError):
        preset_config("europarl")


# ---------------------------------------------------------------------------
# model selection


def _records(rows):
    return [
        EpochRecord(epoch=i + 1, mean_loss=0.0, dev_bleu=b, dev_sari=s, seconds=0.0)
        for i, (b, s) in enumerate(rows)
    ]


def test_select_bleu_is_argmax_with_earliest_tie():
    recs = _records([(10.0, 50.0), (30.0, 10.0), (30.0, 90.0), (20.0, 95.0)])
    assert select_model(recs, "bleu") == 2


def test_select_sari_respects_threshold():
    recs = _records([(10.0, 90.0), (25.0, 40.0), (28.0, 60.0), (26.0, 55.0)])
    # Threshold 22 removes epoch 1 despite its huge SARI.
    assert select_model(recs, "sari", 22.0) == 3


def test_select_sari_falls_back_to_bleu_when_nothing_qualifies():
    recs = _records([(10.0, 90.0), (15.0, 95.0), (12.0, 99.0)])
    assert select_model(recs, "sari", 50.0) == 2


def test_select_sari_ties_go_earliest():
    recs = _records([(30.0, 70.0), (40.0, 70.0), (35.0, 70.0)])
    assert select_model(recs, "sari", 22.0) == 1


def test_select_rejects_empty_and_unknown_metric():
    with pytest.raises(UsageError):
        select_model([], "bleu")
    with pytest.raises(ConfigError):
        select_model(_records([(1.0, 1.0)]), "meteor")


def test_select_matches_independent_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        rows = [
            (float(rng.integers(0, 8) * 5), float(rng.integers(0, 8) * 5))
            for _ in range(n)
        ]
        threshold = float(rng.integers(0, 8) * 5)
        metric = "bleu" if rng.random() < 0.5 else "sari"
        got = select_model(_records(rows), metric, threshold)
        want = oracles.select_model(rows, metric, threshold)
        assert got == want, (rows, metric, threshold)


# ---------------------------------------------------------------------------
# checkpoints


def _small_setup(kind="nse", dim=5, seed=0):
    rng = np.random.default_rng(seed)
    corpus = toy_tasks.copy_pairs(rng, 12)
    src_vocab, tgt_vocab = toy_tasks.vocabs_for(corpus)
    model = build_model(kind, dim, src_vocab.size, tgt_vocab.size, rng)
    return model, corpus, src_vocab, tgt_vocab


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    model, _, src_vocab, tgt_vocab = _small_setup()
    params = model.params()
    with Tape() as tape:
        loss = sentence_loss(model, [4, 5], [6])
    backward(loss, tape)
    state = AdamState.create(params)
    adam_step(params, state, lr=0.001)
    ckpt = make_checkpoint(
        model, src_vocab, tgt_vocab, adam=state, epoch=7, dev_bleu=12.5, dev_sari=34.25
    )
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.encoder_kind == "nse"
    assert loaded.dim == 5
    assert loaded.epoch == 7
    assert loaded.dev_bleu == 12.5 and loaded.dev_sari == 34.25
    assert loaded.src_vocab.id_to_token == src_vocab.id_to_token
    assert loaded.tgt_vocab.id_to_token == tgt_vocab.id_to_token
    assert [n for n, _ in loaded.params] == [n for n, _ in ckpt.params]
    # a made checkpoint reads the live float64 arrays; the file holds their float32 rounding
    for (_, a), (_, b) in zip(ckpt.params, loaded.params):
        assert b.dtype == np.float32
        assert np.array_equal(a.astype(np.float32), b)
    assert loaded.adam is not None and loaded.adam.t == 1
    for a, b in zip(ckpt.adam.m + ckpt.adam.v, loaded.adam.m + loaded.adam.v):
        assert np.array_equal(a.astype(np.float32), b)
    # A second save of the loaded checkpoint produces identical bytes.
    path2 = tmp_path / "again.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_restore_decodes_identically(tmp_path):
    model, corpus, src_vocab, tgt_vocab = _small_setup(kind="lstm", dim=6, seed=9)
    # Serve the stored precision: round-trip through 32-bit once up front.
    served = restore_model(make_checkpoint(model, src_vocab, tgt_vocab))
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_checkpoint(served, src_vocab, tgt_vocab), path)
    reloaded = restore_model(load_checkpoint(path))
    for src, _ in corpus.pairs:
        ids = src_vocab.encode(src)
        a = greedy_decode(DecodeSession(served, ids), 25)
        b = greedy_decode(DecodeSession(reloaded, ids), 25)
        assert a.tokens == b.tokens
        assert a.score == b.score


def test_checkpoint_restore_adam_roundtrip(tmp_path):
    model, _, src_vocab, tgt_vocab = _small_setup()
    params = model.params()
    with Tape() as tape:
        loss = sentence_loss(model, [4], [5])
    backward(loss, tape)
    state = AdamState.create(params)
    adam_step(params, state, lr=0.001)
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_checkpoint(model, src_vocab, tgt_vocab, adam=state), path)
    back = restore_adam(load_checkpoint(path))
    assert back.t == 1
    assert len(back.m) == len(params)
    assert all(a.dtype == np.float64 for a in back.m)


def test_checkpoint_without_adam_loads_none(tmp_path):
    model, _, src_vocab, tgt_vocab = _small_setup()
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_checkpoint(model, src_vocab, tgt_vocab), path)
    assert load_checkpoint(path).adam is None
    assert restore_adam(load_checkpoint(path)) is None


def test_checkpoint_bad_magic_reports_offset_zero(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == 0


def test_checkpoint_bad_version_reports_offset_four(tmp_path):
    model, _, src_vocab, tgt_vocab = _small_setup()
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_checkpoint(model, src_vocab, tgt_vocab), path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == 4


def test_checkpoint_truncation_reports_offset(tmp_path):
    model, _, src_vocab, tgt_vocab = _small_setup()
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_checkpoint(model, src_vocab, tgt_vocab), path)
    blob = path.read_bytes()
    cut = len(blob) // 2
    path.write_bytes(blob[:cut])
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset is not None and 0 < err.value.offset <= cut


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    model, _, src_vocab, tgt_vocab = _small_setup()
    path = tmp_path / "m.ckpt"
    save_checkpoint(make_checkpoint(model, src_vocab, tgt_vocab), path)
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_vocab_without_reserved_header_rejected(tmp_path):
    model, _, src_vocab, tgt_vocab = _small_setup()
    broken = dataclasses.replace(
        make_checkpoint(model, src_vocab, tgt_vocab),
        src_vocab=type(src_vocab)(
            ["a"] * src_vocab.size, {t: i for i, t in enumerate(["a"] * src_vocab.size)}
        ),
    )
    path = tmp_path / "m.ckpt"
    save_checkpoint(broken, path)
    with pytest.raises(FormatError, match="reserved"):
        load_checkpoint(path)


GOLDEN_CHECKPOINT = pathlib.Path(__file__).parent / "golden" / "tiny.ckpt"


def test_golden_checkpoint_resaves_byte_identically(tmp_path):
    # tiny.ckpt pins the file format: an NSE model of dim 2 with Adam state
    ckpt = load_checkpoint(GOLDEN_CHECKPOINT)
    assert (ckpt.encoder_kind, ckpt.dim, ckpt.epoch) == ("nse", 2, 3)
    assert (ckpt.dev_bleu, ckpt.dev_sari) == (12.5, 34.25)
    assert ckpt.src_vocab.id_to_token[4:] == ["the", "cat", "café", "sat"]
    assert ckpt.adam is not None and ckpt.adam.t == 3
    path = tmp_path / "again.ckpt"
    save_checkpoint(ckpt, path)
    assert path.read_bytes() == GOLDEN_CHECKPOINT.read_bytes()
    _assert_writers_agree(ckpt, tmp_path)
    # through a live float64 model and optimizer state and back
    rebuilt = make_checkpoint(
        restore_model(ckpt),
        ckpt.src_vocab,
        ckpt.tgt_vocab,
        adam=restore_adam(ckpt),
        epoch=ckpt.epoch,
        dev_bleu=ckpt.dev_bleu,
        dev_sari=ckpt.dev_sari,
    )
    save_checkpoint(rebuilt, path)
    assert path.read_bytes() == GOLDEN_CHECKPOINT.read_bytes()


def test_checkpoint_huge_claimed_shape_reports_truncation(tmp_path):
    blob = GOLDEN_CHECKPOINT.read_bytes()
    # the first parameter: name "src_emb.E", rank 2, dims 8 and 2
    header = b"src_emb.E" + struct.pack("<3I", 2, 8, 2)
    at = blob.index(header) + len(b"src_emb.E") + 4
    path = tmp_path / "huge.ckpt"
    path.write_bytes(blob[:at] + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + blob[at + 8 :])
    with pytest.raises(FormatError, match="truncated while reading parameter src_emb.E") as err:
        load_checkpoint(path)
    assert err.value.offset == at + 8


def _checkpoint_or_error(load, path):
    """What ``load(path)`` gives: a checkpoint, or a FormatError's (message, offset)."""
    try:
        return load(path)
    except FormatError as e:
        return str(e), e.offset


def _assert_same_checkpoint(got, want):
    assert (got.encoder_kind, got.dim, got.epoch) == (want.encoder_kind, want.dim, want.epoch)
    assert (got.dev_bleu, got.dev_sari) == (want.dev_bleu, want.dev_sari)
    assert (got.src_vocab, got.tgt_vocab) == (want.src_vocab, want.tgt_vocab)
    assert [n for n, _ in got.params] == [n for n, _ in want.params]
    arrays = [(a, b) for (_, a), (_, b) in zip(got.params, want.params)]
    assert (got.adam is None) == (want.adam is None)
    if want.adam is not None:
        assert got.adam.t == want.adam.t
        arrays += list(zip(got.adam.m + got.adam.v, want.adam.m + want.adam.v))
    for a, b in arrays:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _assert_writers_agree(ckpt, tmp_path):
    """The save's one pass of positioned writes gives the serial reference writer's bytes."""
    got, want = tmp_path / "positioned.ckpt", tmp_path / "serial.ckpt"
    save_checkpoint(ckpt, got)
    oracles.save_checkpoint(ckpt, want)
    assert got.read_bytes() == want.read_bytes()


def _assert_readers_agree(path):
    """The mapped reader gives the file reader's checkpoint, or its error and offset."""
    got = _checkpoint_or_error(load_checkpoint, path)
    want = _checkpoint_or_error(oracles.load_checkpoint, path)
    if isinstance(want, tuple):
        assert got == want, path
    else:
        _assert_same_checkpoint(got, want)


def test_mapped_reader_matches_the_file_reader_on_every_prefix_of_the_golden_file(tmp_path):
    blob = GOLDEN_CHECKPOINT.read_bytes()
    for cut in range(len(blob) + 1):
        path = tmp_path / f"{cut}.ckpt"
        path.write_bytes(blob[:cut])
        _assert_readers_agree(path)


def _corruptions(blob):
    # the first parameter: name "src_emb.E", rank 2, dims 8 and 2
    name = blob.index(b"src_emb.E" + struct.pack("<3I", 2, 8, 2))
    rank = name + len(b"src_emb.E")
    kind = blob.index(b"nse")
    # the optimizer flag and step (3) come just before the first moment
    moment = blob.index(struct.pack("<BQ3I", 1, 3, 2, 8, 2)) + 9
    return {
        "bad magic": b"XSE1" + blob[4:],
        "bad version": blob[:4] + struct.pack("<I", 9) + blob[8:],
        "unknown encoder kind": blob[:kind] + b"rnn" + blob[kind + 3 :],
        "rank 9": blob[:rank] + struct.pack("<I", 9) + blob[rank + 4 :],
        "huge dims": blob[: rank + 4] + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + blob[rank + 12 :],
        "name not UTF-8": blob[:name] + b"\xff" + blob[name + 1 :],
        "wrong reserved header": blob.replace(b"<pad>", b"<pax>", 1),
        # the first optimizer moment, [8, 2] like its parameter, read as [4, 4]
        "moment shape": blob[: moment + 4] + struct.pack("<2I", 4, 4) + blob[moment + 12 :],
        "one trailing byte": blob + b"\x00",
        "empty": b"",
    }


@pytest.mark.parametrize("case", list(_corruptions(GOLDEN_CHECKPOINT.read_bytes())))
def test_mapped_reader_matches_the_file_reader_on_corrupted_files(tmp_path, case):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_corruptions(GOLDEN_CHECKPOINT.read_bytes())[case])
    assert isinstance(_checkpoint_or_error(oracles.load_checkpoint, path), tuple)
    _assert_readers_agree(path)


def _rounded(ckpt):
    """``ckpt`` with every array replaced by its explicit float32 copy."""
    adam = ckpt.adam
    if adam is not None:
        adam = AdamState(
            m=[a.astype(np.float32) for a in adam.m],
            v=[a.astype(np.float32) for a in adam.v],
            t=adam.t,
        )
    params = [(n, a.astype(np.float32)) for n, a in ckpt.params]
    return dataclasses.replace(ckpt, params=params, adam=adam)


def _saved_with_adam(tmp_path):
    model, _, src_vocab, tgt_vocab = _small_setup()
    state = AdamState.create(model.params())
    rng = np.random.default_rng(3)
    for buf in state.m + state.v:
        buf[...] = rng.normal(size=buf.shape)
    ckpt = make_checkpoint(model, src_vocab, tgt_vocab, adam=state, epoch=2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    return ckpt, path


def test_loaded_arrays_are_read_only_and_equal_the_saved_ones(tmp_path):
    ckpt, path = _saved_with_adam(tmp_path)
    loaded = load_checkpoint(path)
    saved = [a for _, a in ckpt.params] + ckpt.adam.m + ckpt.adam.v
    got = [a for _, a in loaded.params] + loaded.adam.m + loaded.adam.v
    for a, b in zip(saved, got):
        assert not b.flags.writeable
        assert b.dtype == np.float32 and np.array_equal(a.astype(np.float32), b)
    with pytest.raises(ValueError):
        got[0][...] = 0.0


def test_resaving_a_loaded_checkpoint_over_its_own_path(tmp_path):
    ckpt, path = _saved_with_adam(tmp_path)
    blob = path.read_bytes()
    loaded = load_checkpoint(path)
    save_checkpoint(loaded, path)
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == ["m.ckpt"]  # the old file, renamed aside, is gone
    # another checkpoint saved over the path leaves the loaded views as they were
    other = dataclasses.replace(ckpt, params=[(n, a + 1.0) for n, a in ckpt.params], adam=None)
    save_checkpoint(other, path)
    assert os.listdir(tmp_path) == ["m.ckpt"]
    for (_, a), (_, b) in zip(ckpt.params, loaded.params):
        assert np.array_equal(a.astype(np.float32), b)
    for a, b in zip(ckpt.adam.m + ckpt.adam.v, loaded.adam.m + loaded.adam.v):
        assert np.array_equal(a.astype(np.float32), b)
    _assert_same_checkpoint(load_checkpoint(path), _rounded(other))


def test_saving_through_a_symlink_replaces_its_target(tmp_path):
    ckpt, path = _saved_with_adam(tmp_path)
    link = tmp_path / "link.ckpt"
    link.symlink_to(path)
    save_checkpoint(dataclasses.replace(ckpt, adam=None), link)
    assert link.is_symlink()
    assert load_checkpoint(path).adam is None
    assert sorted(os.listdir(tmp_path)) == ["link.ckpt", "m.ckpt"]


def test_made_loaded_and_float32_checkpoints_save_the_serial_writers_bytes(tmp_path):
    made, path = _saved_with_adam(tmp_path)
    for ckpt in (made, load_checkpoint(path), _rounded(made)):
        _assert_writers_agree(ckpt, tmp_path)


def test_a_failed_save_raises_its_own_error_and_leaves_no_job_or_old_file(tmp_path, monkeypatch):
    ckpt, path = _saved_with_adam(tmp_path)
    unlink, pwrite = os.unlink, os.pwrite
    calls, running = [], []

    def slow_unlink(name):
        time.sleep(0.1)  # the save must wait for this job, whichever thread runs it
        unlink(name)

    def failing_pwrite(fd, data, at):
        calls.append(at)
        running.append(None)
        try:
            time.sleep(0.001)
            if at + len(data) > half:
                raise OSError(errno.ENOSPC, "disk full (injected)")
            return pwrite(fd, data, at)
        finally:
            running.pop()

    monkeypatch.setattr(os, "unlink", slow_unlink)
    for saving in (ckpt, dataclasses.replace(ckpt, adam=None)):
        save_checkpoint(saving, path)
        half = path.stat().st_size // 2
        with monkeypatch.context() as patch:
            # many small jobs of slow writes, lent to the pool, so the failure
            # lands while other jobs run
            patch.setattr(training, "_SAVE_CHUNK", 50)
            patch.setattr(training, "_LEND_FROM", 0)
            patch.setattr(os, "pwrite", failing_pwrite)
            with pytest.raises(OSError, match="injected") as err:
                save_checkpoint(saving, path)
            assert err.value.errno == errno.ENOSPC
            assert not running
            written = len(calls)
            time.sleep(0.05)
            assert len(calls) == written  # and no job starts after the call returned
        # the pass's first job unlinked the old file, and the new one, with
        # holes where values were not written, is removed too
        assert os.listdir(tmp_path) == []
    # the pool is free: an Adam step and another save both succeed
    model, _, _, _ = _small_setup(seed=4)
    params = model.params()
    for p in params:
        p.grad = np.ones(p.data.shape)
    adam_step(params, AdamState.create(params), lr=0.001)
    save_checkpoint(ckpt, path)
    assert os.listdir(tmp_path) == ["m.ckpt"]
    _assert_same_checkpoint(load_checkpoint(path), _rounded(ckpt))


def test_a_save_killed_after_its_pass_leaves_a_file_that_fails_to_load(tmp_path, monkeypatch):
    ckpt, path = _saved_with_adam(tmp_path)
    seen, run = [], training._run

    def run_then_load(jobs, values):
        run(jobs, values)
        # every value is in place, and the file has its full length
        assert path.stat().st_size == want.stat().st_size
        with pytest.raises(FormatError, match="bad magic"):
            load_checkpoint(path)
        seen.append(values)

    monkeypatch.setattr(training, "_run", run_then_load)
    want = tmp_path / "serial.ckpt"
    for saving in (ckpt, dataclasses.replace(ckpt, adam=None)):
        oracles.save_checkpoint(saving, want)
        save_checkpoint(saving, path)
        assert path.read_bytes() == want.read_bytes()
    assert len(seen) == 2


@pytest.mark.parametrize("fail", ["open", "header"])
def test_a_save_that_fails_before_its_pass_puts_the_old_file_back(tmp_path, monkeypatch, fail):
    ckpt, path = _saved_with_adam(tmp_path)
    blob = path.read_bytes()

    def failing(*args, **kwargs):
        raise PermissionError(errno.EACCES, "no access (injected)")

    # the existing file is set aside before the new one is opened, and the
    # arrays' shapes are written after it is
    name = "open" if fail == "open" else "_leave_gap"
    monkeypatch.setattr(training, name, failing, raising=False)
    with pytest.raises(PermissionError, match="injected"):
        save_checkpoint(dataclasses.replace(ckpt, adam=None), path)
    assert os.listdir(tmp_path) == ["m.ckpt"]
    assert path.read_bytes() == blob


def test_a_save_whose_jobs_run_in_reverse_writes_the_serial_writers_bytes(tmp_path, monkeypatch):
    ckpt, path = _saved_with_adam(tmp_path)
    passes, run = [], training._run

    def reversed_run(jobs, values):
        passes.append(len(jobs))
        run(jobs[::-1], values)

    monkeypatch.setattr(training, "_SAVE_CHUNK", 50)
    monkeypatch.setattr(training, "_run", reversed_run)
    save_checkpoint(ckpt, path)  # over the first save, so the unlink job runs last
    assert len(passes) == 1 and passes[0] > 2
    want = tmp_path / "serial.ckpt"
    oracles.save_checkpoint(ckpt, want)
    assert path.read_bytes() == want.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["m.ckpt", "serial.ckpt"]


def test_saving_over_a_directory_raises_and_leaves_it(tmp_path):
    ckpt, _ = _saved_with_adam(tmp_path)
    (tmp_path / "d").mkdir()
    with pytest.raises(IsADirectoryError):
        save_checkpoint(ckpt, tmp_path / "d")
    assert sorted(os.listdir(tmp_path)) == ["d", "m.ckpt"]


def _rounding_cases(n, rng):
    """``n`` float64 values whose float32 rounding is delicate, in random order."""
    f32_max = float(np.finfo(np.float32).max)
    x = rng.normal(size=64).astype(np.float32)
    ties = (x.astype(np.float64) + np.nextafter(x, np.inf).astype(np.float64)) / 2
    tiny = 2.0**-149  # the smallest float32 subnormal
    subnormals = np.array([tiny / 2, 3 * tiny / 2, tiny / 3, 5 * tiny, 2.0**-127 * 1.3])
    ulp = 2.0**104  # float32's spacing at its maximum
    overflows = np.array([f32_max + ulp / 4, f32_max + ulp / 2, 1e39, 1e300])
    special = np.concatenate([ties, subnormals, -subnormals, overflows, -overflows])
    values = rng.normal(scale=1e3, size=n)
    k = min(n, special.size)
    values[rng.choice(n, k, replace=False)] = special[:k]
    return values


def test_saving_a_made_checkpoint_rounds_like_its_float32_copy(tmp_path, monkeypatch):
    job = 1000
    rng = np.random.default_rng(12)
    _, _, src_vocab, tgt_vocab = _small_setup()
    sizes = [0, 1, job - 1, job, job + 1]
    arrays = [_rounding_cases(n, rng) for n in sizes]
    arrays.append(_rounding_cases(3 * (job // 2 + 1), rng).reshape(3, -1))
    # written as it is, between two float64 arrays
    arrays.insert(2, rng.normal(size=7).astype(np.float32))
    made = Checkpoint(
        encoder_kind="lstm",
        dim=1,
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        params=[(f"a{i}", a) for i, a in enumerate(arrays)],
        adam=AdamState(m=[a[::-1] for a in arrays], v=[-a for a in arrays], t=4),
    )
    with np.errstate(over="ignore"):
        copy = _rounded(made)
    copy_path = tmp_path / "copy.ckpt"
    save_checkpoint(copy, copy_path)
    # jobs of 1000 values on this thread alone and lent to the pool, and jobs of 300
    for save_chunk, lend_from in ((job, training._LEND_FROM), (job, 0), (300, 0)):
        monkeypatch.setattr(training, "_SAVE_CHUNK", save_chunk)
        monkeypatch.setattr(training, "_LEND_FROM", lend_from)
        made_path = tmp_path / f"made-{save_chunk}-{lend_from}.ckpt"
        with np.errstate(over="ignore"):
            save_checkpoint(made, made_path)
            _assert_writers_agree(made, tmp_path)
        assert made_path.read_bytes() == copy_path.read_bytes()
    assert np.isinf(copy.params[-1][1]).any() and (copy.params[-1][1] == 0).any()
    _assert_same_checkpoint(load_checkpoint(made_path), copy)


def test_restoring_a_made_checkpoint_equals_restoring_the_saved_one(tmp_path):
    ckpt, path = _saved_with_adam(tmp_path)
    loaded = load_checkpoint(path)
    for (_, a), (_, b) in zip(
        restore_model(ckpt).named_params(), restore_model(loaded).named_params()
    ):
        assert a.data.dtype == b.data.dtype == np.float64
        assert a.data.tobytes() == b.data.tobytes()
    made, saved = restore_adam(ckpt), restore_adam(loaded)
    for a, b in zip(made.m + made.v, saved.m + saved.v):
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()


def test_train_best_stays_frozen_while_training_resumes():
    rng = np.random.default_rng(78)
    corpus = toy_tasks.copy_pairs(rng, 12, min_len=3, max_len=4)
    dev = toy_tasks.copy_pairs(rng, 4, min_len=3, max_len=4)
    config = _loop_config(max_epochs=2)
    first = train(config, corpus, dev, epochs=1)
    best = [a.copy() for _, a in first.best.params]
    weights = [p.data.copy() for p in first.model.params()]
    train(
        config,
        corpus,
        dev,
        model=first.model,
        src_vocab=first.src_vocab,
        tgt_vocab=first.tgt_vocab,
        adam=first.adam,
        records=first.records,
        best=first.best,
        epochs=1,
    )
    assert not all(np.array_equal(a, p.data) for a, p in zip(weights, first.model.params()))
    for (_, a), b in zip(first.best.params, best):
        assert a.dtype == np.float32
        assert a.tobytes() == b.tobytes()


def test_train_reuses_the_arrays_of_its_own_best_snapshot_never_a_callers(monkeypatch):
    rng = np.random.default_rng(79)
    corpus = toy_tasks.copy_pairs(rng, 12, min_len=3, max_len=4)
    dev = toy_tasks.copy_pairs(rng, 4, min_len=3, max_len=4)
    config = _loop_config(max_epochs=4)
    # every epoch wins the selection, so every epoch takes a snapshot
    monkeypatch.setattr(training, "select_model", lambda records, *rule: records[-1].epoch)
    snapshots, round_into = [], training._round_into

    def recorded(pairs):
        pairs = list(pairs)
        snapshots.append([dst for dst, _ in pairs])
        round_into(pairs)

    monkeypatch.setattr(training, "_round_into", recorded)

    def assert_snapshot_of_weights(result, arrays):
        assert len(result.best.params) == len(arrays)
        assert all(a is b for (_, a), b in zip(result.best.params, arrays))
        for (_, snap), p in zip(result.best.params, result.model.params()):
            assert snap.dtype == np.float32
            assert snap.tobytes() == p.data.astype(np.float32).tobytes()

    first = train(config, corpus, dev, epochs=2)
    assert len(snapshots) == 2
    assert all(a is b for a, b in zip(*snapshots))
    assert_snapshot_of_weights(first, snapshots[0])
    held = [a.copy() for _, a in first.best.params]
    second = train(
        config,
        corpus,
        dev,
        model=first.model,
        src_vocab=first.src_vocab,
        tgt_vocab=first.tgt_vocab,
        adam=first.adam,
        records=first.records,
        best=first.best,
        epochs=2,
    )
    assert len(snapshots) == 4
    assert not any(a is b for a, b in zip(snapshots[0], snapshots[2]))
    assert all(a is b for a, b in zip(snapshots[2], snapshots[3]))
    assert_snapshot_of_weights(second, snapshots[2])
    for (_, a), b in zip(first.best.params, held):
        assert a.tobytes() == b.tobytes()


def _wide_vocab():
    """A vocabulary whose dim-4 output layer, [V, 8], spans more chunks than the pool has threads."""
    return Vocabulary.from_tokens(
        list(toy_tasks.COPY_WORDS) + [f"x{i}" for i in range(_chunks_past_the_pool(0) // 8)]
    )


def test_restore_widens_like_astype_from_loaded_and_made_checkpoints(tmp_path):
    rng = np.random.default_rng(21)
    vocab = _wide_vocab()
    model = build_model("lstm", 4, vocab.size, vocab.size, rng)
    assert model.decoder.out_w.data.size % training._CHUNK  # a short tail chunk
    state = AdamState.create(model.params())
    arrays = [p.data for p in model.params()] + state.m + state.v
    for a in arrays:
        a[...] = _rounding_cases(a.size, rng).reshape(a.shape)
    made = make_checkpoint(model, vocab, vocab, adam=state)
    path = tmp_path / "m.ckpt"
    with np.errstate(over="ignore"):
        save_checkpoint(made, path)
        want = [a.astype(np.float32).astype(np.float64).tobytes() for a in arrays]
        for ckpt in (made, load_checkpoint(path)):
            back, adam = restore_model(ckpt), restore_adam(ckpt)
            got = [p.data for p in back.params()] + adam.m + adam.v
            assert all(a.dtype == np.float64 for a in got)
            assert [a.tobytes() for a in got] == want


def test_train_best_snapshot_is_the_float32_rounding_of_the_weights():
    rng = np.random.default_rng(23)
    corpus = toy_tasks.copy_pairs(rng, 4, min_len=3, max_len=4)
    dev = toy_tasks.copy_pairs(rng, 2, min_len=3, max_len=4)
    vocab = _wide_vocab()
    config = _loop_config(dim=4, max_epochs=1, max_decode_len=4)
    result = train(config, corpus, dev, src_vocab=vocab, tgt_vocab=vocab)
    for (_, snap), p in zip(result.best.params, result.model.params()):
        assert snap.dtype == np.float32
        assert snap.tobytes() == p.data.astype(np.float32).tobytes()


def test_load_rejects_a_moment_shaped_unlike_its_parameter(tmp_path):
    _, _, src_vocab, tgt_vocab = _small_setup()
    ckpt = Checkpoint(
        encoder_kind="lstm",
        dim=1,
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        params=[("a", np.ones((10, 4))), ("b", np.ones(3))],
        adam=AdamState(m=[np.ones((10, 4)), np.ones(3)], v=[np.ones(3), np.ones(3)], t=1),
    )
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    # the first v moment's record (rank, one dim, 3 floats) starts before the last one's
    at = path.stat().st_size - 2 * (4 + 4 + 3 * 4)
    for load in (load_checkpoint, oracles.load_checkpoint):
        with pytest.raises(FormatError, match=r"shape \(3,\), expected \(10, 4\)") as err:
            load(path)
        assert err.value.offset == at


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes traced while it ran, above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - start


def _make_and_save(model, vocab, adam, path):
    save_checkpoint(make_checkpoint(model, vocab, vocab, adam=adam), path)


def test_checkpoint_save_and_load_stream_without_staging_copies(tmp_path):
    vocab = Vocabulary.from_tokens(f"w{i}" for i in range(4000))
    model = build_model("lstm", 32, vocab.size, vocab.size, np.random.default_rng(6))
    adam = AdamState.create(model.params())
    path = tmp_path / "m.ckpt"
    _, save_peak = _traced_peak(_make_and_save, model, vocab, adam, path)
    file_bytes = path.stat().st_size
    array_bytes = 3 * sum(4 * p.data.size for p in model.params())  # parameters, m and v
    assert file_bytes > 4_000_000
    # Making and saving hold one job's float32 values per running thread (512
    # KiB at 2^17 values) and one packed vocabulary (about 40 KB here) at a
    # time: about 16% of this 6.7 MB file on 2 CPUs.  A float32 copy of the
    # parameters and moments made before writing would be about the whole file.
    jobs = sum(-(-p.data.size // training._SAVE_CHUNK) for p in model.params())
    at_once = min(len(os.sched_getaffinity(0)), 3 * jobs)
    job_bytes = 4 * training._SAVE_CHUNK
    assert save_peak < at_once * job_bytes + 0.03 * file_bytes, (save_peak, file_bytes)
    # the vocabularies are the load's own objects; the arrays add next to nothing
    vocab_only = tmp_path / "vocab.ckpt"
    ckpt = make_checkpoint(model, vocab, vocab, adam=adam)
    save_checkpoint(dataclasses.replace(ckpt, params=[], adam=None), vocab_only)
    _, vocab_peak = _traced_peak(load_checkpoint, vocab_only)
    loaded, load_peak = _traced_peak(load_checkpoint, path)
    assert load_peak - vocab_peak < 0.05 * array_bytes, (load_peak, vocab_peak, array_bytes)
    for (_, a), (_, b) in zip(ckpt.params, loaded.params):
        assert np.array_equal(a.astype(np.float32), b)


# ---------------------------------------------------------------------------
# decoding and scoring


@pytest.mark.parametrize("kind", ["lstm", "nse"])
@pytest.mark.parametrize("beam", [1, 3])
def test_dev_decode_scores_matches_a_local_decode_loop(kind, beam):
    model, corpus, src_vocab, tgt_vocab = _small_setup(kind=kind, dim=6, seed=4)
    # a sharper output layer makes beam 3 find other outputs than greedy, and
    # favouring the unknown token makes replacement from the source happen
    model.decoder.out_w.data *= 30.0
    model.decoder.out_b.data[UNK_ID] += 1.0
    sources = [src + ["zz-unseen"] for src, _ in corpus.pairs[:6]]
    references = [[tgt, tgt[::-1]] for _, tgt in corpus.pairs[:6]]
    # one call decodes each source at every beam, in the order given
    beams = [beam, 4 - beam, beam]
    want = []
    for beam in beams:
        instances = []
        for src, refs in zip(sources, references):
            session = DecodeSession(model, src_vocab.encode(src))
            if beam == 1:
                hyp = greedy_decode(session, 7)
            else:
                hyp = beam_decode(session, beam, 7)
            out = replace_unks(hyp, src, tgt_vocab)
            instances.append(EvalInstance(source=src, output=out, references=refs))
        assert any("zz-unseen" in i.output for i in instances)
        want.append((bleu_corpus(instances).score, sari_corpus(instances).score))
    assert want[0] != want[1]
    got = dev_decode_scores(model, sources, references, src_vocab, tgt_vocab, 7, beams)
    assert got == want


def test_dev_decode_scores_encodes_each_source_once(monkeypatch):
    model, corpus, src_vocab, tgt_vocab = _small_setup()
    sessions = []

    class CountedSession(DecodeSession):
        def __init__(self, *args):
            super().__init__(*args)
            sessions.append(self)

    monkeypatch.setattr("nsesimp.training.DecodeSession", CountedSession)
    sources = [src for src, _ in corpus.pairs[:4]]
    references = [[tgt] for _, tgt in corpus.pairs[:4]]
    scores = dev_decode_scores(model, sources, references, src_vocab, tgt_vocab, 5, [1, 3, 5])
    assert len(scores) == 3
    assert len(sessions) == len(sources)


def test_decode_tokens_of_empty_source_is_empty():
    model, _, src_vocab, tgt_vocab = _small_setup()
    assert decode_tokens(model, [], src_vocab, tgt_vocab) == [[]]
    assert decode_tokens(model, [], src_vocab, tgt_vocab, beams=[3, 1]) == [[], []]


# ---------------------------------------------------------------------------
# the loop


def _loop_config(**overrides):
    base = dict(
        encoder_kind="lstm",
        dim=8,
        vocab_size=100,
        lr=0.005,
        batch_size=8,
        dropout=0.0,
        max_epochs=5,
        seed=13,
        max_decode_len=15,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_train_reduces_loss_and_logs_epochs():
    rng = np.random.default_rng(42)
    corpus = toy_tasks.copy_pairs(rng, 30, min_len=3, max_len=5)
    dev = toy_tasks.copy_pairs(rng, 8, min_len=3, max_len=5)
    lines = []
    result = train(_loop_config(), corpus, dev, log=lines.append)
    assert [r.epoch for r in result.records] == [1, 2, 3, 4, 5]
    assert result.records[-1].mean_loss < result.records[0].mean_loss
    assert len(lines) == 5 and "epoch=1" in lines[0]
    assert isinstance(result.best, Checkpoint)
    assert result.best.params[0][1].dtype == np.float32
    assert result.best.adam is None  # the served snapshot carries no optimizer state
    assert result.best.epoch in range(1, 6)


def test_train_resume_matches_single_run():
    rng = np.random.default_rng(77)
    corpus = toy_tasks.copy_pairs(rng, 20, min_len=3, max_len=4)
    dev = toy_tasks.copy_pairs(rng, 5, min_len=3, max_len=4)
    config = _loop_config(max_epochs=4, dropout=0.1)

    straight = train(config, corpus, dev)

    first = train(config, corpus, dev, epochs=2)
    resumed = train(
        config,
        corpus,
        dev,
        model=first.model,
        src_vocab=first.src_vocab,
        tgt_vocab=first.tgt_vocab,
        adam=first.adam,
        records=first.records,
        best=first.best,
        epochs=2,
    )
    assert len(resumed.records) == 4
    for a, b in zip(straight.records, resumed.records):
        assert a.epoch == b.epoch
        assert a.mean_loss == b.mean_loss
        assert a.dev_bleu == b.dev_bleu and a.dev_sari == b.dev_sari
    for (name_a, pa), (name_b, pb) in zip(
        straight.model.named_params(), resumed.model.named_params()
    ):
        assert name_a == name_b
        assert np.array_equal(pa.data, pb.data), name_a


def test_train_releases_gradients_after_each_step(monkeypatch):
    rng = np.random.default_rng(79)
    corpus = toy_tasks.copy_pairs(rng, 12, min_len=3, max_len=4)
    dev = toy_tasks.copy_pairs(rng, 4, min_len=3, max_len=4)
    held_at_dev_decode = []

    def dev_decode(model, *args, **kwargs):
        held_at_dev_decode.append([p.grad is not None for p in model.params()])
        return dev_decode_scores(model, *args, **kwargs)

    monkeypatch.setattr("nsesimp.training.dev_decode_scores", dev_decode)
    result = train(_loop_config(max_epochs=2), corpus, dev)
    assert len(held_at_dev_decode) == 2
    assert not any(any(held) for held in held_at_dev_decode)
    assert all(p.grad is None for p in result.model.params())


def test_train_ignores_gradients_its_caller_left_behind():
    rng = np.random.default_rng(80)
    corpus = toy_tasks.copy_pairs(rng, 12, min_len=3, max_len=4)
    dev = toy_tasks.copy_pairs(rng, 4, min_len=3, max_len=4)
    config = _loop_config(max_epochs=1)
    src_vocab = training.build_vocab(corpus.source_sentences(), config.vocab_size)
    tgt_vocab = training.build_vocab(corpus.target_sentences(), config.vocab_size)
    results = []
    for stale in (False, True):
        model = training.initial_model(config, src_vocab.size, tgt_vocab.size)
        if stale:
            for p in model.params():
                p.grad = np.full(p.shape, 0.5)
        results.append(
            train(config, corpus, dev, model=model, src_vocab=src_vocab, tgt_vocab=tgt_vocab)
        )
    clean, stale = (r.model.named_params() for r in results)
    for (name, a), (_, b) in zip(clean, stale):
        assert a.data.tobytes() == b.data.tobytes(), name


def test_train_rejects_empty_corpora():
    rng = np.random.default_rng(1)
    corpus = toy_tasks.copy_pairs(rng, 4)
    from nsesimp.data import ParallelCorpus

    with pytest.raises(ConfigError):
        train(_loop_config(), ParallelCorpus([]), corpus)
    with pytest.raises(ConfigError):
        train(_loop_config(), corpus, ParallelCorpus([]))


def test_train_stops_at_max_epochs_even_when_resumed():
    rng = np.random.default_rng(5)
    corpus = toy_tasks.copy_pairs(rng, 8, min_len=3, max_len=4)
    dev = toy_tasks.copy_pairs(rng, 3, min_len=3, max_len=4)
    config = _loop_config(max_epochs=2)
    result = train(config, corpus, dev, epochs=10)
    assert len(result.records) == 2
    again = train(
        config,
        corpus,
        dev,
        model=result.model,
        src_vocab=result.src_vocab,
        tgt_vocab=result.tgt_vocab,
        adam=result.adam,
        records=result.records,
        best=result.best,
        epochs=5,
    )
    assert len(again.records) == 2
    assert again.best.epoch == result.best.epoch
