"""Acceptance suite: one marked test class per numbered criterion.

The shared conftest collects the ``criterion`` markers and prints a PASS or
FAIL line per criterion after the run.  Every tolerance and time budget is
asserted inside the tests themselves, so a green run is the whole story.
"""

import copy
import pathlib
import time

import numpy as np
import pytest

import oracles
import toy_tasks
from test_search import MarkovSession, enumerate_best, random_markov

from nsesimp import autodiff as ad
from nsesimp import layers
from nsesimp.autodiff import Tensor, grad_check
from nsesimp.data import EOS_ID, UNK_ID, Batch, ParallelCorpus, Vocabulary
from nsesimp.encoders import EncoderOutput, memory_retrieve, memory_update
from nsesimp.errors import FormatError
from nsesimp.layers import EmbeddingTable, LstmCellParams, MlpParams
from nsesimp.metrics import EvalInstance, bleu_corpus, sari_corpus, sari_instance
from nsesimp.model import DecodeSession, build_model
from nsesimp.search import Hypothesis, beam_decode, greedy_decode, replace_unks
from nsesimp.training import (
    AdamState,
    EpochRecord,
    TrainConfig,
    batch_loss,
    load_checkpoint,
    make_checkpoint,
    preset_config,
    restore_model,
    save_checkpoint,
    select_model,
    sentence_loss,
    train,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity


def _op_checks():
    """(name, params, scalar function) triples covering every differentiable op.

    Outputs are folded to a scalar through a fixed positive probe matrix so
    that no gradient component is hidden by symmetry.  All random tensors and
    probes are drawn once, outside the closures, keeping every function
    deterministic across repeated calls.
    """
    rng = np.random.default_rng(10)

    def uni(*shape):
        return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)

    def pos(*shape):
        return Tensor(rng.uniform(0.5, 1.5, size=shape), requires_grad=True)

    def ws(x, w):
        return ad.sum_all(ad.mul(x, w))

    checks = []

    def check(name, params, fn):
        checks.append((name, params, fn))

    x, y, w = uni(3, 4), uni(3, 4), pos(3, 4)
    check("add same-shape", [x, y], lambda x=x, y=y, w=w: ws(ad.add(x, y), w))
    x, v, w = uni(3, 4), uni(4), pos(3, 4)
    check("add row-broadcast", [x, v], lambda x=x, v=v, w=w: ws(ad.add(x, v), w))
    x, y, w = uni(3, 4), uni(3, 4), pos(3, 4)
    check("sub same-shape", [x, y], lambda x=x, y=y, w=w: ws(ad.sub(x, y), w))
    x, c, w = uni(3, 4), uni(3, 1), pos(3, 4)
    check("sub col-broadcast", [x, c], lambda x=x, c=c, w=w: ws(ad.sub(x, c), w))
    x, y, w = uni(3, 4), uni(3, 4), pos(3, 4)
    check("mul same-shape", [x, y], lambda x=x, y=y, w=w: ws(ad.mul(x, y), w))
    x, v, w = uni(3, 4), uni(4), pos(3, 4)
    check("mul row-broadcast", [x, v], lambda x=x, v=v, w=w: ws(ad.mul(x, v), w))

    a, b, w = uni(3, 4), uni(4, 5), pos(3, 5)
    check("matmul mat-mat", [a, b], lambda a=a, b=b, w=w: ws(ad.matmul(a, b), w))

    x, w = uni(3, 4), pos(3, 4)
    check("sigmoid", [x], lambda x=x, w=w: ws(ad.sigmoid(x), w))
    check("tanh", [x], lambda x=x, w=w: ws(ad.tanh(x), w))
    x, w = uni(3, 5), pos(3, 5)
    check("softmax rows", [x], lambda x=x, w=w: ws(ad.softmax_rows(x), w))
    check("log-softmax rows", [x], lambda x=x, w=w: ws(ad.log_softmax_rows(x), w))

    a, b, w = uni(2, 4), uni(2, 3), pos(2, 7)
    check("concat", [a, b], lambda a=a, b=b, w=w: ws(ad.concat(a, b), w))
    x, w = uni(2, 8), pos(2, 4)
    check("narrow", [x], lambda x=x, w=w: ws(ad.narrow(x, 2, 6), w))
    x, w = uni(3, 4), pos(2, 6)
    check("reshape", [x], lambda x=x, w=w: ws(ad.reshape(x, (2, 6)), w))
    a, b, c, w = uni(1, 4), uni(1, 4), uni(1, 4), pos(3, 4)
    check(
        "stack rows",
        [a, b, c],
        lambda a=a, b=b, c=c, w=w: ws(ad.stack_rows([a, b, c]), w),
    )
    m, w = uni(6, 4), pos(4, 4)
    check(
        "take rows (repeated ids)",
        [m],
        lambda m=m, w=w: ws(ad.take_rows(m, [0, 2, 2, 5]), w),
    )
    m, w = uni(3, 5), pos(3)
    check("gather one per row", [m], lambda m=m, w=w: ws(ad.gather_rows(m, [1, 0, 4]), w))
    x = uni(3, 4)
    check("sum all", [x], lambda x=x: ad.sum_all(x))
    x, w = uni(3, 4), pos(3, 4)
    check("scale", [x], lambda x=x, w=w: ws(ad.scale(x, -2.5), w))
    x, w = uni(4, 6), pos(4, 6)
    check(
        "dropout (fixed mask)",
        [x],
        lambda x=x, w=w: ws(ad.dropout(x, 0.4, True, np.random.default_rng(99)), w),
    )

    table = EmbeddingTable.create(6, 4, rng)
    w = pos(3, 4)
    check(
        "embedding lookup (repeated ids)",
        [t for _, t in table.named_params("emb")],
        lambda table=table, w=w: ws(layers.embed(table, [1, 3, 1]), w),
    )
    cell = LstmCellParams.create(4, 3, rng)
    x, h, c = uni(1, 4), uni(1, 3), uni(1, 3)
    w1, w2 = pos(1, 3), pos(1, 3)
    def lstm_fn(cell=cell, x=x, h=h, c=c, w1=w1, w2=w2):
        h2, c2 = layers.lstm_step(cell, x, h, c)
        return ad.add(ws(h2, w1), ws(c2, w2))
    check(
        "lstm step",
        [t for _, t in cell.named_params("cell")] + [x, h, c],
        lstm_fn,
    )
    net = MlpParams.create(5, 4, 6, rng)
    x, w = uni(1, 5), pos(1, 6)
    check(
        "two-layer perceptron",
        [t for _, t in net.named_params("net")] + [x],
        lambda net=net, x=x, w=w: ws(layers.mlp(net, x), w),
    )
    W, b, x, w = uni(3, 4), uni(3), uni(1, 4), pos(1, 3)
    check("affine map", [W, b, x], lambda W=W, b=b, x=x, w=w: ws(layers.linear(W, b, x), w))
    W, b, x, w = uni(3, 4), uni(3), uni(2, 4), pos(2, 3)
    check(
        "row-wise affine map",
        [W, b, x],
        lambda W=W, b=b, x=x, w=w: ws(layers.linear(W, b, x), w),
    )

    mem, read_h = uni(4, 3), uni(1, 3)
    w1, w2 = pos(1, 4), pos(1, 3)
    def retrieve_fn(mem=mem, read_h=read_h, w1=w1, w2=w2):
        weights, summary = memory_retrieve(read_h, mem)
        return ad.add(ws(weights, w1), ws(summary, w2))
    check("memory read", [mem, read_h], retrieve_fn)
    mem, wts, wr = uni(4, 3), pos(1, 4), uni(1, 3)
    w = pos(4, 3)
    check(
        "memory write",
        [mem, wts, wr],
        lambda mem=mem, wts=wts, wr=wr, w=w: ws(memory_update(mem, wts, wr), w),
    )
    # two sentences of three steps, time-major; the second has one padding step
    mem, read_h, keep = uni(6, 3), uni(2, 3), np.array([[1, 1, 1], [1, 1, 0]], dtype=bool)
    w1, w2 = pos(2, 3), pos(2, 3)
    def batched_retrieve_fn(mem=mem, read_h=read_h, keep=keep, w1=w1, w2=w2):
        weights, summary = memory_retrieve(read_h, mem, keep)
        return ad.add(ws(weights, w1), ws(summary, w2))
    check("memory read, two sentences", [mem, read_h], batched_retrieve_fn)
    mem, wts, wr = uni(6, 3), pos(2, 3), uni(2, 3)
    w = pos(6, 3)
    check(
        "memory write, two sentences",
        [mem, wts, wr],
        lambda mem=mem, wts=wts, wr=wr, w=w: ws(memory_update(mem, wts, wr), w),
    )
    # padding slots: exact zeros, no gradient
    x, w = uni(3, 5), pos(3, 5)
    keep = np.array([[1, 0, 1, 1, 0], [0, 0, 0, 1, 0], [1, 1, 1, 1, 1]], dtype=bool)
    check(
        "masked softmax rows",
        [x],
        lambda x=x, w=w, keep=keep: ws(ad.softmax_rows(x, keep), w),
    )
    return checks


def _full_model_checks():
    """Teacher-forced sentence losses over every parameter of both models."""
    out = []
    for kind, seed in (("lstm", 11), ("nse", 12)):
        model = build_model(kind, 4, 7, 7, np.random.default_rng(seed))
        src, tgt = [4, 5, 6], [5, 6, 4]
        names = [n for n, _ in model.named_params()]
        out.append(
            (
                f"{kind} model loss",
                model.params(),
                names,
                lambda m=model, s=src, g=tgt: sentence_loss(m, s, g),
            )
        )
        out.append(
            (
                f"{kind} model loss with dropout active",
                model.params(),
                names,
                lambda m=model, s=src, g=tgt: sentence_loss(
                    m, s, g, dropout_rate=0.3, training=True,
                    rng=np.random.default_rng(77),
                ),
            )
        )
        # two sentences of unequal lengths in one padded graph
        batch = Batch.from_ids([(src, tgt), ([6], [4])])
        out.append(
            (
                f"{kind} model padded batch loss",
                model.params(),
                names,
                lambda m=model, b=batch: batch_loss(m, b),
            )
        )
    return out


@pytest.mark.criterion(1)
class TestGradientIntegrity:
    def test_every_op_and_both_models_match_finite_differences(self):
        t0 = time.perf_counter()
        failures = []
        for name, params, fn in _op_checks():
            report = grad_check(fn, params, tol=1e-4)
            if not report.ok:
                failures.append(f"{name}: worst relative error {report.max_error:.3e}")
        for name, params, names, fn in _full_model_checks():
            report = grad_check(fn, params, tol=1e-4, names=names)
            if not report.ok:
                failures.append(
                    f"{name}: {report.failures} worst {report.max_error:.3e}"
                )
        elapsed = time.perf_counter() - t0
        assert not failures, failures
        assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s, budget is 60s"


# ---------------------------------------------------------------------------
# criterion 2: memory access algebra


@pytest.mark.criterion(2)
class TestMemoryAlgebra:
    def test_thousand_random_read_write_steps(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            slots = int(rng.integers(2, 7))
            dim = int(rng.integers(2, 6))
            memory = Tensor(rng.normal(size=(slots, dim)))
            read_h = Tensor(rng.normal(size=(1, dim)))
            weights, summary = memory_retrieve(read_h, memory)
            w = weights.data
            assert abs(float(w.sum()) - 1.0) <= 1e-12
            assert np.all(w >= 0.0)
            # the summary is a convex combination of the rows, so it lies
            # inside the per-column envelope of the memory
            low = memory.data.min(axis=0) - 1e-12
            high = memory.data.max(axis=0) + 1e-12
            assert np.all(summary.data >= low) and np.all(summary.data <= high)
            written = Tensor(rng.normal(size=(1, dim)))
            updated = memory_update(memory, weights, written).data
            # each new row sits on the segment between its old value and the
            # written row
            for i in range(slots):
                seg_lo = np.minimum(memory.data[i], written.data[0]) - 1e-12
                seg_hi = np.maximum(memory.data[i], written.data[0]) + 1e-12
                assert np.all(updated[i] >= seg_lo) and np.all(updated[i] <= seg_hi)

    def test_one_hot_weights_replace_exactly_one_row(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            slots = int(rng.integers(2, 7))
            dim = int(rng.integers(2, 6))
            memory = Tensor(rng.normal(size=(slots, dim)))
            written = Tensor(rng.normal(size=(1, dim)))
            hot = int(rng.integers(0, slots))
            one_hot = np.zeros((1, slots))
            one_hot[0, hot] = 1.0
            updated = memory_update(memory, Tensor(one_hot), written).data
            assert np.allclose(updated[hot], written.data[0], atol=1e-12)
            for i in range(slots):
                if i != hot:
                    assert np.array_equal(updated[i], memory.data[i])

    def test_uniform_weights_read_the_column_mean(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            slots = int(rng.integers(2, 7))
            dim = int(rng.integers(2, 6))
            memory = Tensor(rng.normal(size=(slots, dim)))
            uniform = Tensor(np.full((1, slots), 1.0 / slots))
            summary = ad.matmul(uniform, memory).data
            assert np.allclose(summary[0], memory.data.mean(axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# criterion 3: toy-task learning


def _token_accuracy(model, corpus, src_vocab, tgt_vocab, max_len):
    """Greedy-decode and count per-position token matches against targets."""
    match = 0
    total = 0
    for src, tgt in corpus.pairs:
        hyp = greedy_decode(DecodeSession(model, src_vocab.encode(src)), max_len)
        out = replace_unks(hyp, src, tgt_vocab)
        match += sum(1 for a, b in zip(out, tgt) if a == b)
        total += max(len(out), len(tgt))
    return match / total


@pytest.mark.criterion(3)
class TestToyTaskLearning:
    def test_copy_task_reaches_low_loss_and_high_held_out_accuracy(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2025)
        full = toy_tasks.copy_pairs(rng, 250, min_len=3, max_len=8)
        train_c = ParallelCorpus(full.pairs[:200])
        held = ParallelCorpus(full.pairs[200:250])
        config = TrainConfig(
            encoder_kind="lstm", dim=32, vocab_size=100, lr=1e-3, batch_size=1,
            dropout=0.0, max_epochs=300, seed=7, max_decode_len=12,
        )
        kwargs = {}
        while True:
            result = train(config, train_c, held, epochs=10, **kwargs)
            kwargs = dict(
                model=result.model, src_vocab=result.src_vocab,
                tgt_vocab=result.tgt_vocab, adam=result.adam,
                records=result.records, best=result.best,
            )
            epoch = result.records[-1].epoch
            loss = result.records[-1].mean_loss
            acc = _token_accuracy(
                result.model, held, result.src_vocab, result.tgt_vocab, 12
            )
            if (loss < 0.1 and acc >= 0.95) or epoch >= 300:
                break
        elapsed = time.perf_counter() - t0
        print(
            f"copy task: epoch={epoch} loss={loss:.4f} "
            f"held-out token accuracy={acc:.3f} elapsed={elapsed:.0f}s"
        )
        assert loss < 0.1, f"training loss {loss:.4f} still above 0.1 at epoch {epoch}"
        assert acc >= 0.95, f"held-out token accuracy {acc:.3f} below 0.95"
        assert elapsed < 600.0, f"copy task took {elapsed:.0f}s, budget is 600s"

    def test_memory_encoder_fits_deletion_as_well_as_recurrent_encoder(self):
        # Identical data, optimizer, and epoch budget for both encoder kinds;
        # the comparison is on greedy token accuracy over the learned mapping.
        # Held-out accuracy is printed for context: at this corpus size the
        # memory encoder memorizes rather than generalizes, which is why the
        # learning comparison is made on the training mapping itself.
        rng = np.random.default_rng(99)
        full = toy_tasks.deletion_pairs(rng, 150, min_len=3, max_len=6)
        train_c = ParallelCorpus(full.pairs[:120])
        held = ParallelCorpus(full.pairs[120:150])
        fit = {}
        gen = {}
        for kind in ("lstm", "nse"):
            config = TrainConfig(
                encoder_kind=kind, dim=32, vocab_size=100, lr=1e-3, batch_size=1,
                dropout=0.0, max_epochs=170, seed=5, max_decode_len=10,
            )
            result = train(config, train_c, held)
            fit[kind] = _token_accuracy(
                result.model, train_c, result.src_vocab, result.tgt_vocab, 10
            )
            gen[kind] = _token_accuracy(
                result.model, held, result.src_vocab, result.tgt_vocab, 10
            )
        print(
            "deletion task, identical budgets: "
            f"lstm fit={fit['lstm']:.4f} held-out={gen['lstm']:.4f}; "
            f"nse fit={fit['nse']:.4f} held-out={gen['nse']:.4f}"
        )
        assert fit["nse"] >= fit["lstm"], (
            f"memory encoder fit {fit['nse']:.4f} below "
            f"recurrent encoder fit {fit['lstm']:.4f}"
        )


# ---------------------------------------------------------------------------
# criterion 4: search equivalences


@pytest.fixture(scope="module")
def model_sources():
    """Thirty (random model, source ids) pairs over both encoder kinds."""
    out = []
    for i in range(30):
        rng = np.random.default_rng(400 + i)
        kind = "lstm" if i % 2 == 0 else "nse"
        vocab = int(rng.integers(7, 11))
        dim = int(rng.integers(4, 7))
        model = build_model(kind, dim, vocab, vocab, rng)
        src = [int(t) for t in rng.integers(4, vocab, size=int(rng.integers(2, 5)))]
        out.append((model, src))
    return out


@pytest.fixture(scope="module")
def model_sessions(model_sources):
    """A decode session over each of the thirty random models and sources."""
    return [DecodeSession(model, src) for model, src in model_sources]


@pytest.mark.criterion(4)
class TestSearch:
    def test_beam_one_is_bitwise_identical_to_greedy(self, model_sessions):
        rng = np.random.default_rng(40)
        cases = 0
        for _ in range(70):
            vocab = int(rng.integers(4, 9))
            session = MarkovSession(random_markov(rng, V=vocab, eos_floor=0.05))
            max_len = int(rng.integers(3, 13))
            g = greedy_decode(session, max_len)
            b = beam_decode(session, 1, max_len)
            assert b.tokens == g.tokens
            assert b.score == g.score
            assert b.finished == g.finished
            cases += 1
        for session in model_sessions:
            g = greedy_decode(session, 12)
            b = beam_decode(session, 1, 12)
            assert b.tokens == g.tokens
            assert b.score == g.score
            assert b.finished == g.finished
            for ga, ba in zip(g.alphas, b.alphas):
                assert np.array_equal(ga, ba)
            cases += 1
        assert cases == 100

    def test_sessions_decode_as_over_the_per_step_reference_encoder(
        self, model_sources, model_sessions
    ):
        # the same sessions with the one-sentence encoder output swapped for
        # the per-step reference encoder's, searched by the oracle search
        for (model, src), session in zip(model_sources, model_sessions):
            reference = copy.copy(session)
            reference.encoder_output = EncoderOutput(*oracles.encode(model, src))
            for beam in (1, 5, 10):
                if beam == 1:
                    got = greedy_decode(session, 12)
                    again = beam_decode(session, 1, 12)
                    assert (again.tokens, again.score) == (got.tokens, got.score)
                else:
                    got = beam_decode(session, beam, 12)
                    assert got.tokens == beam_decode(reference, beam, 12).tokens
                tokens, score, _, _ = oracles.beam_search(reference, beam, 12, False, EOS_ID)
                assert got.tokens == tokens
                assert abs(got.score - score) <= 1e-12 * abs(score)

    def test_wider_beam_never_scores_below_greedy(self):
        rng = np.random.default_rng(41)
        compared = 0
        for _ in range(100):
            vocab = int(rng.integers(4, 7))
            session = MarkovSession(random_markov(rng, V=vocab, eos_floor=0.25))
            g = greedy_decode(session, 12)
            if not g.finished:
                continue
            b = beam_decode(session, 10, 12)
            assert b.finished
            assert b.score >= g.score - 1e-12
            compared += 1
        assert compared >= 75
        # real models: greedy rarely ends within the cap at random init, so
        # scan seeds deterministically for sessions whose greedy run finishes
        model_compared = 0
        seed = 400
        while model_compared < 12 and seed < 1000:
            rng2 = np.random.default_rng(seed)
            kind = "lstm" if seed % 2 == 0 else "nse"
            vocab = int(rng2.integers(7, 11))
            dim = int(rng2.integers(4, 7))
            model = build_model(kind, dim, vocab, vocab, rng2)
            src = [int(t) for t in rng2.integers(4, vocab, size=int(rng2.integers(2, 5)))]
            session = DecodeSession(model, src)
            g = greedy_decode(session, 12)
            seed += 1
            if not g.finished:
                continue
            b = beam_decode(session, 10, 12)
            assert b.finished
            assert b.score >= g.score - 1e-12
            model_compared += 1
        assert model_compared >= 12

    def test_saturated_beam_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            vocab = int(rng.integers(4, 6))
            max_len = int(rng.integers(1, 5))
            session = MarkovSession(random_markov(rng, V=vocab, eos_floor=0.05))
            best_score, _ = enumerate_best(session, max_len)
            hyp = beam_decode(session, vocab**max_len, max_len)
            assert abs(hyp.score - best_score) <= 1e-12
        for i in range(4):
            rng = np.random.default_rng(4200 + i)
            kind = "lstm" if i % 2 == 0 else "nse"
            model = build_model(kind, 4, 5, 5, rng)
            session = DecodeSession(model, [4, 4])
            max_len = 3 if i < 2 else 4
            best_score, _ = enumerate_best(session, max_len)
            hyp = beam_decode(session, 5**max_len, max_len)
            assert abs(hyp.score - best_score) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 5: evaluation metrics


def _metric_instances(rng, count):
    vocab = ("a", "b", "c", "d", "e", "f")

    def sent(lo, hi):
        return [vocab[i] for i in rng.integers(0, len(vocab), int(rng.integers(lo, hi)))]

    out = []
    for _ in range(count):
        refs = [sent(1, 9) for _ in range(int(rng.integers(1, 4)))]
        out.append(EvalInstance(source=sent(1, 9), output=sent(0, 9), references=refs))
    return out


@pytest.mark.criterion(5)
class TestMetrics:
    def test_canonical_bleu_values(self):
        def inst(output, references):
            return EvalInstance(source=[], output=output, references=references)

        # 1. exact matches score 100
        report = bleu_corpus(
            [
                inst("the cat sat on the mat".split(), ["the cat sat on the mat".split()]),
                inst(
                    "a stitch in time saves nine".split(),
                    ["a stitch in time saves nine".split()],
                ),
            ]
        )
        assert abs(report.score - 100.0) <= 1e-9
        # 2. unigram clipping: "the" matches at most its reference count
        report = bleu_corpus(
            [
                inst(
                    "the the the the the the the".split(),
                    [
                        "the cat is on the mat".split(),
                        "there is a cat on the mat".split(),
                    ],
                )
            ]
        )
        assert abs(report.precisions[0] - 2.0 / 7.0) <= 1e-9
        assert report.score == 0.0
        # 3. fully disjoint output scores zero
        report = bleu_corpus([inst("w x y z".split(), ["a b c d".split()])])
        assert report.score == 0.0
        # 4. mixed precision ladder with geometric mean
        report = bleu_corpus(
            [
                inst(
                    "x the cat sat down".split(),
                    ["the cat sat down".split(), "y the cat sat".split()],
                )
            ]
        )
        for got, want in zip(report.precisions, (4 / 5, 3 / 4, 2 / 3, 1 / 2)):
            assert abs(got - want) <= 1e-9
        assert abs(report.score - 100.0 * 0.2**0.25) <= 1e-9
        # 5. brevity penalty for a short hypothesis
        report = bleu_corpus([inst("a b c d".split(), ["a b c d e f".split()])])
        assert abs(report.score - 100.0 * np.exp(-0.5)) <= 1e-9
        # 6. closest reference length, ties resolved toward the shorter
        report = bleu_corpus(
            [inst("a b c d e".split(), ["a b c d".split(), "a b c d e f".split()])]
        )
        assert report.reference_length == 4
        assert abs(report.score - 100.0) <= 1e-9

    def test_sari_matches_enumeration_oracle(self):
        rng = np.random.default_rng(50)
        instances = _metric_instances(rng, 100)
        for item in instances:
            want_score, want_add, want_keep, want_delete = oracles.sari_instance(
                item.source, item.output, item.references
            )
            got = sari_instance(item.source, item.output, item.references)
            assert abs(got.score - want_score) <= 1e-9
            assert abs(got.add - want_add) <= 1e-9
            assert abs(got.keep - want_keep) <= 1e-9
            assert abs(got.delete - want_delete) <= 1e-9
        corpus_want = oracles.sari_corpus(
            [(i.source, i.output, i.references) for i in instances]
        )
        assert abs(sari_corpus(instances).score - corpus_want) <= 1e-9

    def test_corpus_scores_ignore_instance_order(self):
        rng = np.random.default_rng(51)
        instances = _metric_instances(rng, 25)
        perm = [instances[j] for j in rng.permutation(len(instances))]
        assert abs(bleu_corpus(instances).score - bleu_corpus(perm).score) <= 1e-9
        assert (
            abs(
                bleu_corpus(instances, smooth=True).score
                - bleu_corpus(perm, smooth=True).score
            )
            <= 1e-9
        )
        assert abs(sari_corpus(instances).score - sari_corpus(perm).score) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 6: training presets


def _preset_snapshot():
    lines = []
    for corpus in ("newsela", "wikismall", "wikilarge"):
        for kind in ("lstm", "nse"):
            cfg = preset_config(corpus, encoder_kind=kind)
            lines.append(f"[{corpus} {kind}]")
            lines.append(f"embed_dim={cfg.dim}")
            lines.append(f"hidden_dim={cfg.dim}")
            lines.append(f"init_low={layers.INIT_LOW}")
            lines.append(f"init_high={layers.INIT_HIGH}")
            lines.append(f"lr={cfg.resolved_lr()}")
            lines.append(f"beta1={cfg.beta1}")
            lines.append(f"beta2={cfg.beta2}")
            lines.append(f"batch_size={cfg.batch_size}")
            lines.append(f"dropout={cfg.dropout}")
            lines.append(f"max_epochs={cfg.max_epochs}")
            lines.append("beam_sizes=" + ",".join(str(b) for b in cfg.beam_sizes))
            lines.append(f"vocab_size={cfg.vocab_size}")
            lines.append(f"sari_bleu_threshold={cfg.sari_bleu_threshold}")
            lines.append("")
    return "\n".join(lines)


@pytest.mark.criterion(6)
class TestPresets:
    def test_pinned_constants(self):
        for corpus, vocab, threshold in (
            ("newsela", 20000, 22.0),
            ("wikismall", 30000, 33.0),
            ("wikilarge", 30000, 77.0),
        ):
            for kind, lr in (("lstm", 0.001), ("nse", 0.0003)):
                cfg = preset_config(corpus, encoder_kind=kind)
                assert cfg.dim == 300
                assert cfg.resolved_lr() == lr
                assert (cfg.beta1, cfg.beta2) == (0.9, 0.999)
                assert cfg.batch_size == 32
                assert cfg.dropout == 0.3
                assert cfg.max_epochs == 40
                assert cfg.beam_sizes == (5, 10)
                assert cfg.vocab_size == vocab
                assert cfg.sari_bleu_threshold == threshold
        assert (layers.INIT_LOW, layers.INIT_HIGH) == (-0.1, 0.1)

    def test_snapshot_matches_golden_file(self):
        golden = (GOLDEN / "presets.txt").read_text(encoding="utf-8")
        assert _preset_snapshot() == golden


# ---------------------------------------------------------------------------
# criterion 7: tuned-epoch selection


def _epoch_records(rows):
    return [
        EpochRecord(epoch=i + 1, mean_loss=0.0, dev_bleu=b, dev_sari=s, seconds=0.0)
        for i, (b, s) in enumerate(rows)
    ]


@pytest.mark.criterion(7)
class TestSelectionRule:
    def test_agrees_with_brute_force_oracle_on_thousand_sets(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            n = int(rng.integers(1, 15))
            # coarse score grid so that ties are frequent
            rows = [
                (float(rng.integers(0, 9) * 5), float(rng.integers(0, 9) * 5))
                for _ in range(n)
            ]
            threshold = float(rng.integers(0, 9) * 5)
            metric = "bleu" if rng.random() < 0.5 else "sari"
            got = select_model(_epoch_records(rows), metric, threshold)
            want = oracles.select_model(rows, metric, threshold)
            assert got == want, (rows, metric, threshold)


# ---------------------------------------------------------------------------
# criterion 8: checkpoint fidelity


def _checkpoint_fixture():
    rng = np.random.default_rng(80)
    corpus = toy_tasks.copy_pairs(rng, 30)
    src_vocab, tgt_vocab = toy_tasks.vocabs_for(corpus)
    model = build_model("nse", 5, src_vocab.size, tgt_vocab.size, np.random.default_rng(81))
    adam = AdamState.create(model.params())
    arng = np.random.default_rng(82)
    for buf in adam.m:
        buf[...] = arng.normal(size=buf.shape)
    for buf in adam.v:
        buf[...] = np.abs(arng.normal(size=buf.shape))
    adam.t = 7
    ckpt = make_checkpoint(
        model, src_vocab, tgt_vocab, adam=adam, epoch=7, dev_bleu=31.25, dev_sari=40.5
    )
    return ckpt, src_vocab


@pytest.mark.criterion(8)
class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ckpt, _ = _checkpoint_fixture()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        again = tmp_path / "again.ckpt"
        save_checkpoint(ckpt, again)
        assert path.read_bytes() == again.read_bytes()
        loaded = load_checkpoint(path)
        assert loaded.encoder_kind == ckpt.encoder_kind
        assert loaded.dim == ckpt.dim
        assert loaded.epoch == ckpt.epoch
        assert loaded.dev_bleu == ckpt.dev_bleu
        assert loaded.dev_sari == ckpt.dev_sari
        assert loaded.src_vocab == ckpt.src_vocab
        assert loaded.tgt_vocab == ckpt.tgt_vocab
        assert len(loaded.params) == len(ckpt.params)
        for (name_a, arr_a), (name_b, arr_b) in zip(ckpt.params, loaded.params):
            assert name_a == name_b
            assert arr_a.dtype == arr_b.dtype == np.float32
            assert np.array_equal(arr_a, arr_b)
        assert loaded.adam is not None
        assert loaded.adam.t == ckpt.adam.t
        for a, b in zip(ckpt.adam.m + ckpt.adam.v, loaded.adam.m + loaded.adam.v):
            assert np.array_equal(a, b)

    def test_reloaded_model_decodes_identically(self, tmp_path):
        ckpt, src_vocab = _checkpoint_fixture()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        served = restore_model(ckpt)
        reloaded = restore_model(load_checkpoint(path))
        rng = np.random.default_rng(83)
        for _ in range(20):
            src = [
                int(t)
                for t in rng.integers(4, src_vocab.size, size=int(rng.integers(2, 7)))
            ]
            a = greedy_decode(DecodeSession(served, src), 15)
            b = greedy_decode(DecodeSession(reloaded, src), 15)
            assert a.tokens == b.tokens
            assert a.score == b.score
            assert a.finished == b.finished

    def test_corrupted_files_raise_format_errors(self, tmp_path):
        ckpt, _ = _checkpoint_fixture()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()

        def expect_error(payload):
            bad = tmp_path / "bad.ckpt"
            bad.write_bytes(payload)
            with pytest.raises(FormatError) as info:
                load_checkpoint(bad)
            return info.value

        err = expect_error(b"XSE1" + blob[4:])
        assert err.offset == 0
        err = expect_error(blob[:4] + (9).to_bytes(4, "little") + blob[8:])
        assert err.offset == 4
        for cut in (0, 2, 6, 30, len(blob) // 3, len(blob) // 2, len(blob) - 1):
            err = expect_error(blob[:cut])
            assert err.offset is not None and err.offset <= cut
        expect_error(blob + b"\x00")
        expect_error(blob + b"extra bytes")
        # corrupt the stored encoder kind: unknown name, then invalid UTF-8
        at = blob.find(b"nse")
        assert at > 0
        expect_error(blob[:at] + b"zzz" + blob[at + 3 :])
        expect_error(blob[:at] + b"\xff\xff\xff" + blob[at + 3 :])


# ---------------------------------------------------------------------------
# criterion 9: unknown-token replacement


@pytest.mark.criterion(9)
class TestUnknownReplacement:
    @staticmethod
    def _earliest_argmax(row):
        best = 0
        for j in range(1, len(row)):
            if row[j] > row[best]:
                best = j
        return best

    def test_randomized_replacement_follows_attention(self):
        rng = np.random.default_rng(91)
        vocab = Vocabulary.from_tokens([f"t{i}" for i in range(10)])
        for _ in range(100):
            src_len = int(rng.integers(2, 7))
            source = [f"s{j}" for j in range(src_len)]
            out_len = int(rng.integers(1, 7))
            tokens = [
                UNK_ID if rng.random() < 0.5 else int(rng.integers(4, vocab.size))
                for _ in range(out_len)
            ]
            # attention drawn from a coarse integer grid so exact ties are
            # common, exercising the earliest-position rule
            alphas = []
            for _ in range(out_len):
                grid = rng.integers(1, 5, size=src_len).astype(float)
                alphas.append(grid / grid.sum())
            hyp = Hypothesis(
                tokens=tuple(tokens), score=-1.0, alphas=tuple(alphas), finished=True
            )
            surface = replace_unks(hyp, source, vocab)
            assert len(surface) == len(tokens)
            for k, token in enumerate(tokens):
                if token == UNK_ID:
                    assert surface[k] == source[self._earliest_argmax(alphas[k])]
                else:
                    assert surface[k] == vocab.token(token)

    def test_exact_ties_pick_the_earliest_source_position(self):
        vocab = Vocabulary.from_tokens(["x"])
        source = ["first", "second", "third"]
        for row, expected in (
            (np.array([0.4, 0.4, 0.2]), "first"),
            (np.array([0.1, 0.45, 0.45]), "second"),
            (np.array([1.0, 1.0, 1.0]) / 3.0, "first"),
        ):
            hyp = Hypothesis(tokens=(UNK_ID,), score=0.0, alphas=(row,), finished=True)
            assert replace_unks(hyp, source, vocab) == [expected]
