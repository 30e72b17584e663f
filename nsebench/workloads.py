"""Seeded inputs and the timed phases of one benchmark round.

A workload is a model shape plus the corpora generated for it from a seed.
One round runs, in order, what a user of the toolkit pays for:

1. one ``training.train`` epoch of the memory (NSE) encoder model;
2. a checkpoint cycle: ``make_checkpoint`` + ``save_checkpoint`` of the
   trained model with its Adam state, then ``load_checkpoint`` +
   ``restore_model``;
3. a decode group: decoding every decode source with the restored model at
   beams 1, 5 and 10, the way ``simplify`` does per line, and scoring each
   beam's outputs with ``bleu_corpus`` and ``sari_corpus`` against two
   references;
4. a second checkpoint cycle;
5. one ``training.train`` epoch of the LSTM encoder model on the same pairs;
6. a second decode group.

Every round starts from freshly built, identical initial weights, so all
rounds of a run do identical work.  The checks of each round count failed
operations (one training pair or one decoded sentence is one operation).
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from nsesimp import autodiff, data, metrics, model, search, training

KINDS = ("nse", "lstm")
BEAMS = (1, 5, 10)

# With random weights greedy output either ends at once or never; a strongly
# negative end-marker bias makes every hypothesis run to its max_len, so the
# work per sentence is fixed by the input.
EOS_BIAS = -50.0

# Lengths are spread uniformly over mean * (1 +/- LENGTH_SPREAD), and are at
# least MIN_LENGTH so a reference scored against itself has 4-grams (BLEU 100).
LENGTH_SPREAD = 0.25
MIN_LENGTH = 4

# Greedy passes per decode group: one pass is short next to the machine's noise.
GREEDY_PASSES = 3


@dataclass(frozen=True)
class Shape:
    """Model and corpus sizes of one workload."""

    dim: int
    vocab: int  # V on both sides, reserved ids included
    src_mean: float
    tgt_mean: float
    train_pairs: int
    batch_size: int
    dev_pairs: int
    decode_sents: int


SHAPES = {
    # The paper's shape (data.REFERENCE_CORPUS_STATS): V-sized work dominates
    # training (the [V, 2H] output-weight gradient per target step, the V x D
    # zero matrix behind every row() backward, Adam over ~36M parameters),
    # and decoding is a stepwise, tape-free forward pass at beams 1, 5, 10.
    "paper": Shape(
        dim=300, vocab=30000, src_mean=25, tgt_mean=18,
        train_pairs=2, batch_size=2, dev_pairs=1, decode_sents=2,
    ),
    # Sources of 65-95 tokens (under max_sentence_length 100), short targets
    # and a small vocabulary: encoder recurrence, the NSE memory read/update
    # over a [T, D] memory and per-op tape overhead dominate, and the output
    # layer is small.
    "longsrc": Shape(
        dim=300, vocab=2000, src_mean=80, tgt_mean=8,
        train_pairs=4, batch_size=2, dev_pairs=1, decode_sents=4,
    ),
}


# ---------------------------------------------------------------------------
# generated inputs


@dataclass
class Inputs:
    shape: Shape
    seed: int
    vocab: data.Vocabulary
    train: data.ParallelCorpus
    dev: data.ParallelCorpus
    # (source tokens, two references); max_len is the first reference's length
    decode: list[tuple[list[str], list[list[str]]]]

    def train_tokens(self) -> int:
        """Source + target + end-marker tokens of one training epoch."""
        return sum(len(s) + len(t) + 1 for s, t in self.train.pairs)


class _Zipf:
    """Token sampler with p(rank r) proportional to 1/r.

    The first ``in_vocab`` ranks are the vocabulary; the ranks after them,
    as many again, are out of vocabulary.
    """

    def __init__(self, in_vocab: int, rng: np.random.Generator):
        self.in_vocab = in_vocab
        ranks = np.arange(1, 2 * in_vocab + 1, dtype=np.float64)
        cdf = np.cumsum(1.0 / ranks)
        self.cdf = cdf / cdf[-1]
        self.rng = rng

    def tokens(self, n: int) -> list[str]:
        ranks = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        ranks = np.minimum(ranks, len(self.cdf) - 1)
        return [f"w{r}" for r in ranks]

    def oov_token(self) -> str:
        return f"w{self.in_vocab + int(self.rng.integers(self.in_vocab))}"


def stratified_lengths(mean: float, n: int) -> list[int]:
    """Lengths at evenly spaced quantiles of mean * (1 +/- LENGTH_SPREAD).

    Every seed gets the same multiset of lengths, so every seed does the same
    amount of work; the seed decides which sentence gets which length.
    """
    u = (np.arange(n) + 0.5) / n
    return [max(MIN_LENGTH, int(round(mean * (1 + LENGTH_SPREAD * (2 * x - 1))))) for x in u]


def _rewrite(source: list[str], length: int, zipf: _Zipf, rng) -> list[str]:
    """A simplification-like target: kept source tokens in order plus new ones."""
    keep = min(len(source), int(round(0.7 * length)))
    out = [source[i] for i in sorted(rng.choice(len(source), keep, replace=False))]
    for tok in zipf.tokens(length - keep):
        out.insert(int(rng.integers(len(out) + 1)), tok)
    return out


def make_inputs(shape: Shape, seed: int) -> Inputs:
    """Corpora and vocabulary for one workload; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, 1])
    zipf = _Zipf(shape.vocab - len(data.RESERVED_TOKENS), rng)
    vocab = data.Vocabulary.from_tokens(f"w{r}" for r in range(zipf.in_vocab))

    def pairs(n: int) -> list[tuple[list[str], list[str]]]:
        # longer sources get longer targets; the seed shuffles the pairs
        src_lens = stratified_lengths(shape.src_mean, n)
        tgt_lens = stratified_lengths(shape.tgt_mean, n)
        out = []
        for i in rng.permutation(n):
            src = zipf.tokens(src_lens[i])
            out.append((src, _rewrite(src, tgt_lens[i], zipf, rng)))
        return out

    decode = []
    for src, ref0 in pairs(shape.decode_sents):
        # at least one unknown source token per sentence
        src[int(rng.integers(len(src)))] = zipf.oov_token()
        decode.append((src, [ref0, _rewrite(src, len(ref0), zipf, rng)]))
    return Inputs(
        shape=shape,
        seed=seed,
        vocab=vocab,
        train=data.ParallelCorpus(pairs(shape.train_pairs)),
        dev=data.ParallelCorpus(pairs(shape.dev_pairs)),
        decode=decode,
    )


def build(inputs: Inputs, kind: str) -> model.Model:
    """Seeded model with the recipe's forget bias and a suppressed end marker."""
    m = model.build_model(
        kind,
        inputs.shape.dim,
        inputs.vocab.size,
        inputs.vocab.size,
        np.random.default_rng([inputs.seed, 2, KINDS.index(kind)]),
        forget_bias=training.TrainConfig().forget_bias,
    )
    m.decoder.out_b.data[data.EOS_ID] = EOS_BIAS
    return m


def train_config(inputs: Inputs, kind: str) -> training.TrainConfig:
    """Recipe settings; only encoder, width, vocabulary and batch size are set."""
    return training.TrainConfig(
        encoder_kind=kind,
        dim=inputs.shape.dim,
        vocab_size=inputs.vocab.size,
        batch_size=inputs.shape.batch_size,
    )


def warm_up(inputs: Inputs) -> None:
    """Untimed calls through the training and decoding paths on short inputs."""
    src, tgt = inputs.train.pairs[0]
    for kind in KINDS:
        m = build(inputs, kind)
        src_ids = inputs.vocab.encode(src[:3])
        with autodiff.Tape() as tape:
            loss = training.sentence_loss(
                m, src_ids, inputs.vocab.encode(tgt[:2]), 0.3, True, np.random.default_rng(0)
            )
        autodiff.backward(loss, tape)
        session = model.DecodeSession(m, src_ids)
        search.greedy_decode(session, 3)
        search.beam_decode(session, 2, 3)


def param_digests(m: model.Model) -> list[bytes]:
    return [hashlib.blake2b(memoryview(t.data)).digest() for t in m.params()]


def file_digest(path) -> str:
    h = hashlib.blake2b()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one round


@dataclass
class RoundResult:
    # seconds of each timed call
    train_s: dict[str, float] = field(default_factory=dict)
    ckpt_save_s: list[float] = field(default_factory=list)
    ckpt_load_s: list[float] = field(default_factory=list)
    decode_s: dict[int, list[float]] = field(default_factory=lambda: {b: [] for b in BEAMS})
    # output checks; an operation is one training pair or one decoded sentence
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # decoded token ids of the first pass at each beam, for comparing runs
    outputs: dict[int, list[tuple[int, ...]]] = field(default_factory=dict)

    def timed_s(self) -> float:
        return (
            sum(self.train_s.values()) + sum(self.ckpt_save_s) + sum(self.ckpt_load_s)
            + sum(sum(v) for v in self.decode_s.values())
        )

    def check(self, operations: int, problems: list[str]) -> None:
        self.attempted += operations
        if problems:
            self.failed += operations
            self.problems += problems


def run_round(inputs: Inputs, ckpt_path, tracer=None) -> RoundResult:
    """All timed calls of one round, each followed by its untimed checks.

    The machine's speed drifts over seconds, so the short phases are timed
    twice per round, apart: a checkpoint cycle before and after the first
    decode group, and a decode group before and after the LSTM epoch.
    """
    phase = tracer.phase if tracer is not None else (lambda name: nullcontext())
    r = RoundResult()
    trained = _train(inputs, "nse", phase, r)
    trained.best = None  # the snapshot train took; the final weights are saved below
    served, vocabs = _checkpoint_cycle(inputs, trained, ckpt_path, phase, r)
    _decode_group(inputs, served, vocabs, phase, tracer, r)
    served = None
    served, vocabs = _checkpoint_cycle(inputs, trained, ckpt_path, phase, r)
    del trained
    _train(inputs, "lstm", phase, r)
    _decode_group(inputs, served, vocabs, phase, tracer, r)
    return r


def _train(inputs: Inputs, kind: str, phase, r: RoundResult) -> training.TrainResult:
    """One timed epoch from fresh initial weights; checks loss and the Adam step."""
    m = build(inputs, kind)
    before = param_digests(m)
    with phase(f"train.{kind}"):
        t0 = time.perf_counter()
        result = training.train(
            train_config(inputs, kind), inputs.train, inputs.dev,
            model=m, src_vocab=inputs.vocab, tgt_vocab=inputs.vocab, epochs=1,
        )
        r.train_s[kind] = time.perf_counter() - t0
    problems = []
    loss = result.records[-1].mean_loss
    if not math.isfinite(loss):
        problems.append(f"{kind}: epoch mean loss {loss}")
    unchanged = [
        name for (name, _), old, new in zip(m.named_params(), before, param_digests(m))
        if old == new
    ]
    if unchanged:
        problems.append(f"{kind}: parameters unchanged by the Adam step: {unchanged}")
    r.check(len(inputs.train), problems)
    m.zero_grads()
    return result


def _checkpoint_cycle(inputs: Inputs, trained, ckpt_path, phase, r: RoundResult):
    """Save the trained model with its Adam state, then load it as the CLI does."""
    with phase("ckpt.save"):
        t0 = time.perf_counter()
        ckpt = training.make_checkpoint(
            trained.model, inputs.vocab, inputs.vocab, adam=trained.adam, epoch=1,
            dev_bleu=trained.records[-1].dev_bleu, dev_sari=trained.records[-1].dev_sari,
        )
        training.save_checkpoint(ckpt, ckpt_path)
        r.ckpt_save_s.append(time.perf_counter() - t0)
    del ckpt
    with phase("ckpt.load"):
        t0 = time.perf_counter()
        ckpt = training.load_checkpoint(ckpt_path)
        served = training.restore_model(ckpt)
        r.ckpt_load_s.append(time.perf_counter() - t0)
    return served, (ckpt.src_vocab, ckpt.tgt_vocab)


def _decode_group(inputs: Inputs, served, vocabs, phase, tracer, r: RoundResult) -> None:
    """Decode passes at every beam; greedy passes are short, so they run GREEDY_PASSES times."""
    for beam in BEAMS:
        for _ in range(GREEDY_PASSES if beam == 1 else 1):
            first = beam not in r.outputs
            hyps = _decode_pass(inputs, served, vocabs, beam, phase, r)
            if tracer is not None:
                tokens = sum(len(h.tokens) for _, h in hyps)
                tracer.count(f"search.output_tokens.beam{beam}", tokens)
            if first:
                r.outputs[beam] = [h.tokens for _, h in hyps]
            _check_pass(inputs, beam, hyps, beam == 1 and first, r)


def _decode_pass(inputs: Inputs, served, vocabs, beam: int, phase, r: RoundResult):
    """Decode and score every source at one beam, as simplify and evaluate do."""
    src_vocab, tgt_vocab = vocabs
    hyps = []
    with phase(f"decode.beam{beam}"):
        t0 = time.perf_counter()
        instances = []
        for src, refs in inputs.decode:
            session = model.DecodeSession(served, src_vocab.encode(src))
            if beam == 1:
                hyp = search.greedy_decode(session, len(refs[0]))
            else:
                hyp = search.beam_decode(session, beam, len(refs[0]))
            out = search.replace_unks(hyp, src, tgt_vocab)
            instances.append(metrics.EvalInstance(source=src, output=out, references=refs))
            hyps.append((session, hyp))
        metrics.bleu_corpus(instances)
        metrics.sari_corpus(instances)
        r.decode_s[beam].append(time.perf_counter() - t0)
    return hyps


def _check_pass(inputs: Inputs, beam: int, hyps, against_beam1: bool, r: RoundResult) -> None:
    self_bleu = metrics.bleu_corpus([
        metrics.EvalInstance(source=src, output=refs[0], references=refs)
        for src, refs in inputs.decode
    ]).score
    shared = [] if self_bleu == 100.0 else [f"BLEU of references against themselves is {self_bleu}"]
    for (session, hyp), (_, refs) in zip(hyps, inputs.decode):
        problems = list(shared)
        if len(hyp.tokens) != len(refs[0]):
            problems.append(f"beam {beam}: {len(hyp.tokens)} tokens, max_len {len(refs[0])}")
        if against_beam1:
            again = search.beam_decode(session, 1, len(refs[0]))
            if (again.tokens, again.score) != (hyp.tokens, hyp.score):
                problems.append("beam 1 differs from greedy_decode")
        r.check(1, problems)
