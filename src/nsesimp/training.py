"""Training engine: masked cross-entropy, Adam, epoch loop, checkpoints.

Training is teacher-forced throughout: the decoder always sees gold
previous tokens.  Each batch runs as one graph of [B, ·] rows, whose loss
is the token mean over the whole batch; its gradient's global norm is
clipped and one Adam step is taken.
After every epoch the development set is decoded greedily (with unknowns
replaced from the source via attention) and scored with corpus BLEU and
SARI; the checkpoint whose epoch wins the selection rule is retained.

The selection rule: tuning on BLEU picks the epoch with the best dev
BLEU; tuning on SARI picks the best dev SARI among epochs whose dev BLEU
clears a threshold, falling back to best BLEU when no epoch qualifies.
Ties always resolve to the earliest epoch.
"""

from __future__ import annotations

import math
import os
import struct
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .data import BOS_ID, PAD_ID, Batch, ParallelCorpus, Vocabulary, batches, build_vocab
from .errors import ConfigError, FormatError, NumericError, UsageError
from .metrics import EvalInstance, bleu_corpus, sari_corpus
from .model import ENCODER_KINDS, DecodeSession, Model, build_model, encode, teacher_logits
from .search import beam_decode, greedy_decode, replace_unks

# ---------------------------------------------------------------------------
# loss


def xent_loss(logits: Tensor, target_ids) -> Tensor:
    """Mean negative log-likelihood over non-padding target positions."""
    ids = np.asarray(target_ids, dtype=np.intp)
    if logits.data.ndim != 2 or ids.shape != (logits.shape[0],):
        raise UsageError(
            f"xent_loss got logits {logits.shape} against {ids.shape[0] if ids.ndim else '?'} targets"
        )
    mask = (ids != PAD_ID).astype(np.float64)
    real = mask.sum()
    if real == 0:
        raise UsageError("target is entirely padding")
    log_probs = ad.log_softmax_rows(logits)
    picked = ad.gather_rows(log_probs, ids)
    masked = ad.mul(picked, Tensor(mask))
    return ad.scale(ad.sum_all(masked), -1.0 / real)


def batch_loss(
    model: Model,
    batch: Batch,
    dropout_rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Teacher-forced loss of a padded batch, as one graph.

    The sum of every real target token's negative log-likelihood, divided
    by the batch's real-token count.  Source and decoder-input ids past a
    sentence's end are never read into a real position, so they change
    neither the loss nor its gradients.
    """
    lengths = batch.src_mask.sum(axis=1).astype(np.intp)
    enc = encode(model, batch.src, dropout_rate, training, rng, lengths)
    dec_in = np.concatenate(
        [np.full((batch.size, 1), BOS_ID), batch.tgt_out[:, :-1]], axis=1
    )
    logits = teacher_logits(model, enc, dec_in, dropout_rate, training, rng)
    # time-major, like the logits: row t·B + b is target t of sentence b
    return xent_loss(logits, batch.tgt_out.T.reshape(-1))


def sentence_loss(
    model: Model,
    src_ids,
    tgt_ids,
    dropout_rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Teacher-forced mean token loss for one (source, target) id pair.

    ``tgt_ids`` is the bare target; begin/end wrapping happens here.  This
    is :func:`batch_loss` of a batch of one.
    """
    return batch_loss(model, Batch.from_ids([(src_ids, tgt_ids)]), dropout_rate, training, rng)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment buffers plus the shared step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @staticmethod
    def create(params) -> "AdamState":
        return AdamState(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
        )


# Elements per Adam chunk: small enough that the two scratch buffers and the
# chunk's slices of p, g, m and v stay in cache across the chunk's ten passes.
_ADAM_CHUNK = 1 << 14


def adam_step(
    params,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place.

    Each parameter is updated chunk by chunk through two small scratch
    buffers, so no full-size temporary is allocated and each array is
    streamed from memory once.  The elementwise operations run in the order
    of ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``, so the results are
    bitwise those of evaluating that expression on whole arrays.
    """
    if len(params) != len(state.m):
        raise UsageError(
            f"optimizer state tracks {len(state.m)} tensors, got {len(params)} params"
        )
    for p, m, v in zip(params, state.m, state.v):
        if p.grad is None:
            raise UsageError("parameter has no gradient; run backward first")
        if not (p.data.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise UsageError("parameters and moments must be C-contiguous to update in place")
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    scratch_a = np.empty(_ADAM_CHUNK)
    scratch_b = np.empty(_ADAM_CHUNK)
    for p, m_all, v_all in zip(params, state.m, state.v):
        p_all, g_all = p.data.reshape(-1), p.grad.reshape(-1)
        m_all, v_all = m_all.reshape(-1), v_all.reshape(-1)
        for lo in range(0, p_all.size, _ADAM_CHUNK):
            hi = min(lo + _ADAM_CHUNK, p_all.size)
            w, g, m, v = p_all[lo:hi], g_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
            a, b = scratch_a[: hi - lo], scratch_b[: hi - lo]
            m *= beta1
            np.multiply(1.0 - beta1, g, out=a)
            m += a
            v *= beta2
            np.multiply(1.0 - beta2, g, out=a)
            a *= g
            v += a
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += eps
            np.divide(m, c1, out=b)
            b *= lr
            b /= a
            w -= b


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint norm is at most ``max_norm``.

    Returns the pre-clip norm.  Direction is never changed.
    """
    total = 0.0
    for p in params:
        if p.grad is None:
            raise UsageError("parameter has no gradient; run backward first")
        g = p.grad.reshape(-1)
        total += float(np.vdot(g, g))
    norm = total**0.5
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params:
            p.grad *= factor
    return norm


# ---------------------------------------------------------------------------
# configuration


@dataclass
class TrainConfig:
    """All knobs for one training run; defaults follow the standard recipe."""

    encoder_kind: str = "lstm"
    dim: int = 300
    vocab_size: int = 30000
    lr: float | None = None  # resolved per encoder kind when unset
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    dropout: float = 0.3
    max_epochs: int = 40
    tune_metric: str = "bleu"
    sari_bleu_threshold: float = 0.0
    seed: int = 0
    clip_norm: float = 5.0
    forget_bias: float = 1.0
    max_sentence_length: int = 100
    max_decode_len: int = 100
    beam_sizes: tuple[int, ...] = (5, 10)
    bucket: bool = False

    def resolved_lr(self) -> float:
        if self.lr is not None:
            return self.lr
        return 0.001 if self.encoder_kind == "lstm" else 0.0003

    def validate(self) -> None:
        if self.encoder_kind not in ENCODER_KINDS:
            raise ConfigError(
                f"encoder_kind must be {' or '.join(ENCODER_KINDS)}, got {self.encoder_kind!r}"
            )
        if self.dim < 1:
            raise ConfigError(f"dim {self.dim} must be positive")
        if self.vocab_size <= 4:
            raise ConfigError(f"vocab_size {self.vocab_size} leaves no room for real tokens")
        if self.lr is not None and self.lr <= 0:
            raise ConfigError(f"lr {self.lr} must be positive")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ConfigError(f"{name} {b} outside [0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps {self.adam_eps} must be positive")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size {self.batch_size} must be at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs {self.max_epochs} must be at least 1")
        if self.tune_metric not in ("bleu", "sari"):
            raise ConfigError(f"tune_metric must be bleu or sari, got {self.tune_metric!r}")
        if self.sari_bleu_threshold < 0:
            raise ConfigError("sari_bleu_threshold must be non-negative")
        if self.clip_norm <= 0:
            raise ConfigError(f"clip_norm {self.clip_norm} must be positive")
        if self.max_decode_len < 1 or self.max_sentence_length < 1:
            raise ConfigError("length limits must be at least 1")
        if not self.beam_sizes or any(b < 1 for b in self.beam_sizes):
            raise ConfigError(f"beam_sizes {self.beam_sizes} must all be at least 1")


PRESETS = {
    "newsela": dict(vocab_size=20000, sari_bleu_threshold=22.0),
    "wikismall": dict(vocab_size=30000, sari_bleu_threshold=33.0),
    "wikilarge": dict(vocab_size=30000, sari_bleu_threshold=77.0),
}


def preset_config(corpus: str, encoder_kind: str = "lstm", **overrides) -> TrainConfig:
    """Standard-recipe configuration for one of the benchmark corpora."""
    if corpus not in PRESETS:
        raise ConfigError(f"unknown preset {corpus!r}; choose from {sorted(PRESETS)}")
    merged = dict(PRESETS[corpus])
    merged["encoder_kind"] = encoder_kind
    merged.update(overrides)
    config = TrainConfig(**merged)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# model selection


@dataclass
class EpochRecord:
    epoch: int  # 1-based
    mean_loss: float
    dev_bleu: float
    dev_sari: float
    seconds: float


def select_model(records, tune_metric: str, threshold: float = 0.0) -> int:
    """Epoch number chosen by the tuning rule; ties go to the earliest."""
    if not records:
        raise UsageError("no epoch records to select from")
    if tune_metric == "bleu":
        return max(records, key=lambda r: r.dev_bleu).epoch
    if tune_metric != "sari":
        raise ConfigError(f"tune_metric must be bleu or sari, got {tune_metric!r}")
    eligible = [r for r in records if r.dev_bleu >= threshold]
    if not eligible:
        return max(records, key=lambda r: r.dev_bleu).epoch
    return max(eligible, key=lambda r: r.dev_sari).epoch


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"NSE1"
CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    """Everything needed to resume or serve a model, in 32-bit storage."""

    encoder_kind: str
    dim: int
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    params: list[tuple[str, np.ndarray]]  # float32 arrays
    adam: AdamState | None = None  # float32 moments
    epoch: int = 0
    dev_bleu: float = 0.0
    dev_sari: float = 0.0


def make_checkpoint(
    model: Model,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    adam: AdamState | None = None,
    epoch: int = 0,
    dev_bleu: float = 0.0,
    dev_sari: float = 0.0,
) -> Checkpoint:
    params = [(name, t.data.astype(np.float32)) for name, t in model.named_params()]
    if adam is not None:
        adam = AdamState(
            m=[a.astype(np.float32) for a in adam.m],
            v=[a.astype(np.float32) for a in adam.v],
            t=adam.t,
        )
    return Checkpoint(
        encoder_kind=model.encoder_kind,
        dim=model.dim,
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        params=params,
        adam=adam,
        epoch=epoch,
        dev_bleu=dev_bleu,
        dev_sari=dev_sari,
    )


class _Unfilled:
    """Stands in for ``build_model``'s generator: uninitialised arrays.

    ``restore_model`` replaces every parameter, so drawing random values
    for them first would be wasted work.
    """

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def restore_model(ckpt: Checkpoint) -> Model:
    """Rebuild a live float64 model from stored float32 parameters."""
    model = build_model(
        ckpt.encoder_kind, ckpt.dim, ckpt.src_vocab.size, ckpt.tgt_vocab.size, _Unfilled()
    )
    live = model.named_params()
    if len(live) != len(ckpt.params):
        raise FormatError(
            f"checkpoint has {len(ckpt.params)} parameters, model needs {len(live)}"
        )
    for (want_name, tensor), (got_name, arr) in zip(live, ckpt.params):
        if want_name != got_name:
            raise FormatError(f"parameter {got_name!r} where {want_name!r} expected")
        if tuple(arr.shape) != tensor.shape:
            raise FormatError(
                f"parameter {got_name!r} has shape {arr.shape}, expected {tensor.shape}"
            )
        tensor.data = arr.astype(np.float64)
    return model


def restore_adam(ckpt: Checkpoint) -> AdamState | None:
    if ckpt.adam is None:
        return None
    return AdamState(
        m=[a.astype(np.float64) for a in ckpt.adam.m],
        v=[a.astype(np.float64) for a in ckpt.adam.v],
        t=ckpt.adam.t,
    )


def _write_string(f, s: str) -> None:
    data = s.encode("utf-8")
    f.write(struct.pack("<I", len(data)))
    f.write(data)


def _write_array(f, arr: np.ndarray) -> None:
    f.write(struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape))
    f.write(np.ascontiguousarray(arr, "<f4").data)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` to ``path`` section by section, with no staging copy."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        _write_string(f, ckpt.encoder_kind)
        f.write(struct.pack("<IIdd", ckpt.dim, ckpt.epoch, ckpt.dev_bleu, ckpt.dev_sari))
        for vocab in (ckpt.src_vocab, ckpt.tgt_vocab):
            f.write(struct.pack("<I", vocab.size))
            for token in vocab.id_to_token:
                _write_string(f, token)
        f.write(struct.pack("<I", len(ckpt.params)))
        for name, arr in ckpt.params:
            _write_string(f, name)
            _write_array(f, arr)
        if ckpt.adam is None:
            f.write(b"\x00")
        else:
            f.write(struct.pack("<BQ", 1, ckpt.adam.t))
            for arr in ckpt.adam.m + ckpt.adam.v:
                _write_array(f, arr)


class _Reader:
    """Reads checkpoint fields from an open file, tracking the byte offset.

    Every read is checked against the file size first, so a truncated file
    or a corrupt length raises :class:`FormatError` at the field's offset
    before anything of the claimed size is allocated.
    """

    def __init__(self, f):
        self.f = f
        self.pos = 0
        self.size = os.fstat(f.fileno()).st_size

    def _claim(self, n: int, what: str) -> None:
        if self.pos + n > self.size:
            raise FormatError(f"file truncated while reading {what}", offset=self.pos)
        self.pos += n

    def take(self, n: int, what: str) -> bytes:
        self._claim(n, what)
        return self.f.read(n)

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]

    def string(self, what: str) -> str:
        n = self.unpack("<I", f"{what} length")
        at = self.pos
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{what} is not valid UTF-8", offset=at) from e

    def f32_array(self, what: str) -> np.ndarray:
        rank = self.unpack("<I", f"{what} rank")
        if rank > 8:
            raise FormatError(f"{what} has implausible rank {rank}", offset=self.pos - 4)
        shape = tuple(self.unpack("<I", f"{what} dim") for _ in range(rank))
        self._claim(4 * math.prod(shape), f"{what} data")
        arr = np.empty(shape, "<f4")
        self.f.readinto(arr)
        return arr


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        r = _Reader(f)
        magic = r.take(4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad magic {magic!r}", offset=0)
        version = r.unpack("<I", "version")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported format version {version}", offset=4)
        encoder_kind = r.string("encoder kind")
        if encoder_kind not in ENCODER_KINDS:
            raise FormatError(f"unknown encoder kind {encoder_kind!r}")
        dim = r.unpack("<I", "dim")
        epoch = r.unpack("<I", "epoch")
        dev_bleu = r.unpack("<d", "dev bleu")
        dev_sari = r.unpack("<d", "dev sari")
        vocabs = []
        for side in ("source", "target"):
            n = r.unpack("<I", f"{side} vocab size")
            tokens = [r.string(f"{side} vocab token") for _ in range(n)]
            if tokens[:4] != ["<pad>", "<unk>", "<s>", "</s>"]:
                raise FormatError(f"{side} vocabulary lacks the reserved header tokens")
            vocabs.append(Vocabulary(tokens, {t: i for i, t in enumerate(tokens)}))
        n_params = r.unpack("<I", "parameter count")
        params = []
        for _ in range(n_params):
            name = r.string("parameter name")
            params.append((name, r.f32_array(f"parameter {name}")))
        adam = None
        if r.unpack("<B", "optimizer flag"):
            t = r.unpack("<Q", "optimizer step")
            m = [r.f32_array("optimizer moment") for _ in range(n_params)]
            v = [r.f32_array("optimizer moment") for _ in range(n_params)]
            adam = AdamState(m=m, v=v, t=t)
        if f.read(1):
            raise FormatError("unexpected trailing bytes", offset=r.pos)
    return Checkpoint(
        encoder_kind=encoder_kind,
        dim=dim,
        src_vocab=vocabs[0],
        tgt_vocab=vocabs[1],
        params=params,
        adam=adam,
        epoch=epoch,
        dev_bleu=dev_bleu,
        dev_sari=dev_sari,
    )


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class TrainResult:
    model: Model  # weights as of the last trained epoch
    best: Checkpoint  # snapshot at the selected epoch, without optimizer state
    records: list[EpochRecord]
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    adam: AdamState


def decode_tokens(
    model: Model,
    src_tokens,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    beams: Sequence[int] = (1,),
    max_len: int = 100,
    length_normalize: bool = False,
) -> list[list[str]]:
    """Decode one tokenized source at each beam width in ``beams``.

    The source is encoded once and that session serves every beam.  Beam 1
    is greedy decoding; unknown outputs are filled from the source, and an
    empty source decodes to no tokens.
    """
    if not src_tokens:
        return [[] for _ in beams]
    session = DecodeSession(model, src_vocab.encode(src_tokens))
    outputs = []
    for beam in beams:
        if beam == 1:
            hyp = greedy_decode(session, max_len)
        else:
            hyp = beam_decode(session, beam, max_len, length_normalize)
        outputs.append(replace_unks(hyp, src_tokens, tgt_vocab))
    return outputs


def dev_decode_scores(
    model: Model,
    sources,
    references,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    max_decode_len: int,
    beams: Sequence[int] = (1,),
    length_normalize: bool = False,
) -> list[tuple[float, float]]:
    """Decode every source at each beam; corpus (BLEU, SARI) per beam, in order."""
    outputs = [
        decode_tokens(
            model, src_tokens, src_vocab, tgt_vocab, beams, max_decode_len, length_normalize
        )
        for src_tokens in sources
    ]
    scores = []
    for b in range(len(beams)):
        instances = [
            EvalInstance(source=src_tokens, output=outs[b], references=refs)
            for src_tokens, outs, refs in zip(sources, outputs, references)
        ]
        scores.append((bleu_corpus(instances).score, sari_corpus(instances).score))
    return scores


def initial_model(config: TrainConfig, src_vocab_size: int, tgt_vocab_size: int) -> Model:
    """The model a run starts from: initial weights drawn from ``config.seed``."""
    return build_model(
        config.encoder_kind,
        config.dim,
        src_vocab_size,
        tgt_vocab_size,
        np.random.default_rng([config.seed, 0]),
        forget_bias=config.forget_bias,
    )


def train(
    config: TrainConfig,
    train_corpus: ParallelCorpus,
    dev_corpus: ParallelCorpus,
    *,
    model: Model | None = None,
    src_vocab: Vocabulary | None = None,
    tgt_vocab: Vocabulary | None = None,
    adam: AdamState | None = None,
    records: list[EpochRecord] | None = None,
    best: Checkpoint | None = None,
    epochs: int | None = None,
    log=None,
) -> TrainResult:
    """Run (up to) ``config.max_epochs`` epochs and keep the best model.

    Passing ``model``/``adam``/``records``/``best`` from a previous result
    resumes training; ``epochs`` caps how many epochs this call runs,
    which lets callers interleave their own convergence checks.  A NaN or
    Inf raises :class:`NumericError` naming the epoch and the batch (or the
    dev decode) where it appeared.
    """
    config.validate()
    if len(train_corpus) == 0 or len(dev_corpus) == 0:
        raise ConfigError("training and development corpora must be non-empty")
    if src_vocab is None:
        src_vocab = build_vocab(train_corpus.source_sentences(), config.vocab_size)
    if tgt_vocab is None:
        tgt_vocab = build_vocab(train_corpus.target_sentences(), config.vocab_size)
    if model is None:
        model = initial_model(config, src_vocab.size, tgt_vocab.size)
    params = model.params()
    if adam is None:
        adam = AdamState.create(params)
    records = list(records) if records else []
    start = len(records)
    remaining = config.max_epochs - start
    n_epochs = remaining if epochs is None else min(epochs, remaining)
    dev_sources = dev_corpus.source_sentences()
    dev_references = [[tgt] for tgt in dev_corpus.target_sentences()]
    lr = config.resolved_lr()

    # Overflow in a diverging run is reported once, by the NaN/Inf guard in
    # the tape, instead of by numpy's warnings before it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for e in range(start, start + n_epochs):
            t0 = time.perf_counter()
            shuffle_rng = np.random.default_rng([config.seed, 1, e])
            dropout_rng = np.random.default_rng([config.seed, 2, e])
            total_nll = 0.0
            total_tokens = 0
            batch_iter = batches(
                train_corpus, src_vocab, tgt_vocab, config.batch_size, shuffle_rng, config.bucket
            )
            for b, batch in enumerate(batch_iter, 1):
                try:
                    model.zero_grads()
                    with Tape() as tape:
                        loss = batch_loss(model, batch, config.dropout, True, dropout_rng)
                    backward(loss, tape)
                    batch_tokens = int(batch.tgt_mask.sum())
                    total_nll += loss.item() * batch_tokens
                    total_tokens += batch_tokens
                    clip_global_norm(params, config.clip_norm)
                    adam_step(params, adam, lr, config.beta1, config.beta2, config.adam_eps)
                except NumericError as err:
                    raise NumericError(f"epoch {e + 1}, batch {b}: {err}") from err
            try:
                [(dev_bleu, dev_sari)] = dev_decode_scores(
                    model, dev_sources, dev_references, src_vocab, tgt_vocab, config.max_decode_len
                )
            except NumericError as err:
                raise NumericError(f"epoch {e + 1}, dev decode: {err}") from err
            record = EpochRecord(
                epoch=e + 1,
                mean_loss=total_nll / total_tokens,
                dev_bleu=dev_bleu,
                dev_sari=dev_sari,
                seconds=time.perf_counter() - t0,
            )
            records.append(record)
            if log is not None:
                log(
                    f"epoch={record.epoch} loss={record.mean_loss:.4f} "
                    f"dev_bleu={record.dev_bleu:.2f} dev_sari={record.dev_sari:.2f} "
                    f"seconds={record.seconds:.1f}"
                )
            chosen = select_model(records, config.tune_metric, config.sari_bleu_threshold)
            if best is None or chosen == record.epoch:
                best = make_checkpoint(
                    model,
                    src_vocab,
                    tgt_vocab,
                    epoch=record.epoch,
                    dev_bleu=dev_bleu,
                    dev_sari=dev_sari,
                )
    if best is None:
        raise UsageError("no epochs were run and no previous best was supplied")
    return TrainResult(
        model=model,
        best=best,
        records=records,
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        adam=adam,
    )
