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

import errno
import math
import mmap
import os
import struct
import threading
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

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
    if not mask.any():
        raise UsageError("target is entirely padding")
    return ad.xent_rows(logits, ids, mask)


def batch_loss(
    model: Model,
    batch: Batch,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Teacher-forced loss of a padded batch, as one graph.

    The sum of every real target token's negative log-likelihood, divided
    by the batch's real-token count.  Source and decoder-input ids past a
    sentence's end are never read into a real position, so they change
    neither the loss nor its gradients.  Dropout applies at
    ``dropout_rate`` (none at 0), drawing from ``rng``.
    """
    lengths = batch.src_mask.sum(axis=1).astype(np.intp)
    enc = encode(model, batch.src, dropout_rate, rng, lengths)
    dec_in = np.concatenate(
        [np.full((batch.size, 1), BOS_ID), batch.tgt_out[:, :-1]], axis=1
    )
    logits = teacher_logits(model, enc, dec_in, dropout_rate, rng)
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
    is :func:`batch_loss` of a batch of one, with dropout only when
    ``training`` is set.
    """
    rate = dropout_rate if training else 0.0
    return batch_loss(model, Batch.from_ids([(src_ids, tgt_ids)]), rate, rng)


# ---------------------------------------------------------------------------
# whole-model passes
#
# The Adam step, the clip rescale, the best snapshot, the checkpoint
# widening and the checkpoint save each touch every parameter once,
# elementwise.  Each is one pass: a list of jobs over chunks of elements that
# the caller and one worker thread per further usable CPU claim one at a time,
# so a thread slowed by other work (such as BLAS threads still spinning) takes
# fewer jobs.  Each element gets the same operations in the same order
# whichever thread runs its job, so the results are bitwise those of one
# thread.  Jobs call only numpy, os.pwrite, os.unlink and the private helpers
# below, never a traceable public function.

# Elements per job: the chunk's slices and the Adam step's two scratch
# buffers stay in cache across its passes.  On 2 cores a warm Adam step
# over 40.2M parameters took 0.20-0.25 s at 2^15 and 2^16, and
# 0.26-0.51 s at 2^13, 2^14 and 2^17.
_CHUNK = 1 << 15

# Elements below which a pass runs on the caller alone, since waking the
# workers costs about what they save.  On 2 cores a clip plus Adam step took
# 0.6 ms on the caller against 1.3 ms pooled at 52,872 values (22 arrays),
# about the same at 2^18 to 2^20 values, and 18 ms against 16 ms at 2^21.
_LEND_FROM = 1 << 20

# The workers: the executor starts its threads as passes are lent to it, so
# importing starts none.  With one usable CPU no pass is lent, and the size
# is 1 only because the executor rejects 0.
_WORKERS = len(os.sched_getaffinity(0)) - 1
_POOL = ThreadPoolExecutor(max(_WORKERS, 1), thread_name_prefix="nsesimp-pass")


def _chunked(job, size: int, *args, step: int = 0) -> list:
    """``job(lo, hi, *args)`` per chunk ``[lo, hi)`` of ``size`` elements, ``step`` or ``_CHUNK`` long."""
    step = step or _CHUNK
    return [partial(job, lo, min(lo + step, size), *args) for lo in range(0, size, step)]


class _Pass:
    """One list of jobs, claimed in order by the caller and by pool threads.

    Every job runs under the caller's numpy error handling.  A job that
    raises closes the claims, and the first error is kept.
    """

    def __init__(self, jobs: list):
        self.jobs = iter(jobs)
        self.errstate = np.geterr()
        self.lock = threading.Lock()
        self.closed = False
        self.error: BaseException | None = None

    def work(self) -> None:
        """Run claimed jobs until the claims close or none is left."""
        with np.errstate(**self.errstate):
            while True:
                with self.lock:
                    job = None if self.closed else next(self.jobs, None)
                if job is None:
                    return
                try:
                    job()
                except BaseException as e:  # kept, and raised by the caller once no job runs
                    with self.lock:
                        if self.error is None:
                            self.error, self.closed = e, True


def _run(jobs: list, values: int) -> None:
    """Run a pass over ``values`` elements; return, or raise a job's error, once no job runs.

    A pass of ``_LEND_FROM`` values or more is lent to up to one pool thread
    per job after the first.  Once the caller's own claims end, it closes the
    claims, cancels the lent turns that no thread has started and waits for
    the rest; an interrupt during that is held back until the wait ends.
    """
    task = _Pass(jobs)
    helpers = min(len(jobs) - 1, _WORKERS) if values >= _LEND_FROM else 0
    turns = [_POOL.submit(task.work) for _ in range(helpers)]
    try:
        task.work()
    finally:
        interrupt = None
        while True:
            try:
                task.closed = True
                for turn in turns:
                    turn.cancel()
                wait(turns)
                break
            except BaseException as e:  # re-raised below, once no lent job runs
                interrupt = interrupt or e
        if interrupt is not None:
            raise interrupt
    if task.error is not None:
        raise task.error


def _round_chunk(lo: int, hi: int, dst: np.ndarray, src: np.ndarray) -> None:
    """``src[lo:hi]`` rounded to float32, as a checkpoint stores it, into ``dst[lo:hi]``."""
    d, s = dst[lo:hi], src[lo:hi]
    # a float32 destination rounds on the copy itself
    np.copyto(d, s if d.dtype == np.float32 else np.asarray(s, np.float32))


def _round_into(pairs) -> None:
    """Each ``(dst, src)``: ``src`` rounded to float32 into the C-contiguous ``dst``, as one pass."""
    jobs, values = [], 0
    for dst, src in pairs:
        jobs += _chunked(_round_chunk, dst.size, dst.reshape(-1), src.reshape(-1))
        values += dst.size
    _run(jobs, values)


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
        # np.zeros, unlike zeros_like, leaves the pages untouched until the
        # first step writes them, on the workers
        return AdamState(
            m=[np.zeros(p.data.shape) for p in params],
            v=[np.zeros(p.data.shape) for p in params],
        )


def _adam_chunk(lo, hi, p_all, g_all, m_all, v_all, lr, beta1, beta2, eps, c1, c2) -> None:
    w, g, m, v = p_all[lo:hi], g_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
    a, b = np.empty(hi - lo), np.empty(hi - lo)
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


def _usable_moment(moment, like: np.ndarray) -> bool:
    return (
        isinstance(moment, np.ndarray)
        and moment.dtype == np.float64
        and moment.flags.writeable
        and moment.flags.c_contiguous
        and moment.shape == like.shape
    )


def adam_step(
    params,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place, as one whole-model pass.

    Each chunk is updated through two small scratch buffers, so no
    full-size temporary is allocated and each array is streamed from memory
    once.  The elementwise operations run in the order of
    ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``, so the results are
    bitwise those of evaluating that expression on whole arrays.  Every
    parameter, gradient and moment is checked before anything changes: a
    rejected call leaves the parameters, the moments and ``t`` as they were.
    """
    if not len(params) == len(state.m) == len(state.v):
        raise UsageError(
            f"optimizer state tracks {len(state.m)} and {len(state.v)} tensors, "
            f"got {len(params)} params"
        )
    for p, m, v in zip(params, state.m, state.v):
        if p.grad is None:
            raise UsageError("parameter has no gradient; run backward first")
        if p.grad.shape != p.data.shape:
            raise UsageError(f"gradient of shape {p.grad.shape} for a {p.data.shape} parameter")
        if not (p.data.flags.c_contiguous and p.data.flags.writeable):
            raise UsageError("parameters must be writeable and C-contiguous to update in place")
        if not (_usable_moment(m, p.data) and _usable_moment(v, p.data)):
            raise UsageError(
                f"moments of a {p.data.shape} parameter must be writeable C-contiguous "
                f"float64 arrays of its shape"
            )
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    jobs = []
    for p, m, v in zip(params, state.m, state.v):
        flat = [a.reshape(-1) for a in (p.data, p.grad, m, v)]
        jobs += _chunked(_adam_chunk, p.data.size, *flat, lr, beta1, beta2, eps, c1, c2)
    _run(jobs, sum(p.data.size for p in params))


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint norm is at most ``max_norm``.

    Returns the pre-clip norm, which is inf when it overflows.  Direction
    is never changed.  A sum of squares that overflows while every entry is
    finite is summed again over the gradients divided by their largest
    magnitude, and the clipped gradient is still ``max_norm`` long.
    """
    total, big = 0.0, 1.0
    for p in params:
        if p.grad is None:
            raise UsageError("parameter has no gradient; run backward first")
        if not (p.grad.flags.c_contiguous and p.grad.flags.writeable):
            raise UsageError("gradients must be writeable and C-contiguous to scale in place")
        g = p.grad.reshape(-1)
        total += float(np.vdot(g, g))
    if math.isinf(total) and all(np.isfinite(p.grad).all() for p in params):
        big = max(float(np.abs(p.grad).max(initial=0.0)) for p in params)
        total = 0.0
        for p in params:
            g = p.grad.reshape(-1) / big
            total += float(np.vdot(g, g))
    # the norm is big·root; the factor divides by each part in turn, so it
    # stays finite and non-zero when the norm itself overflows
    root = total**0.5
    norm = big * root
    if norm > max_norm > 0:
        factor = (max_norm / big) / root
        jobs = []
        for p in params:
            jobs += _chunked(_scale_chunk, p.grad.size, p.grad.reshape(-1), factor)
        _run(jobs, sum(p.grad.size for p in params))
    return norm


def _scale_chunk(lo: int, hi: int, g: np.ndarray, factor: float) -> None:
    g[lo:hi] *= factor


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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} {value} must be a finite number")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be non-negative")
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
    """Everything needed to resume or serve a model; stored as float32 on disk.

    A made checkpoint reads the live float64 arrays of its model and
    optimizer, a loaded one holds read-only float32 views of the file, and
    ``train``'s best snapshot holds frozen float32 copies.
    """

    encoder_kind: str
    dim: int
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    params: list[tuple[str, np.ndarray]]
    adam: AdamState | None = None
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
    """A checkpoint that reads ``model``'s parameters and ``adam``'s moments in place.

    Nothing is copied: saving rounds each array to float32 as it writes it.
    Save a made checkpoint before training goes on, or it saves the later
    values.
    """
    return Checkpoint(
        encoder_kind=model.encoder_kind,
        dim=model.dim,
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        params=[(name, t.data) for name, t in model.named_params()],
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
    """Rebuild a live float64 model from a checkpoint's float32-rounded parameters.

    The parameters are widened straight into the arrays the model was built
    with, in one pass over the whole model.
    """
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
    _round_into((tensor.data, arr) for (_, tensor), (_, arr) in zip(live, ckpt.params))
    return model


def restore_adam(ckpt: Checkpoint) -> AdamState | None:
    """The checkpoint's optimizer state as float64 moments, rounded through float32."""
    if ckpt.adam is None:
        return None
    m = [np.empty(a.shape) for a in ckpt.adam.m]
    v = [np.empty(a.shape) for a in ckpt.adam.v]
    _round_into(zip(m + v, ckpt.adam.m + ckpt.adam.v))
    return AdamState(m=m, v=v, t=ckpt.adam.t)


_U32 = struct.Struct("<I")
_F4 = np.dtype("<f4")

# Values per save job: larger writes cost less per byte, larger buffers fall
# out of cache.  On 2 cores a paper-shape save (120.6M values, 483 MB) took a
# median 0.16-0.17 s at 2^17, 0.17-0.19 s at 2^18, 0.19 s at 2^16 and
# 0.21-0.22 s at 2^15.
_SAVE_CHUNK = 1 << 17


def _write_values(lo: int, hi: int, fd: int, at: int, src: np.ndarray) -> None:
    """``src[lo:hi]`` as ``<f4`` (rounded as ``astype`` rounds), written at ``at + 4·lo`` of ``fd``."""
    data = np.ascontiguousarray(src[lo:hi], _F4).data.cast("B")
    at += 4 * lo
    while data:
        n = os.pwrite(fd, data, at)
        data, at = data[n:], at + n


def _packed_strings(strings) -> bytearray:
    """Length-prefixed UTF-8 strings in one buffer: what ``_Reader.strings`` walks."""
    out, pack = bytearray(), _U32.pack
    for data in map(str.encode, strings):
        out += pack(len(data))
        out += data
    return out


def _leave_gap(f, arr: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank and shape of ``arr``, then a gap for its values: (the gap's offset, the values)."""
    f.write(struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape))
    at = f.tell()
    f.seek(4 * arr.size, os.SEEK_CUR)
    return at, arr.reshape(-1)


def _set_aside(path: Path) -> Path | None:
    """Rename the file at ``path`` to a new name beside it; None when there is none."""
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    aside = path.with_name(f"{path.name}.{os.urandom(8).hex()}.old")
    try:
        path.rename(aside)
    except FileNotFoundError:
        return None
    return aside


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` to ``path``: every field here, then the arrays' values as one pass.

    Each job rounds a chunk of values to float32, as ``astype`` does, into the
    gap left for it, so the bytes are a serial save's.  The magic goes in last,
    so a killed save's file fails to load.  An existing file at ``path`` (or a
    symlink's target) is never truncated, since a loaded checkpoint may map it:
    it is renamed to ``<name>.<16 hex digits>.old`` and unlinked by the pass's
    first job.  The call returns, or raises, once no job runs; a failed save
    puts the renamed file back if the pass has not unlinked it, else removes
    the new file.
    """
    path = Path(path).resolve()
    old = _set_aside(path)
    opened = False
    try:
        with open(path, "wb") as f:
            opened = True
            f.write(struct.pack("<4xI", CHECKPOINT_VERSION))  # zeros where the magic goes
            f.write(_packed_strings([ckpt.encoder_kind]))
            f.write(struct.pack("<IIdd", ckpt.dim, ckpt.epoch, ckpt.dev_bleu, ckpt.dev_sari))
            for vocab in (ckpt.src_vocab, ckpt.tgt_vocab):
                f.write(struct.pack("<I", vocab.size))
                f.write(_packed_strings(vocab.id_to_token))
            f.write(struct.pack("<I", len(ckpt.params)))
            gaps = []
            for name, arr in ckpt.params:
                f.write(_packed_strings([name]))
                gaps.append(_leave_gap(f, arr))
            if ckpt.adam is None:
                f.write(b"\x00")
            else:
                f.write(struct.pack("<BQ", 1, ckpt.adam.t))
                gaps += [_leave_gap(f, arr) for arr in ckpt.adam.m + ckpt.adam.v]
            jobs = [] if old is None else [partial(os.unlink, old)]
            for at, flat in gaps:
                jobs += _chunked(_write_values, flat.size, f.fileno(), at, flat, step=_SAVE_CHUNK)
            f.flush()
            _run(jobs, sum(flat.size for _, flat in gaps))
            f.seek(0)
            f.write(CHECKPOINT_MAGIC)
    except BaseException:
        # no job runs now, so the old file is either unlinked or still aside
        if old is not None and old.exists():
            old.replace(path)
        elif opened:
            path.unlink(missing_ok=True)
        raise


class _Reader:
    """Walks checkpoint fields in a read-only buffer, tracking the byte offset.

    Every field is checked against the buffer's size first, so a truncated
    file or a corrupt length raises :class:`FormatError` at the field's
    offset before anything of the claimed size is made.
    """

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0
        self.size = len(buf)

    def _claim(self, n: int, what: str) -> int:
        at = self.pos
        if at + n > self.size:
            raise FormatError(f"file truncated while reading {what}", offset=at)
        self.pos = at + n
        return at

    def take(self, n: int, what: str) -> bytes:
        return self.buf[self._claim(n, what) : self.pos]

    def unpack(self, fmt: str, what: str):
        return struct.unpack_from(fmt, self.buf, self._claim(struct.calcsize(fmt), what))[0]

    def strings(self, count: int, what: str) -> list[str]:
        """``count`` length-prefixed UTF-8 strings, in one tight loop."""
        buf, size, pos, out = self.buf, self.size, self.pos, []
        length_of = _U32.unpack_from
        try:
            for _ in range(count):
                if pos + 4 > size:
                    raise FormatError(f"file truncated while reading {what} length", offset=pos)
                (n,) = length_of(buf, pos)
                pos += 4
                if pos + n > size:
                    raise FormatError(f"file truncated while reading {what}", offset=pos)
                out.append(str(buf[pos : pos + n], "utf-8"))
                pos += n
        except UnicodeDecodeError as e:
            raise FormatError(f"{what} is not valid UTF-8", offset=pos) from e
        self.pos = pos
        return out

    def string(self, what: str) -> str:
        return self.strings(1, what)[0]

    def f32_array(self, what: str, expected: tuple | None = None) -> np.ndarray:
        """A read-only ``<f4`` view of the array's bytes in the buffer.

        With ``expected``, any other shape raises at the array's offset.
        """
        at = self.pos
        rank = self.unpack("<I", f"{what} rank")
        if rank > 8:
            raise FormatError(f"{what} has implausible rank {rank}", offset=self.pos - 4)
        shape = tuple(self.unpack("<I", f"{what} dim") for _ in range(rank))
        if expected is not None and shape != expected:
            raise FormatError(f"{what} has shape {shape}, expected {expected}", offset=at)
        count = math.prod(shape)
        at = self._claim(4 * count, f"{what} data")
        return np.frombuffer(self.buf, "<f4", count, at).reshape(shape)


def _map(f):
    """The whole file mapped read-only; an empty file, which cannot be mapped, as no bytes."""
    try:
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except ValueError:
        return b""


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint without copying its arrays.

    The file is mapped read-only, and every parameter and optimizer moment
    is a read-only float32 view of the mapping, so a load reads only the
    pages that are used: serving never touches the optimizer section.
    The mapping lives as long as any view of it.
    """
    with open(path, "rb") as f:
        r = _Reader(_map(f))
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
        tokens = r.strings(n, f"{side} vocab token")
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
        m = [r.f32_array("optimizer moment", a.shape) for _, a in params]
        v = [r.f32_array("optimizer moment", a.shape) for _, a in params]
        adam = AdamState(m=m, v=v, t=t)
    if r.pos != r.size:
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
    """What :func:`train` returns; ``model`` holds no gradients."""

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
    which lets callers interleave their own convergence checks.  Gradients
    the caller left on ``model`` are dropped, each batch's gradients are
    released right after its Adam step, and the returned model holds none.
    A NaN or Inf raises :class:`NumericError` naming the epoch and the
    batch (or the dev decode) where it appeared.
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
    frozen = None  # the arrays of this call's best snapshot, once it takes one
    # Gradients live from a batch's backward to its Adam step; none left by
    # the caller may be added into.
    model.zero_grads()

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
                    with Tape() as tape:
                        loss = batch_loss(model, batch, config.dropout, dropout_rng)
                    backward(loss, tape)
                    batch_tokens = int(batch.tgt_mask.sum())
                    total_nll += loss.item() * batch_tokens
                    total_tokens += batch_tokens
                    clip_global_norm(params, config.clip_norm)
                    adam_step(params, adam, lr, config.beta1, config.beta2, config.adam_eps)
                    model.zero_grads()
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
                # frozen, since the model trains on after this epoch, into the
                # arrays of a snapshot this call took before, never a caller's
                if frozen is None:
                    frozen = [np.empty(a.shape, np.float32) for _, a in best.params]
                _round_into(zip(frozen, (a for _, a in best.params)))
                best.params = [(name, a) for (name, _), a in zip(best.params, frozen)]
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
