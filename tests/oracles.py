"""Independent brute-force oracles used to cross-check the library.

Everything here is written from first principles with naive loops and no
shared code with the package: finite differences for gradients, direct
n-gram scanning for the metrics, filter-then-argmax for model selection,
a beam search that steps one hypothesis at a time, and a checkpoint reader
and writer that go through the file field by field, the reader into fresh
arrays and the writer one small rounding buffer at a time, on one thread.
Slow on purpose; clarity over speed.

The one exception is the per-sentence model: the teacher-forced loss of one
(source, target) pair, stepping one token at a time.  It is built from the
package's tape ops and from the elementwise sum, difference and product,
sigmoid, one-per-row gather, total and scale ops defined here on the
package's tape, all of which criterion 1 checks against finite differences,
and from a model's parameter records, but shares none of the batched
encoder, decoder or loss code it is a reference for.  Its LSTM cell is the
unfused one, sixteen tape nodes per step, that ``autodiff.lstm_cell`` is
checked against, and ``xent_chain`` is the unfused loss that
``autodiff.xent_rows`` is checked against bit for bit.  The elementwise ops
keep the narrow broadcasting the engine once had: equal shapes, a vector
over a matrix's rows, or a column over a matrix.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nsesimp import autodiff as ad
from nsesimp.autodiff import Tape, Tensor, backward
from nsesimp.data import BOS_ID, EOS_ID, PAD_ID, Vocabulary
from nsesimp.errors import DimensionError, FormatError
from nsesimp.model import ENCODER_KINDS
from nsesimp.training import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, AdamState, Checkpoint


# ---------------------------------------------------------------------------
# gradient checking


class InvalidCheckError(ValueError):
    """A gradient check was attempted on a non-deterministic function."""


@dataclass
class GradCheckReport:
    """Max relative finite-difference error per checked parameter."""

    max_errors: list[float]
    names: list[str]
    tol: float
    failures: list[str] = field(default_factory=list)

    @property
    def max_error(self) -> float:
        return max(self.max_errors) if self.max_errors else 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def grad_check(f, params, eps=1e-5, tol=1e-4, names=None, scale_floor=1e-3):
    """Compare the tape's gradients of ``f`` against central finite differences.

    ``f`` must be deterministic (fixed seeds, dropout off); this is verified
    by evaluating it twice and requiring bit-identical values.  The relative
    error divides by max(|analytic|, |numeric|, scale_floor) so that
    near-zero gradients are judged on an absolute scale.
    """
    if names is None:
        names = [f"param{i}" for i in range(len(params))]
    v1 = float(f().data)
    v2 = float(f().data)
    if v1 != v2:
        raise InvalidCheckError("function is not deterministic; cannot grad-check")

    saved = [p.grad for p in params]
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = f()
    backward(loss, tape)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    for p, g in zip(params, saved):
        p.grad = g

    max_errors = []
    failures = []
    for p, name, a in zip(params, names, analytic):
        flat = p.data.reshape(-1)
        worst = 0.0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = float(f().data)
            flat[j] = orig - eps
            down = float(f().data)
            flat[j] = orig
            numeric = (up - down) / (2.0 * eps)
            aj = float(a.reshape(-1)[j])
            denom = max(abs(aj), abs(numeric), scale_floor)
            worst = max(worst, abs(aj - numeric) / denom)
        max_errors.append(worst)
        if worst > tol:
            failures.append(name)
    return GradCheckReport(max_errors=max_errors, names=list(names), tol=tol, failures=failures)


# ---------------------------------------------------------------------------
# n-grams


def lower(tokens):
    return [t.lower() for t in tokens]


def ngrams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def count_of(gram_list, g):
    c = 0
    for x in gram_list:
        if x == g:
            c += 1
    return c


def distinct(gram_list):
    seen = []
    for g in gram_list:
        if g not in seen:
            seen.append(g)
    return seen


# ---------------------------------------------------------------------------
# SARI


def sari_instance(source, output, references):
    """Published SARI definition evaluated by direct enumeration.

    Returns (score, add, keep, delete) with score scaled by 100.
    """
    src = lower(source)
    out = lower(output)
    refs = [lower(r) for r in references]
    numref = len(refs)

    keep_scores, del_scores, add_scores = [], [], []
    for n in (1, 2, 3, 4):
        s_list = ngrams(src, n)
        c_list = ngrams(out, n)
        r_list = []
        for ref in refs:
            r_list.extend(ngrams(ref, n))
        universe = distinct(s_list + c_list + r_list)

        # keep: grams present in both source and output (counts scaled by
        # the number of references), scored against pooled reference counts
        kept_grams = []
        keepable_grams = []
        for g in universe:
            s_rep = count_of(s_list, g) * numref
            c_rep = count_of(c_list, g) * numref
            r_cnt = count_of(r_list, g)
            if min(s_rep, c_rep) > 0:
                kept_grams.append(g)
            if min(s_rep, r_cnt) > 0:
                keepable_grams.append(g)
        p_sum = 0.0
        for g in kept_grams:
            kept = min(count_of(s_list, g), count_of(c_list, g)) * numref
            good = min(kept, count_of(r_list, g))
            p_sum += good / kept
        keep_p = p_sum / len(kept_grams) if kept_grams else 0.0
        r_sum = 0.0
        for g in keepable_grams:
            kept = min(count_of(s_list, g), count_of(c_list, g)) * numref
            good = min(kept, count_of(r_list, g))
            keepable = min(count_of(s_list, g) * numref, count_of(r_list, g))
            r_sum += good / keepable
        keep_r = r_sum / len(keepable_grams) if keepable_grams else 0.0
        if keep_p > 0 or keep_r > 0:
            keep_scores.append(2 * keep_p * keep_r / (keep_p + keep_r))
        else:
            keep_scores.append(0.0)

        # delete: grams removed from the source; precision only
        deleted_grams = []
        for g in universe:
            s_rep = count_of(s_list, g) * numref
            c_rep = count_of(c_list, g) * numref
            if s_rep - c_rep > 0:
                deleted_grams.append(g)
        d_sum = 0.0
        for g in deleted_grams:
            removed = count_of(s_list, g) * numref - count_of(c_list, g) * numref
            good = removed - count_of(r_list, g)
            if good > 0:
                d_sum += good / removed
        del_scores.append(d_sum / len(deleted_grams) if deleted_grams else 0.0)

        # add: grams introduced by the output, as plain sets
        added = [g for g in distinct(c_list) if count_of(s_list, g) == 0]
        addable = [g for g in distinct(r_list) if count_of(s_list, g) == 0]
        good_added = [g for g in added if count_of(r_list, g) > 0]
        add_p = len(good_added) / len(added) if added else 0.0
        add_r = len(good_added) / len(addable) if addable else 0.0
        if add_p > 0 or add_r > 0:
            add_scores.append(2 * add_p * add_r / (add_p + add_r))
        else:
            add_scores.append(0.0)

    keep = sum(keep_scores) / 4
    delete = sum(del_scores) / 4
    add = sum(add_scores) / 4
    return 100.0 * (keep + delete + add) / 3.0, add, keep, delete


def sari_corpus(instances):
    """instances: list of (source, output, references) token triples."""
    scores = [sari_instance(s, o, r)[0] for s, o, r in instances]
    return sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# BLEU


def bleu_corpus(instances, smooth=False):
    """instances: list of (output, references) token pairs."""
    clipped = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    out_len = 0
    ref_len = 0
    for output, references in instances:
        out = lower(output)
        refs = [lower(r) for r in references]
        out_len += len(out)
        best_len = None
        for ref in refs:
            if best_len is None:
                best_len = len(ref)
                continue
            d_new, d_old = abs(len(ref) - len(out)), abs(best_len - len(out))
            if d_new < d_old or (d_new == d_old and len(ref) < best_len):
                best_len = len(ref)
        ref_len += best_len
        for n in (1, 2, 3, 4):
            out_grams = ngrams(out, n)
            totals[n - 1] += len(out_grams)
            for g in distinct(out_grams):
                in_out = count_of(out_grams, g)
                in_refs = 0
                for ref in refs:
                    c = count_of(ngrams(ref, n), g)
                    if c > in_refs:
                        in_refs = c
                clipped[n - 1] += min(in_out, in_refs)
    precisions = []
    for i in range(4):
        num, den = clipped[i], totals[i]
        if smooth and i >= 1:
            num, den = num + 1, den + 1
        precisions.append(num / den if den > 0 else 0.0)
    if out_len == 0 or min(precisions) == 0.0:
        return 0.0
    bp = 1.0 if out_len >= ref_len else math.exp(1.0 - ref_len / out_len)
    return 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4)


# ---------------------------------------------------------------------------
# model selection


def select_model(records, tune_metric, threshold):
    """records: list of (bleu, sari); returns the 1-based best epoch."""
    if tune_metric == "bleu":
        best = 1
        for i, (bleu, _) in enumerate(records, start=1):
            if bleu > records[best - 1][0]:
                best = i
        return best
    eligible = [i for i, (bleu, _) in enumerate(records, start=1) if bleu >= threshold]
    if not eligible:
        return select_model(records, "bleu", threshold)
    best = eligible[0]
    for i in eligible:
        if records[i - 1][1] > records[best - 1][1]:
            best = i
    return best


# ---------------------------------------------------------------------------
# beam search


def beam_search(session, beam, max_len, length_normalize, eos_id, never=(PAD_ID, BOS_ID)):
    """Beam search with one session step per live hypothesis.

    Each hypothesis is its own one-row session state; its candidates are
    the first ``beam`` ids of a full stable argsort of its row, leaving out
    ``never`` (padding and the begin marker), so token ties go to the lower
    id.  Candidates are ranked by score, ties kept in
    generation order (hypothesis, then token); terminal ones are banked,
    the best others refill the beam.  Returns the selected
    ``(tokens, score, alphas, finished)``: the best finished hypothesis,
    else the best live one, by raw or per-step score.
    """
    live = [((), 0.0, (), session.start())]
    finished = []
    for _ in range(max_len):
        candidates = []
        for tokens, score, alphas, state in live:
            log_probs, alpha, core = session.step(state)
            row = log_probs[0]
            order = [int(t) for t in np.argsort(-row, kind="stable") if t not in never]
            for token in order[:beam]:
                candidates.append((score + float(row[token]), tokens, alphas, alpha[0], core, token))
        candidates.sort(key=lambda c: -c[0])
        refill = []
        for score, tokens, alphas, alpha, core, token in candidates:
            if token == eos_id:
                finished.append((tokens, score, alphas, True))
            elif len(refill) < beam:
                state = session.advance(core, [0], [token])
                refill.append((tokens + (token,), score, alphas + (alpha,), state))
        live = refill
        if not live:
            break
    pool = finished if finished else [(t, s, a, False) for t, s, a, _ in live]

    def key(hyp):
        tokens, score, _, done = hyp
        if not length_normalize:
            return score
        return score / max(len(tokens) + (1 if done else 0), 1)

    return max(pool, key=key)


# ---------------------------------------------------------------------------
# checkpoint reading and writing


class _FileReader:
    """Reads checkpoint fields from an open file, tracking the byte offset.

    Every read is checked against the file size first, so a truncated file
    or a corrupt length raises FormatError at the field's offset before
    anything of the claimed size is allocated.
    """

    def __init__(self, f):
        self.f = f
        self.pos = 0
        self.size = os.fstat(f.fileno()).st_size

    def _claim(self, n, what):
        if self.pos + n > self.size:
            raise FormatError(f"file truncated while reading {what}", offset=self.pos)
        self.pos += n

    def take(self, n, what):
        self._claim(n, what)
        return self.f.read(n)

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]

    def string(self, what):
        n = self.unpack("<I", f"{what} length")
        at = self.pos
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{what} is not valid UTF-8", offset=at) from e

    def f32_array(self, what, expected=None):
        at = self.pos
        rank = self.unpack("<I", f"{what} rank")
        if rank > 8:
            raise FormatError(f"{what} has implausible rank {rank}", offset=self.pos - 4)
        shape = tuple(self.unpack("<I", f"{what} dim") for _ in range(rank))
        if expected is not None and shape != expected:
            raise FormatError(f"{what} has shape {shape}, expected {expected}", offset=at)
        self._claim(4 * math.prod(shape), f"{what} data")
        arr = np.empty(shape, "<f4")
        self.f.readinto(arr)
        return arr


def load_checkpoint(path):
    """Read a checkpoint field by field from the file into fresh arrays.

    The reference for ``training.load_checkpoint``: the same values, or the
    same FormatError message and offset.
    """
    with open(path, "rb") as f:
        r = _FileReader(f)
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
            m = [r.f32_array("optimizer moment", a.shape) for _, a in params]
            v = [r.f32_array("optimizer moment", a.shape) for _, a in params]
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


def _write_strings(f, strings):
    for s in strings:
        data = s.encode("utf-8")
        f.write(struct.pack("<I", len(data)))
        f.write(data)


def _write_array(f, arr, buf):
    f.write(struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape))
    if arr.dtype == buf.dtype:
        f.write(np.ascontiguousarray(arr).data)
        return
    flat = arr.reshape(-1)
    for lo in range(0, flat.size, buf.size):
        part = buf[: min(buf.size, flat.size - lo)]
        part[...] = flat[lo : lo + part.size]
        f.write(part.data)


def save_checkpoint(ckpt, path):
    """Write ``ckpt`` field by field on this thread, rounding through one small buffer.

    The reference for ``training.save_checkpoint``: the same bytes.  An
    existing file at ``path`` is unlinked first.
    """
    path = Path(path).resolve()
    path.unlink(missing_ok=True)
    buf = np.empty(1 << 16, "<f4")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        _write_strings(f, [ckpt.encoder_kind])
        f.write(struct.pack("<IIdd", ckpt.dim, ckpt.epoch, ckpt.dev_bleu, ckpt.dev_sari))
        for vocab in (ckpt.src_vocab, ckpt.tgt_vocab):
            f.write(struct.pack("<I", vocab.size))
            _write_strings(f, vocab.id_to_token)
        f.write(struct.pack("<I", len(ckpt.params)))
        for name, arr in ckpt.params:
            _write_strings(f, [name])
            _write_array(f, arr, buf)
        if ckpt.adam is None:
            f.write(b"\x00")
        else:
            f.write(struct.pack("<BQ", 1, ckpt.adam.t))
            for arr in ckpt.adam.m + ckpt.adam.v:
                _write_array(f, arr, buf)


# ---------------------------------------------------------------------------
# tape ops that only the oracles use


def _ew_check(a, b):
    """Elementwise shapes: equal, a vector over a matrix's rows, or a column over a matrix."""
    if a.shape == b.shape:
        return
    for big, small in ((a, b), (b, a)):
        if big.ndim == 2 and small.ndim == 1 and big.shape[1] == small.shape[0]:
            return
        if big.ndim == 2 and small.ndim == 2 and small.shape == (big.shape[0], 1):
            return
    raise DimensionError(f"incompatible elementwise shapes {a.shape} and {b.shape}")


def _reduce_to(g, shape):
    """Sum a broadcast gradient back down to an operand's shape."""
    if g.shape == shape:
        return g
    if len(shape) == 1:
        return g.sum(axis=0)
    return g.sum(axis=1, keepdims=True)


def add(a, b):
    """Elementwise a + b."""
    _ew_check(a.data, b.data)
    ash, bsh = a.shape, b.shape

    def bw(g):
        return _reduce_to(g, ash), _reduce_to(g, bsh)

    return ad._emit(a.data + b.data, (a, b), bw)


def sub(a, b):
    """Elementwise a - b."""
    _ew_check(a.data, b.data)
    ash, bsh = a.shape, b.shape

    def bw(g):
        return _reduce_to(g, ash), _reduce_to(-g, bsh)

    return ad._emit(a.data - b.data, (a, b), bw)


def mul(a, b):
    """Elementwise a * b."""
    _ew_check(a.data, b.data)
    a_d, b_d = a.data, b.data

    def bw(g):
        return _reduce_to(g * b_d, a_d.shape), _reduce_to(g * a_d, b_d.shape)

    return ad._emit(a_d * b_d, (a, b), bw)


def matmul(a, b):
    """Matrix product of two matrices."""
    a_d, b_d = a.data, b.data
    if a_d.ndim != 2 or b_d.ndim != 2 or a_d.shape[1] != b_d.shape[0]:
        raise DimensionError(f"matmul {a_d.shape} x {b_d.shape}")

    def bw(g):
        return g @ b_d.T, a_d.T @ g

    return ad._emit(a_d @ b_d, (a, b), bw)


def sigmoid(x):
    """Logistic function, from exp(-|x|) so that no input overflows."""
    xd = x.data
    e = np.exp(-np.abs(xd))
    out = np.where(xd >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bw(g):
        return (g * out * (1.0 - out),)

    return ad._emit(out, (x,), bw)


def reshape(x, shape):
    """The same entries in a new shape, in row-major order."""
    if int(np.prod(shape)) != x.size:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}")
    old = x.shape

    def bw(g):
        return (g.reshape(old),)

    return ad._emit(x.data.reshape(shape), (x,), bw)


def gather_rows(m, ids):
    """Pick one entry per row: out[t] = m[t, ids[t]]."""
    md = m.data
    idx = np.asarray(ids, dtype=np.intp)
    if md.ndim != 2 or idx.shape != (md.shape[0],):
        raise DimensionError("gather_rows needs one id per row of a matrix")
    if idx.size and (idx.min() < 0 or idx.max() >= md.shape[1]):
        raise IndexError("column id out of range")
    rows_ix = np.arange(md.shape[0])

    def bw(g):
        z = np.zeros_like(md)
        z[rows_ix, idx] = g
        return (z,)

    return ad._emit(md[rows_ix, idx], (m,), bw)


def sum_all(x):
    """The sum of every entry, as a scalar."""
    shape = x.shape

    def bw(g):
        return (np.full(shape, float(g)),)

    return ad._emit(np.asarray(x.data.sum()), (x,), bw)


def scale(x, c):
    """Every entry times the constant ``c``."""
    c = float(c)

    def bw(g):
        return (g * c,)

    return ad._emit(x.data * c, (x,), bw)


def xent_chain(logits, ids, mask):
    """``autodiff.xent_rows`` as five unfused tape nodes: log-softmax, gather, mask, sum, scale."""
    picked = gather_rows(ad.log_softmax_rows(logits), ids)
    return scale(sum_all(mul(picked, Tensor(mask))), -1.0 / mask.sum())


# ---------------------------------------------------------------------------
# the per-sentence model


def lstm_cell(p, x, h, c):
    """One LSTM transition of [k, ·] rows: gates W_x x + W_h h + b in [i, f, g, o] order.

    Sixteen tape nodes, one per sum, slice, activation and product.
    """
    H = p.hidden_dim
    z = add(add(ad.affine_rows(x, p.W_x), ad.affine_rows(h, p.W_h)), p.b)
    i = sigmoid(ad.narrow(z, 0, H))
    f = sigmoid(ad.narrow(z, H, 2 * H))
    g = ad.tanh(ad.narrow(z, 2 * H, 3 * H))
    o = sigmoid(ad.narrow(z, 3 * H, 4 * H))
    c = add(mul(f, c), mul(i, g))
    return mul(o, ad.tanh(c)), c


def _zeros(H):
    return Tensor(np.zeros((1, H)))


def lstm_encode(p, emb):
    """Two stacked LSTM layers, token by token; returns (states, final h, final c)."""
    h1 = c1 = h2 = c2 = _zeros(p.layer1.hidden_dim)
    outputs = []
    for t in range(emb.shape[0]):
        h1, c1 = lstm_cell(p.layer1, ad.take_rows(emb, [t]), h1, c1)
        h2, c2 = lstm_cell(p.layer2, h1, h2, c2)
        outputs.append(h2)
    return ad.stack_rows(outputs), h2, c2


def nse_encode(p, emb):
    """The memory encoder, token by token; returns (states, final h, final c, slot weights).

    The memory starts as the embeddings; each step reads it with softmax
    weights, composes, writes, and moves every row toward the written row
    by its weight.
    """
    S, D = emb.shape
    read_h = read_c = write_h = write_c = _zeros(p.read.hidden_dim)
    memory = emb
    outputs, slot_weights = [], []
    for t in range(S):
        read_h, read_c = lstm_cell(p.read, ad.take_rows(emb, [t]), read_h, read_c)
        weights = ad.softmax_rows(ad.affine_rows(read_h, memory))
        summary = matmul(weights, memory)
        hidden = ad.tanh(ad.affine_rows(ad.concat(read_h, summary), p.compose.W1, p.compose.b1))
        composed = ad.affine_rows(hidden, p.compose.W2, p.compose.b2)
        write_h, write_c = lstm_cell(p.write, composed, write_h, write_c)
        step = sub(reshape(write_h, (D,)), memory)
        memory = add(memory, mul(reshape(weights, (S, 1)), step))
        outputs.append(write_h)
        slot_weights.append(weights.data[0])
    return ad.stack_rows(outputs), write_h, write_c, slot_weights


def encode(model, src_ids):
    """(states [S, D], final h [1, H], final c [1, H]) of one source sentence."""
    emb = ad.take_rows(model.src_embed.E, src_ids)
    if model.encoder_kind == "lstm":
        return lstm_encode(model.encoder, emb)
    return nse_encode(model.encoder, emb)[:3]


def teacher_logits(model, states, final_h, final_c, decoder_input_ids):
    """[T, V] logits, one full decoder step (attention, two layers, output) per token."""
    p = model.decoder
    h1 = h2 = ad.tanh(ad.affine_rows(final_h, p.init_h))
    c1 = c2 = ad.tanh(ad.affine_rows(final_c, p.init_c))
    rows = []
    for token in decoder_input_ids:
        y = ad.take_rows(model.tgt_embed.E, [token])
        alpha = ad.softmax_rows(ad.affine_rows(h2, states))
        context = matmul(alpha, states)
        h1, c1 = lstm_cell(p.layer1, ad.concat(y, context), h1, c1)
        h2, c2 = lstm_cell(p.layer2, h1, h2, c2)
        rows.append(ad.affine_rows(ad.concat(h2, context), p.out_w, p.out_b))
    return ad.stack_rows(rows)


def sentence_nll(model, src_ids, tgt_ids):
    """Summed negative log-likelihood of the wrapped target of one pair (no dropout)."""
    states, final_h, final_c = encode(model, src_ids)
    logits = teacher_logits(model, states, final_h, final_c, [BOS_ID] + list(tgt_ids))
    picked = gather_rows(ad.log_softmax_rows(logits), list(tgt_ids) + [EOS_ID])
    return scale(sum_all(picked), -1.0)
