"""Source-sentence encoders: a 2-layer LSTM and a memory-augmented variant.

Both consume the token embeddings of B sentences as one time-major [S·B, D]
matrix, where row t·B + b is step t of sentence b and S is the longest
length, and produce an :class:`EncoderOutput` whose ``states`` matrix, in
the same layout, is what the decoder attends over.  Every recurrence steps
the B sentences together as [B, ·] rows.  A sentence shorter than S keeps
stepping past its end and nothing reads those states: each attention or
memory read scores one sentence's own S slots only, masked to its real
steps, and each final state is taken at the sentence's own last step.  One
sentence is B = 1, with no mask.
An input projection whose inputs are all known before its recurrence starts
is applied to all S·B rows with one product, so each step makes only its
recurrent product.

The memory-augmented encoder keeps one memory row per source token,
initialized with the raw embeddings.  Each step a read LSTM summarizes the
next token, soft-attends over its sentence's memory rows, fuses the two
through a small MLP, projects back with a write LSTM, and blends the
written row into those memory rows in proportion to the attention weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import Tensor
from .errors import DimensionError, UsageError


class Layout:
    """Where B sentences of the given lengths sit in a time-major [S·B, ·] matrix.

    ``mask`` is the [B, S] boolean matrix of each sentence's real steps;
    None when no sentence is shorter than S, as for one sentence.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.intp)
        if lengths.ndim != 1 or lengths.size == 0:
            raise DimensionError(f"layout needs a flat list of lengths, got {lengths.shape}")
        if lengths.min() < 1:
            raise UsageError("cannot encode an empty sequence")
        self.lengths = lengths
        self.batch = B = lengths.size
        self.steps = S = int(lengths.max())
        self.last_rows = (lengths - 1) * B + np.arange(B)
        self.mask = np.arange(S) < lengths[:, None] if (lengths < S).any() else None

    def step(self, x: Tensor, t: int) -> Tensor:
        """The [B, ·] rows of step t of a time-major matrix."""
        return ad.take_rows(x, np.arange(t * self.batch, (t + 1) * self.batch))

    def at_last_step(self, steps: list[Tensor]) -> Tensor:
        """Row b of ``steps[lengths[b] - 1]`` for every sentence b, as [B, ·] rows."""
        if (self.lengths == self.steps).all():
            return steps[-1]
        return ad.take_rows(ad.stack_rows(steps), self.last_rows)


def _layout(embeddings: Tensor, lengths) -> Layout:
    if embeddings.data.ndim != 2:
        raise DimensionError("encoder expects an [S·B, D] embedding matrix")
    layout = Layout([embeddings.shape[0]] if lengths is None else lengths)
    if layout.steps * layout.batch != embeddings.shape[0]:
        raise DimensionError(
            f"{embeddings.shape[0]} embedding rows for {layout.batch} sentences "
            f"of up to {layout.steps} tokens"
        )
    return layout


@dataclass
class EncoderOutput:
    """What a decoder needs from an encoder, plus the memory trace for inspection.

    ``states``: time-major [S·B, D] matrix attended over by the decoder.
    ``final_h`` / ``final_c``: [B, H] hidden/cell state at each sentence's
    last step, for decoder init.
    ``mask``: [B, S] real steps of each sentence; None without padding.
    ``slot_weights``: per-step [B, S] memory attention (memory encoder only).
    """

    states: Tensor
    final_h: Tensor
    final_c: Tensor
    mask: np.ndarray | None = None
    slot_weights: list[np.ndarray] = field(default_factory=list)

    @property
    def batch(self) -> int:
        return self.final_h.shape[0]


# ---------------------------------------------------------------------------
# 2-layer LSTM encoder


@dataclass
class LstmEncoderParams:
    layer1: layers.LstmCellParams
    layer2: layers.LstmCellParams

    def named_params(self, prefix: str = "enc"):
        return self.layer1.named_params(f"{prefix}.l1") + self.layer2.named_params(
            f"{prefix}.l2"
        )

    @staticmethod
    def create(
        dim: int, rng: np.random.Generator, forget_bias: float = 1.0
    ) -> "LstmEncoderParams":
        return LstmEncoderParams(
            layer1=layers.LstmCellParams.create(dim, dim, rng, forget_bias),
            layer2=layers.LstmCellParams.create(dim, dim, rng, forget_bias),
        )


def _lstm_layer(p: layers.LstmCellParams, inputs: Tensor, layout: Layout):
    """One LSTM layer over a time-major input; returns its per-step (h, c) rows."""
    wx = ad.affine_rows(inputs, p.W_x)
    h = c = Tensor(np.zeros((layout.batch, p.hidden_dim)))
    hs, cs = [], []
    for t in range(layout.steps):
        h, c = layers.lstm_recur(p, layout.step(wx, t), h, c)
        hs.append(h)
        cs.append(c)
    return hs, cs


def lstm_encode(
    p: LstmEncoderParams,
    embeddings: Tensor,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    lengths=None,
) -> EncoderOutput:
    """Run both LSTM layers over the sequences; layer-2 states are the output.

    ``lengths`` gives the B sentence lengths of a time-major batch; None is
    one sentence.  Layer 2 runs after layer 1 has finished, so both input
    projections are hoisted.  Dropout at ``dropout_rate`` (none at 0) is
    applied to the layer-1 outputs feeding layer 2, never inside the
    recurrence.
    """
    layout = _layout(embeddings, lengths)
    h1s, _ = _lstm_layer(p.layer1, embeddings, layout)
    mid = ad.dropout(ad.stack_rows(h1s), dropout_rate, rng)
    h2s, c2s = _lstm_layer(p.layer2, mid, layout)
    return EncoderOutput(
        states=ad.stack_rows(h2s),
        final_h=layout.at_last_step(h2s),
        final_c=layout.at_last_step(c2s),
        mask=layout.mask,
    )


# ---------------------------------------------------------------------------
# memory-augmented encoder


@dataclass
class NseEncoderParams:
    read: layers.LstmCellParams
    compose: layers.MlpParams
    write: layers.LstmCellParams

    def named_params(self, prefix: str = "enc"):
        return (
            self.read.named_params(f"{prefix}.read")
            + self.compose.named_params(f"{prefix}.compose")
            + self.write.named_params(f"{prefix}.write")
        )

    @staticmethod
    def create(
        dim: int, rng: np.random.Generator, forget_bias: float = 1.0
    ) -> "NseEncoderParams":
        return NseEncoderParams(
            read=layers.LstmCellParams.create(dim, dim, rng, forget_bias),
            compose=layers.MlpParams.create(2 * dim, dim, 2 * dim, rng),
            write=layers.LstmCellParams.create(2 * dim, dim, rng, forget_bias),
        )


@dataclass
class NseState:
    """Recurrent state carried across memory-encoder steps."""

    read_h: Tensor
    read_c: Tensor
    write_h: Tensor
    write_c: Tensor
    memory: Tensor


def nse_initial_state(embeddings: Tensor, hidden_dim: int, batch: int = 1) -> NseState:
    """Zero [B, H] LSTM states with memory rows set to the token embeddings."""
    z = lambda: Tensor(np.zeros((batch, hidden_dim)))
    return NseState(read_h=z(), read_c=z(), write_h=z(), write_c=z(), memory=embeddings)


def memory_retrieve(read_h: Tensor, memory: Tensor, mask: np.ndarray | None = None):
    """Soft-read the memory: weights = softmax(M r), summary = weights M.

    ``read_h`` holds one [B, D] row per sentence of a time-major [S·B, D]
    memory; each row reads its own sentence's S slots, giving [B, S] weights
    and [B, D] summaries.  With a [B, S] boolean ``mask`` each row reads only
    the slots where it is True: the others get weight exactly 0.0.
    """
    if (
        memory.data.ndim != 2
        or read_h.data.ndim != 2
        or read_h.shape[1] != memory.shape[1]
    ):
        raise DimensionError(
            f"retrieve got read state {read_h.shape} against memory {memory.shape}"
        )
    B = read_h.shape[0]
    weights = ad.softmax_rows(ad.seq_scores(read_h, memory, B), mask)
    summary = ad.seq_mix(weights, memory, B)
    return weights, summary


def memory_update(memory: Tensor, weights: Tensor, written: Tensor) -> Tensor:
    """Blend each written row into its sentence's slots: M <- (1-s) M + s w.

    ``weights`` is [B, S] and ``written`` is [B, D] for a time-major
    [S·B, D] memory: slot t·B + b moves toward ``written[b]`` by
    ``weights[b, t]``.
    """
    return ad.blend_rows(memory, weights, written)


def nse_step(p: NseEncoderParams, wx: Tensor, state: NseState, mask: np.ndarray | None):
    """One read/compose/write transition of every sentence.

    ``wx`` is the step's read-LSTM input, already projected, and ``mask``
    the memory read mask of :func:`memory_retrieve`.  Returns
    ``(written, new_state, weights)`` where ``written`` is this step's
    [B, D] output rows and ``weights`` the [B, S] memory attention.
    """
    read_h, read_c = layers.lstm_recur(p.read, wx, state.read_h, state.read_c)
    weights, summary = memory_retrieve(read_h, state.memory, mask)
    compose_out = layers.mlp(p.compose, ad.concat(read_h, summary))
    write_h, write_c = layers.lstm_step(p.write, compose_out, state.write_h, state.write_c)
    memory = memory_update(state.memory, weights, write_h)
    new_state = NseState(
        read_h=read_h, read_c=read_c, write_h=write_h, write_c=write_c, memory=memory
    )
    return write_h, new_state, weights


def nse_encode(
    p: NseEncoderParams,
    embeddings: Tensor,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    lengths=None,
) -> EncoderOutput:
    """Encode sequences with the memory encoder.

    ``lengths`` gives the B sentence lengths of a time-major batch; None is
    one sentence.  The memory starts as the embedding matrix itself, one
    stacked [S·B, D] memory for the batch.  Dropout at ``dropout_rate``
    (none at 0) touches the read-LSTM inputs and the emitted state rows;
    the memory and the recurrent paths stay clean.  The per-step memory
    attention is returned for inspection.
    """
    layout = _layout(embeddings, lengths)
    wx = ad.affine_rows(ad.dropout(embeddings, dropout_rate, rng), p.read.W_x)
    state = nse_initial_state(embeddings, p.read.hidden_dim, layout.batch)
    written_rows, write_cs = [], []
    slot_weights: list[np.ndarray] = []
    for t in range(layout.steps):
        written, state, weights = nse_step(p, layout.step(wx, t), state, layout.mask)
        written_rows.append(written)
        write_cs.append(state.write_c)
        slot_weights.append(weights.data)
    return EncoderOutput(
        states=ad.dropout(ad.stack_rows(written_rows), dropout_rate, rng),
        final_h=layout.at_last_step(written_rows),
        final_c=layout.at_last_step(write_cs),
        mask=layout.mask,
        slot_weights=slot_weights,
    )
