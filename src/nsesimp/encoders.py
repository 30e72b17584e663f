"""Source-sentence encoders: a 2-layer LSTM and a memory-augmented variant.

Both consume a [T, D] matrix of token embeddings and produce an
:class:`EncoderOutput` whose ``states`` matrix ([T, D] here, since hidden
width equals embedding width) is what the decoder attends over.  The
recurrence steps one [1, D] row per token.

The memory-augmented encoder keeps one memory row per source token,
initialized with the raw embeddings.  Each step a read LSTM summarizes the
next token, soft-attends over the memory, fuses the two through a small
MLP, projects back with a write LSTM, and blends the written row into
the memory rows in proportion to the attention weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import Tensor
from .errors import DimensionError, UsageError


@dataclass
class EncoderOutput:
    """What a decoder needs from an encoder, plus the memory trace for inspection.

    ``states``: [T, D] matrix attended over by the decoder.
    ``final_h`` / ``final_c``: last [1, H] hidden/cell state for decoder init.
    ``slot_weights``: per-step [T] memory attention weights (memory encoder only).
    """

    states: Tensor
    final_h: Tensor
    final_c: Tensor
    slot_weights: list[np.ndarray] = field(default_factory=list)


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


def lstm_encode(
    p: LstmEncoderParams,
    embeddings: Tensor,
    dropout_rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> EncoderOutput:
    """Run both LSTM layers over the sequence; layer-2 states are the output.

    Dropout (training only) is applied to the layer-1 outputs feeding
    layer 2, never inside the recurrence.
    """
    if embeddings.data.ndim != 2:
        raise DimensionError("encoder expects a [T, D] embedding matrix")
    T = embeddings.shape[0]
    if T < 1:
        raise UsageError("cannot encode an empty sequence")
    H = p.layer1.hidden_dim
    h1, c1, h2, c2 = (Tensor(np.zeros((1, H))) for _ in range(4))
    outputs = []
    for t in range(T):
        x = ad.take_rows(embeddings, [t])
        h1, c1 = layers.lstm_step(p.layer1, x, h1, c1)
        mid = h1
        if training and dropout_rate > 0.0:
            mid = ad.dropout(mid, dropout_rate, training, rng)
        h2, c2 = layers.lstm_step(p.layer2, mid, h2, c2)
        outputs.append(h2)
    return EncoderOutput(states=ad.stack_rows(outputs), final_h=h2, final_c=c2)


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


def nse_initial_state(embeddings: Tensor, hidden_dim: int) -> NseState:
    """Zero [1, H] LSTM states with memory rows set to the token embeddings."""
    z = lambda: Tensor(np.zeros((1, hidden_dim)))
    return NseState(read_h=z(), read_c=z(), write_h=z(), write_c=z(), memory=embeddings)


def memory_retrieve(read_h: Tensor, memory: Tensor):
    """Soft-read the memory: weights = softmax(M r), summary = weights M.

    ``read_h`` is a [1, D] row; the weights are [1, T] and the summary [1, D].
    """
    if memory.data.ndim != 2 or read_h.shape != (1, memory.shape[1]):
        raise DimensionError(
            f"retrieve got read state {read_h.shape} against memory {memory.shape}"
        )
    weights = ad.softmax_rows(ad.affine_rows(read_h, memory))
    summary = ad.matmul(weights, memory)
    return weights, summary


def memory_update(memory: Tensor, weights: Tensor, written: Tensor) -> Tensor:
    """Blend the written row into each memory row: M_i <- (1-s_i) M_i + s_i w.

    ``weights`` is [1, T] and ``written`` is [1, D] for a [T, D] memory.
    """
    if (
        memory.data.ndim != 2
        or weights.shape != (1, memory.shape[0])
        or written.shape != (1, memory.shape[1])
    ):
        raise DimensionError(
            f"update got weights {weights.shape}, written {written.shape} "
            f"against memory {memory.shape}"
        )
    T, D = memory.shape
    col = ad.reshape(weights, (T, 1))
    return ad.add(memory, ad.mul(col, ad.sub(ad.reshape(written, (D,)), memory)))


def nse_step(p: NseEncoderParams, x_t: Tensor, state: NseState):
    """One read/compose/write transition.

    Returns ``(written, new_state, weights)`` where ``written`` is this
    step's [1, D] output row and ``weights`` the [1, T] memory attention.
    """
    read_h, read_c = layers.lstm_step(p.read, x_t, state.read_h, state.read_c)
    weights, summary = memory_retrieve(read_h, state.memory)
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
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> EncoderOutput:
    """Encode a sequence with the memory encoder.

    The memory starts as the embedding matrix itself.  Dropout (training
    only) touches the read-LSTM inputs and the emitted state rows; the
    memory and the recurrent paths stay clean.  The per-step memory
    attention rows are returned for inspection.
    """
    if embeddings.data.ndim != 2:
        raise DimensionError("encoder expects a [T, D] embedding matrix")
    T = embeddings.shape[0]
    if T < 1:
        raise UsageError("cannot encode an empty sequence")
    H = p.read.hidden_dim
    state = nse_initial_state(embeddings, H)
    outputs = []
    slot_weights: list[np.ndarray] = []
    for t in range(T):
        x = ad.take_rows(embeddings, [t])
        if training and dropout_rate > 0.0:
            x = ad.dropout(x, dropout_rate, training, rng)
        written, state, weights = nse_step(p, x, state)
        out_row = written
        if training and dropout_rate > 0.0:
            out_row = ad.dropout(out_row, dropout_rate, training, rng)
        outputs.append(out_row)
        slot_weights.append(weights.data[0])
    return EncoderOutput(
        states=ad.stack_rows(outputs),
        final_h=state.write_h,
        final_c=state.write_c,
        slot_weights=slot_weights,
    )
