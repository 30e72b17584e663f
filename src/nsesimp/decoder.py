"""Attention-based two-layer LSTM decoder.

Each step attends over the encoder states with a dot-product score against
the previous top-layer hidden state, feeds [previous-token embedding;
context] into layer 1, layer 1's output into layer 2, and projects
[top state; context] to vocabulary logits.  The decoder start state is a
learned tanh-linear map of the encoder's final (h, c), shared by both
layers; generation starts from the sentence-begin token.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import Tensor
from .data import BOS_ID
from .encoders import EncoderOutput
from .errors import DimensionError


@dataclass
class DecoderParams:
    """Weights for the two decoder layers, output head, and init maps."""

    layer1: layers.LstmCellParams  # input [D + H]
    layer2: layers.LstmCellParams  # input H
    out_w: Tensor  # [V, 2H]
    out_b: Tensor  # [V]
    init_h: Tensor  # [H, H]
    init_c: Tensor  # [H, H]

    @property
    def hidden_dim(self) -> int:
        return self.layer2.hidden_dim

    @property
    def vocab_size(self) -> int:
        return self.out_w.shape[0]

    def named_params(self, prefix: str = "dec"):
        return (
            self.layer1.named_params(f"{prefix}.l1")
            + self.layer2.named_params(f"{prefix}.l2")
            + [
                (f"{prefix}.out_w", self.out_w),
                (f"{prefix}.out_b", self.out_b),
                (f"{prefix}.init_h", self.init_h),
                (f"{prefix}.init_c", self.init_c),
            ]
        )

    @staticmethod
    def create(
        embed_dim: int,
        hidden_dim: int,
        vocab_size: int,
        rng: np.random.Generator,
        forget_bias: float = 1.0,
    ) -> "DecoderParams":
        return DecoderParams(
            layer1=layers.LstmCellParams.create(
                embed_dim + hidden_dim, hidden_dim, rng, forget_bias
            ),
            layer2=layers.LstmCellParams.create(hidden_dim, hidden_dim, rng, forget_bias),
            out_w=layers.init_uniform((vocab_size, 2 * hidden_dim), rng),
            out_b=layers.init_uniform(vocab_size, rng),
            init_h=layers.init_uniform((hidden_dim, hidden_dim), rng),
            init_c=layers.init_uniform((hidden_dim, hidden_dim), rng),
        )


@dataclass(frozen=True)
class DecoderState:
    """Immutable per-step decoder state; advance by building a new one."""

    h1: Tensor
    c1: Tensor
    h2: Tensor
    c2: Tensor
    prev_token: int

    def advanced(self, token: int) -> "DecoderState":
        return replace(self, prev_token=token)


def attend(s_prev: Tensor, states: Tensor):
    """Dot-product attention; returns (alpha over source rows, context)."""
    if states.data.ndim != 2 or s_prev.shape != (states.shape[1],):
        raise DimensionError(
            f"attend got query {s_prev.shape} against states {states.shape}"
        )
    scores = ad.matmul(states, s_prev)
    alpha = ad.softmax_rows(scores)
    context = ad.matmul(alpha, states)
    return alpha, context


def init_decoder(p: DecoderParams, enc: EncoderOutput) -> DecoderState:
    """Start state: tanh(map(final encoder h/c)), shared across both layers."""
    h0 = ad.tanh(ad.matmul(p.init_h, enc.final_h))
    c0 = ad.tanh(ad.matmul(p.init_c, enc.final_c))
    return DecoderState(h1=h0, c1=c0, h2=h0, c2=c0, prev_token=BOS_ID)


def decoder_recurrence(
    p: DecoderParams,
    state: DecoderState,
    y_prev_embedding: Tensor,
    states: Tensor,
    dropout_rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
):
    """Attention and both LSTM layers; returns (new_state, alpha, feature).

    ``feature`` is [top state; context], the input of the output layer.
    Dropout (training only) applies to the token embedding and between the
    two layers, drawing from ``rng`` in that order.
    """
    alpha, context = attend(state.h2, states)
    y = y_prev_embedding
    if training and dropout_rate > 0.0:
        y = ad.dropout(y, dropout_rate, training, rng)
    h1, c1 = layers.lstm_step(p.layer1, ad.concat(y, context), state.h1, state.c1)
    mid = h1
    if training and dropout_rate > 0.0:
        mid = ad.dropout(mid, dropout_rate, training, rng)
    h2, c2 = layers.lstm_step(p.layer2, mid, state.h2, state.c2)
    new_state = DecoderState(h1=h1, c1=c1, h2=h2, c2=c2, prev_token=state.prev_token)
    return new_state, alpha, ad.concat(h2, context)


def decoder_step(
    p: DecoderParams,
    state: DecoderState,
    y_prev_embedding: Tensor,
    states: Tensor,
    dropout_rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
):
    """One decoding transition; returns (new_state, alpha, logits).

    The caller chooses the emitted token from the logits and records it via
    ``new_state.advanced(token)``.
    """
    new_state, alpha, feature = decoder_recurrence(
        p, state, y_prev_embedding, states, dropout_rate, training, rng
    )
    return new_state, alpha, layers.linear(p.out_w, p.out_b, feature)
