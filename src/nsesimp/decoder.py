"""Attention-based two-layer LSTM decoder.

Each step attends over the encoder states with a dot-product score against
the previous top-layer hidden state, feeds [previous-token embedding;
context] into layer 1, layer 1's output into layer 2, and projects
[top state; context] to vocabulary logits.  The decoder start state is a
learned tanh-linear map of the encoder's final (h, c), shared by both
layers; generation starts from the sentence-begin token.

A state holds k sequences as [k, H] rows: one per sentence of a batch for
teacher forcing, one per hypothesis for decoding.  A step advances every
row with one matrix product per weight.  The rows of a batch attend over
one time-major [S·B, H] state matrix, each over its own sentence's steps.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Immutable per-step decoder state; advance by building a new one.

    ``h1``..``c2`` are [k, H] rows with ``prev_token`` a [k] id array,
    one row per sequence or hypothesis.
    """

    h1: Tensor
    c1: Tensor
    h2: Tensor
    c2: Tensor
    prev_token: np.ndarray

    def select(self, rows, tokens) -> "DecoderState":
        """Keep the given rows, in order, each with its next token."""
        h1, c1, h2, c2 = (ad.take_rows(t, rows) for t in (self.h1, self.c1, self.h2, self.c2))
        return DecoderState(h1, c1, h2, c2, np.asarray(tokens, dtype=np.intp))


def attend(s_prev: Tensor, states: Tensor, batch: int = 1, mask: np.ndarray | None = None):
    """Dot-product attention; returns (alpha over source steps, context).

    ``states`` is the time-major [S·B, H] matrix of ``batch`` sentences and
    row j of the [k, H] query attends over sentence j mod B, giving [k, S]
    weights and [k, H] contexts: one row per sentence of a batch, or k
    hypotheses over one sentence.  With a [k, S] boolean ``mask`` each row
    attends only where it is True; the other weights are exactly 0.0.
    """
    if (
        states.data.ndim != 2
        or s_prev.data.ndim != 2
        or s_prev.shape[1] != states.shape[1]
    ):
        raise DimensionError(
            f"attend got query {s_prev.shape} against states {states.shape}"
        )
    alpha = ad.softmax_rows(ad.seq_scores(s_prev, states, batch), mask)
    context = ad.seq_mix(alpha, states, batch)
    return alpha, context


def init_decoder(p: DecoderParams, enc: EncoderOutput) -> DecoderState:
    """Start state: tanh(map(final encoder h/c)), shared across both layers.

    One row per encoded sentence, each with sentence-begin as its previous
    token; a single source sentence gives a single hypothesis.
    """
    h0 = ad.tanh(ad.affine_rows(enc.final_h, p.init_h))
    c0 = ad.tanh(ad.affine_rows(enc.final_c, p.init_c))
    return DecoderState(h0, c0, h0, c0, np.full(h0.shape[0], BOS_ID, dtype=np.intp))


def decoder_recurrence(
    p: DecoderParams,
    state: DecoderState,
    y_prev_embedding: Tensor,
    states: Tensor,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    batch: int = 1,
    mask: np.ndarray | None = None,
):
    """Attention and both LSTM layers; returns (new_state, alpha, feature).

    ``feature`` is [top state; context], the input of the output layer; the
    step takes one embedding row per state row and gives one feature row
    each.  ``batch`` and ``mask`` are those of :func:`attend`.
    Dropout at ``dropout_rate`` (none at 0) applies to the token embedding
    and between the two layers, drawing from ``rng`` in that order.
    """
    alpha, context = attend(state.h2, states, batch, mask)
    y = ad.dropout(y_prev_embedding, dropout_rate, rng)
    h1, c1 = layers.lstm_step(p.layer1, ad.concat(y, context), state.h1, state.c1)
    mid = ad.dropout(h1, dropout_rate, rng)
    h2, c2 = layers.lstm_step(p.layer2, mid, state.h2, state.c2)
    new_state = DecoderState(h1=h1, c1=c1, h2=h2, c2=c2, prev_token=state.prev_token)
    return new_state, alpha, ad.concat(h2, context)


def decoder_step(p: DecoderParams, state: DecoderState, y_prev_embedding: Tensor, states: Tensor):
    """One decoding transition; returns (new_state, alpha, logits).

    The caller chooses the emitted token from the logits; they are [k, V],
    one row per state row, made by one product with the output weights.
    """
    new_state, alpha, feature = decoder_recurrence(p, state, y_prev_embedding, states)
    return new_state, alpha, layers.linear(p.out_w, p.out_b, feature)
