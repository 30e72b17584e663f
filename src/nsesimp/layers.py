"""Parameterized building blocks: embeddings, LSTM cell, small MLP, linear.

All parameter records are plain dataclasses of :class:`~nsesimp.autodiff.Tensor`
leaves with ``requires_grad=True``; each exposes ``named_params`` so the
optimizer and checkpoint code can walk them uniformly.  Initialization is
uniform over [-0.1, 0.1) except the LSTM forget-gate bias, which defaults
to 1.0 so early training does not forget everything (pass ``forget_bias=0``
to disable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError

INIT_LOW = -0.1
INIT_HIGH = 0.1


def init_uniform(shape, rng: np.random.Generator) -> Tensor:
    """Trainable tensor with i.i.d. uniform entries in [-0.1, 0.1)."""
    data = rng.uniform(INIT_LOW, INIT_HIGH, size=shape)
    return Tensor(data, requires_grad=True)


# ---------------------------------------------------------------------------
# embeddings


@dataclass
class EmbeddingTable:
    """Lookup table of word vectors; row layout is [V, D]."""

    E: Tensor

    @property
    def dim(self) -> int:
        return self.E.shape[1]

    def named_params(self, prefix: str = "emb"):
        return [(f"{prefix}.E", self.E)]

    @staticmethod
    def create(vocab_size: int, dim: int, rng: np.random.Generator) -> "EmbeddingTable":
        return EmbeddingTable(E=init_uniform((vocab_size, dim), rng))


def embed(table: EmbeddingTable, ids) -> Tensor:
    """Rows of the table for a token-id sequence, shape [T, D]."""
    return ad.take_rows(table.E, ids)


# ---------------------------------------------------------------------------
# LSTM cell


@dataclass
class LstmCellParams:
    """Fused-gate LSTM weights.

    ``W_x`` is [4H, I], ``W_h`` is [4H, H], ``b`` is [4H]; the four blocks
    are, in order: input gate, forget gate, cell candidate, output gate.
    """

    W_x: Tensor
    W_h: Tensor
    b: Tensor

    @property
    def hidden_dim(self) -> int:
        return self.W_h.shape[1]

    @property
    def input_dim(self) -> int:
        return self.W_x.shape[1]

    def named_params(self, prefix: str):
        return [(f"{prefix}.W_x", self.W_x), (f"{prefix}.W_h", self.W_h), (f"{prefix}.b", self.b)]

    @staticmethod
    def create(
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        forget_bias: float = 1.0,
    ) -> "LstmCellParams":
        p = LstmCellParams(
            W_x=init_uniform((4 * hidden_dim, input_dim), rng),
            W_h=init_uniform((4 * hidden_dim, hidden_dim), rng),
            b=init_uniform(4 * hidden_dim, rng),
        )
        if forget_bias:
            p.b.data[hidden_dim : 2 * hidden_dim] = forget_bias
        return p


def lstm_step(p: LstmCellParams, x: Tensor, h_prev: Tensor, c_prev: Tensor):
    """One LSTM transition; returns the new (h, c) pair.

    c = sigmoid(f)*c_prev + sigmoid(i)*tanh(g),  h = sigmoid(o)*tanh(c),
    where [i, f, g, o] are the four column blocks of W_x x + W_h h_prev + b.
    [k, I] inputs with [k, H] states step k sequences at once, one per row;
    one sequence is k = 1.
    """
    if x.data.ndim != 2 or x.shape[1] != p.input_dim:
        raise DimensionError(f"lstm_step got x{x.shape} for cell I={p.input_dim}")
    return lstm_recur(p, ad.affine_rows(x, p.W_x), h_prev, c_prev)


def lstm_recur(p: LstmCellParams, wx: Tensor, h_prev: Tensor, c_prev: Tensor):
    """:func:`lstm_step` from an input already projected: ``wx`` = W_x x.

    A recurrence whose inputs are all known before it starts projects them
    with one [n, I] product up front and passes each step's [k, 4H] rows.
    The cell is one :func:`~nsesimp.autodiff.lstm_cell` node, whose [h | c]
    output is split into the two states.
    """
    H = p.hidden_dim
    hc = ad.lstm_cell(wx, h_prev, c_prev, p.W_h, p.b)
    return ad.narrow(hc, 0, H), ad.narrow(hc, H, 2 * H)


# ---------------------------------------------------------------------------
# MLP and linear projection


@dataclass
class MlpParams:
    """One-hidden-layer perceptron: W2 tanh(W1 x + b1) + b2 of each row x."""

    W1: Tensor
    b1: Tensor
    W2: Tensor
    b2: Tensor

    def named_params(self, prefix: str):
        return [
            (f"{prefix}.W1", self.W1),
            (f"{prefix}.b1", self.b1),
            (f"{prefix}.W2", self.W2),
            (f"{prefix}.b2", self.b2),
        ]

    @staticmethod
    def create(
        input_dim: int, hidden_dim: int, output_dim: int, rng: np.random.Generator
    ) -> "MlpParams":
        return MlpParams(
            W1=init_uniform((hidden_dim, input_dim), rng),
            b1=init_uniform(hidden_dim, rng),
            W2=init_uniform((output_dim, hidden_dim), rng),
            b2=init_uniform(output_dim, rng),
        )


def mlp(p: MlpParams, x: Tensor) -> Tensor:
    hidden = ad.tanh(ad.affine_rows(x, p.W1, p.b1))
    return ad.affine_rows(hidden, p.W2, p.b2)


def linear(W: Tensor, b: Tensor, x: Tensor) -> Tensor:
    """Affine map W x + b of each row of a [T, I] matrix."""
    return ad.affine_rows(x, W, b)
