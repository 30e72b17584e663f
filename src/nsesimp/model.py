"""Full encoder-decoder models: construction, encoding, stepwise decoding.

Two variants share the decoder and differ only in the encoder: ``lstm``
stacks two LSTM layers, ``nse`` runs the memory-augmented encoder.  Both
use embedding width = hidden width = ``dim`` throughout, so attention
dot-products are dimensionally valid without projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import Tensor
from .decoder import (
    DecoderParams,
    DecoderState,
    decoder_recurrence,
    decoder_step,
    init_decoder,
)
from .encoders import (
    EncoderOutput,
    LstmEncoderParams,
    NseEncoderParams,
    lstm_encode,
    nse_encode,
)
from .errors import ConfigError, DimensionError

ENCODER_KINDS = ("lstm", "nse")


@dataclass
class Model:
    """Parameter bundle for one encoder-decoder instance."""

    encoder_kind: str
    src_embed: layers.EmbeddingTable
    tgt_embed: layers.EmbeddingTable
    encoder: LstmEncoderParams | NseEncoderParams
    decoder: DecoderParams

    @property
    def dim(self) -> int:
        return self.src_embed.dim

    def named_params(self):
        return (
            self.src_embed.named_params("src_emb")
            + self.tgt_embed.named_params("tgt_emb")
            + self.encoder.named_params("enc")
            + self.decoder.named_params("dec")
        )

    def params(self):
        return [t for _, t in self.named_params()]

    def zero_grads(self) -> None:
        for t in self.params():
            t.grad = None


def build_model(
    encoder_kind: str,
    dim: int,
    src_vocab_size: int,
    tgt_vocab_size: int,
    rng: np.random.Generator,
    forget_bias: float = 1.0,
) -> Model:
    if encoder_kind not in ENCODER_KINDS:
        raise ConfigError(f"unknown encoder kind {encoder_kind!r}; choose from {ENCODER_KINDS}")
    if dim < 1 or src_vocab_size < 5 or tgt_vocab_size < 5:
        raise ConfigError(
            f"bad model dims: dim={dim}, vocabs=({src_vocab_size}, {tgt_vocab_size})"
        )
    if encoder_kind == "lstm":
        encoder = LstmEncoderParams.create(dim, rng, forget_bias)
    else:
        encoder = NseEncoderParams.create(dim, rng, forget_bias)
    return Model(
        encoder_kind=encoder_kind,
        src_embed=layers.EmbeddingTable.create(src_vocab_size, dim, rng),
        tgt_embed=layers.EmbeddingTable.create(tgt_vocab_size, dim, rng),
        encoder=encoder,
        decoder=DecoderParams.create(dim, dim, tgt_vocab_size, rng, forget_bias),
    )


def _id_rows(ids) -> np.ndarray:
    """Token ids as a [B, n] array; a flat sequence is one row."""
    rows = np.asarray(ids, dtype=np.intp)
    return rows.reshape(1, -1) if rows.ndim == 1 else rows


def encode(
    model: Model,
    src_ids,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    lengths=None,
) -> EncoderOutput:
    """Encode one id sequence, or the rows of a padded [B, S] id array.

    ``lengths`` gives each row's real length (default: all S).  The states
    come out time-major: row t·B + b is token t of sentence b.
    """
    ids = _id_rows(src_ids)
    if lengths is None:
        lengths = [ids.shape[1]] * ids.shape[0]
    emb = layers.embed(model.src_embed, ids.T.reshape(-1))
    if model.encoder_kind == "lstm":
        return lstm_encode(model.encoder, emb, dropout_rate, rng, lengths)
    return nse_encode(model.encoder, emb, dropout_rate, rng, lengths)


def teacher_logits(
    model: Model,
    enc: EncoderOutput,
    decoder_input_ids,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Teacher-forced forward pass; returns the time-major [T·B, V] logits.

    ``decoder_input_ids`` is the gold target shifted right, i.e. starts
    with the sentence-begin id: one sequence, or a [B, T] array with a row
    per encoded sentence (padding past a row's end is computed and ignored).
    The embedding gather and the output layer run once over the whole
    batch, so each has a single V-sized gradient; only the recurrence steps
    one token at a time, as [B, ·] rows.
    """
    p = model.decoder
    ids = _id_rows(decoder_input_ids)
    B, T = ids.shape
    state = init_decoder(p, enc)
    if enc.batch != B:
        raise DimensionError(f"{B} target rows for {enc.batch} encoded sentences")
    inputs = ad.take_rows(model.tgt_embed.E, ids.T.reshape(-1))
    features = []
    for t in range(T):
        y = ad.take_rows(inputs, np.arange(t * B, (t + 1) * B))
        state, _, feature = decoder_recurrence(
            p, state, y, enc.states, dropout_rate, rng, B, enc.mask
        )
        features.append(feature)
    return layers.linear(p.out_w, p.out_b, ad.stack_rows(features))


class DecodeSession:
    """Stepwise decoding interface over one encoded source sentence.

    A state holds k hypotheses as rows.  ``step`` runs one decoder
    transition for all of them and returns plain numpy ``(log_probs [k, V],
    alpha [k, S], core)``; ``advance(core, rows, tokens)`` keeps the given
    rows of the core, in order, each followed by its emitted token.
    Splitting the two lets beam search score every candidate from one
    forward pass.  ``start`` gives a single hypothesis, so greedy decoding
    is the k = 1 case.  A session holds only the encoded source, so it can
    be decoded any number of times.
    """

    def __init__(self, model: Model, src_ids):
        self.model = model
        self.encoder_output = encode(model, src_ids)

    def start(self) -> DecoderState:
        return init_decoder(self.model.decoder, self.encoder_output)

    def step(self, state: DecoderState):
        y = ad.take_rows(self.model.tgt_embed.E, state.prev_token)
        core, alpha, logits = decoder_step(
            self.model.decoder, state, y, self.encoder_output.states
        )
        return ad.log_softmax_rows(logits).data, alpha.data, core

    def advance(self, core: DecoderState, rows, tokens) -> DecoderState:
        return core.select(rows, tokens)
