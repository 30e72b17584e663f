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
from .errors import ConfigError

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

    @property
    def src_vocab_size(self) -> int:
        return self.src_embed.vocab_size

    @property
    def tgt_vocab_size(self) -> int:
        return self.decoder.vocab_size

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


def encode(
    model: Model,
    src_ids,
    dropout_rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> EncoderOutput:
    emb = layers.embed(model.src_embed, src_ids)
    if model.encoder_kind == "lstm":
        return lstm_encode(model.encoder, emb, dropout_rate, training, rng)
    return nse_encode(model.encoder, emb, dropout_rate, training, rng)


def teacher_logits(
    model: Model,
    enc: EncoderOutput,
    decoder_input_ids,
    dropout_rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Teacher-forced forward pass; returns the [T, V] logit matrix.

    ``decoder_input_ids`` is the gold target shifted right, i.e. starts
    with the sentence-begin id.  The embedding gather and the output layer
    run once over the whole sentence, so each has a single V-sized
    gradient; only the recurrence steps one token at a time, as [1, ·] rows.
    """
    p = model.decoder
    state = init_decoder(p, enc)
    inputs = ad.take_rows(model.tgt_embed.E, decoder_input_ids)
    features = []
    for t in range(inputs.shape[0]):
        state, _, feature = decoder_recurrence(
            p, state, ad.take_rows(inputs, [t]), enc.states, dropout_rate, training, rng
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
