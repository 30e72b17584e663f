"""Greedy and beam-search decoding, plus attention-based UNK replacement.

Both decoders drive a session object exposing ``start() -> state``,
``step(state) -> (log_probs, alpha, core)`` and ``advance(core, token)``;
:class:`~nsesimp.model.DecodeSession` adapts a real model, and tests drive
the same functions with synthetic probability tables.

Scores are raw summed log-probabilities (no length normalization unless
requested).  All tie-breaks are deterministic: token ties resolve to the
lowest id, candidate ties preserve generation order, and with beam 1 the
search is bit-identical to greedy decoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EOS_ID, UNK_ID, Vocabulary
from .errors import ConfigError, UsageError


@dataclass(frozen=True)
class Hypothesis:
    """A (possibly finished) decoded prefix.

    ``tokens`` holds content ids only — never the end marker.  ``score``
    is the cumulative log-probability including the end marker's once
    finished.  ``alphas`` carries one source-attention row per content
    token, which UNK replacement consumes.
    """

    tokens: tuple[int, ...]
    score: float
    state: object
    alphas: tuple
    finished: bool

    def __len__(self) -> int:
        return len(self.tokens)


def _selection_key(hyp: Hypothesis, length_normalize: bool) -> float:
    if not length_normalize:
        return hyp.score
    steps = len(hyp.tokens) + (1 if hyp.finished else 0)
    return hyp.score / max(steps, 1)


def greedy_decode(session, max_len: int = 100) -> Hypothesis:
    """Emit the argmax token each step until the end marker or max_len."""
    if max_len < 1:
        raise ConfigError(f"max_len {max_len} must be at least 1")
    state = session.start()
    tokens: list[int] = []
    alphas: list[np.ndarray] = []
    score = 0.0
    finished = False
    for _ in range(max_len):
        log_probs, alpha, core = session.step(state)
        token = int(np.argmax(log_probs))
        score = score + float(log_probs[token])
        state = session.advance(core, token)
        if token == EOS_ID:
            finished = True
            break
        tokens.append(token)
        alphas.append(alpha)
    return Hypothesis(
        tokens=tuple(tokens), score=score, state=state, alphas=tuple(alphas), finished=finished
    )


def beam_decode(
    session, beam: int, max_len: int = 100, length_normalize: bool = False
) -> Hypothesis:
    """Breadth-limited search over cumulative log-probability.

    Each step every live hypothesis proposes its top-``beam`` tokens; the
    pooled candidates are ranked and the best non-terminal ones refill the
    beam, while every terminal candidate is banked in a finished pool that
    is never pruned.  The best finished hypothesis wins; only if nothing
    finished does the best live one stand in.
    """
    if beam < 1:
        raise ConfigError(f"beam width {beam} must be at least 1")
    if max_len < 1:
        raise ConfigError(f"max_len {max_len} must be at least 1")
    live = [Hypothesis(tokens=(), score=0.0, state=session.start(), alphas=(), finished=False)]
    finished: list[Hypothesis] = []
    for _ in range(max_len):
        candidates = []
        for hyp in live:
            log_probs, alpha, core = session.step(hyp.state)
            k = min(beam, log_probs.shape[0])
            # stable argsort of -logp: descending probability, ties -> lower id
            order = np.argsort(-log_probs, kind="stable")
            for token in order[:k]:
                candidates.append((hyp.score + float(log_probs[token]), hyp, int(token), alpha, core))
        candidates.sort(key=lambda c: -c[0])
        refill: list[Hypothesis] = []
        for score, hyp, token, alpha, core in candidates:
            if token == EOS_ID:
                finished.append(
                    Hypothesis(
                        tokens=hyp.tokens,
                        score=score,
                        state=session.advance(core, token),
                        alphas=hyp.alphas,
                        finished=True,
                    )
                )
            elif len(refill) < beam:
                refill.append(
                    Hypothesis(
                        tokens=hyp.tokens + (token,),
                        score=score,
                        state=session.advance(core, token),
                        alphas=hyp.alphas + (alpha,),
                        finished=False,
                    )
                )
        live = refill
        if not live:
            break
    pool = finished if finished else live
    return max(pool, key=lambda h: _selection_key(h, length_normalize))


def replace_unks(hyp: Hypothesis, source_tokens, vocab: Vocabulary) -> list[str]:
    """Map a hypothesis to surface tokens, filling unknowns from the source.

    Each unknown output token is replaced by the source token at the argmax
    of that step's attention row (ties -> earliest source position).
    """
    if len(hyp.alphas) != len(hyp.tokens):
        raise UsageError(
            f"hypothesis has {len(hyp.tokens)} tokens but {len(hyp.alphas)} alignment rows"
        )
    out = []
    for token, alpha in zip(hyp.tokens, hyp.alphas):
        if token == UNK_ID:
            if alpha is None or len(alpha) != len(source_tokens):
                raise UsageError("alignment row does not cover the source sentence")
            out.append(source_tokens[int(np.argmax(alpha))])
        else:
            out.append(vocab.token(token))
    return out
