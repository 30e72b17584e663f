"""Beam-search decoding, greedy as its width 1, plus attention-based UNK replacement.

The search drives a session object whose state holds k hypotheses as
rows: ``start() -> state`` (one hypothesis), ``step(state) -> (log_probs
[k, V], alpha [k, S], core)`` and ``advance(core, rows, tokens) -> state``,
which keeps the given rows in order, each followed by its token.
:class:`~nsesimp.model.DecodeSession` adapts a real model, and tests drive
the same functions with synthetic probability tables.

Scores are raw summed log-probabilities (no length normalization unless
requested).  Padding and the begin marker are never proposed.  All
tie-breaks are deterministic: token ties resolve to the lowest id and
candidate ties preserve generation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BOS_ID, EOS_ID, PAD_ID, UNK_ID, Vocabulary
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
    alphas: tuple
    finished: bool

    def __len__(self) -> int:
        return len(self.tokens)


def _selection_key(hyp: Hypothesis, length_normalize: bool) -> float:
    if not length_normalize:
        return hyp.score
    steps = len(hyp.tokens) + (1 if hyp.finished else 0)
    return hyp.score / max(steps, 1)


# ids a hypothesis never proposes: padding and the begin marker
_NEVER_PROPOSED = [PAD_ID, BOS_ID]


def _best_tokens(log_probs: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` best proposable ids of each row, best first, ties to the lower id.

    Equal to the first ``n`` ids of a stable argsort of ``-log_probs`` with
    padding and the begin marker left out (all that remain when fewer are
    left), without sorting whole rows: a partition finds each row's n-th
    best value, and only the ids at or above it (more than ``n`` when ties
    straddle the cut) are sorted.  For ``n = 1`` it is the argmax, whose
    first maximum is the lowest id, unless that is an id left out.
    ``log_probs`` is not written.
    """
    n = min(n, log_probs.shape[1] - len(_NEVER_PROPOSED))
    if n == 1:
        best = np.argmax(log_probs, axis=1)
        if all(i not in best for i in _NEVER_PROPOSED):
            return best[:, None]
    neg = -log_probs
    neg[:, _NEVER_PROPOSED] = np.nan  # sorts after every number, so never reaches the cut
    cut = np.partition(neg, n - 1, axis=1)[:, n - 1]
    out = np.empty((neg.shape[0], n), dtype=np.intp)
    for r in range(neg.shape[0]):
        ids = np.flatnonzero(neg[r] <= cut[r])  # ascending, so ties keep id order
        out[r] = ids[np.argsort(neg[r, ids], kind="stable")[:n]]
    return out


def beam_decode(
    session, beam: int, max_len: int = 100, length_normalize: bool = False
) -> Hypothesis:
    """Breadth-limited search over cumulative log-probability.

    Each step every live hypothesis proposes its top-``beam`` tokens, never
    padding or the begin marker; the pooled candidates are ranked and the
    best non-terminal ones refill the beam, while every terminal candidate
    is banked in a finished pool that is never pruned.  The best finished hypothesis wins; only if nothing
    finished does the best live one stand in.  All live hypotheses share
    one session step.
    """
    if beam < 1:
        raise ConfigError(f"beam width {beam} must be at least 1")
    if max_len < 1:
        raise ConfigError(f"max_len {max_len} must be at least 1")
    state = session.start()
    live = [Hypothesis(tokens=(), score=0.0, alphas=(), finished=False)]
    finished: list[Hypothesis] = []
    for _ in range(max_len):
        log_probs, alpha, core = session.step(state)
        top = _best_tokens(log_probs, beam)
        # hypothesis order, then token order; the stable sort keeps it for ties
        candidates = [
            (hyp.score + float(log_probs[r, token]), r, int(token))
            for r, hyp in enumerate(live)
            for token in top[r]
        ]
        candidates.sort(key=lambda c: -c[0])
        refill: list[Hypothesis] = []
        rows: list[int] = []
        for score, r, token in candidates:
            hyp = live[r]
            if token == EOS_ID:
                finished.append(Hypothesis(hyp.tokens, score, hyp.alphas, True))
            elif len(refill) < beam:
                refill.append(
                    Hypothesis(hyp.tokens + (token,), score, hyp.alphas + (alpha[r],), False)
                )
                rows.append(r)
        live = refill
        if not live:
            break
        state = session.advance(core, rows, [h.tokens[-1] for h in live])
    pool = finished if finished else live
    return max(pool, key=lambda h: _selection_key(h, length_normalize))


def greedy_decode(session, max_len: int = 100) -> Hypothesis:
    """Emit the argmax token each step until the end marker or max_len.

    This is beam search of width 1: one live hypothesis, whose best token
    either ends it or extends it.
    """
    return beam_decode(session, 1, max_len)


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
