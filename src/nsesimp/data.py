"""Corpus ingestion, vocabulary construction, embedding files, batching.

Corpus files are plain UTF-8 text, one pre-tokenized sentence per line,
parallel by line number; tokens are split on whitespace.  Vocabulary ids
0..3 are reserved for padding, unknown, sentence-begin, and sentence-end
markers, counted inside the configured size cap.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import layers
from .errors import ConfigError, DataError, FormatError

PAD_ID = 0
UNK_ID = 1
BOS_ID = 2
EOS_ID = 3

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"

RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, BOS_TOKEN, EOS_TOKEN)

# Published average tokens per sentence (source, target) of the three
# benchmark corpora: the sentence lengths that "paper scale" refers to.
REFERENCE_CORPUS_STATS = {
    "newsela": (25.94, 15.89),
    "wikismall": (24.26, 20.33),
    "wikilarge": (25.17, 18.51),
}


@dataclass
class Vocabulary:
    """Bidirectional token/id map with the four reserved entries first."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token(self, i: int) -> str:
        return self.id_to_token[i]

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.id(t) for t in tokens]

    @staticmethod
    def from_tokens(tokens: Iterable[str]) -> "Vocabulary":
        id_to_token = list(RESERVED_TOKENS)
        for t in tokens:
            if t not in RESERVED_TOKENS:
                id_to_token.append(t)
        return Vocabulary(id_to_token, {t: i for i, t in enumerate(id_to_token)})


def build_vocab(sentences: Iterable[Sequence[str]], cap: int) -> Vocabulary:
    """Most frequent tokens up to ``cap`` total entries (reserved included).

    Frequency ties are broken lexicographically so construction is
    deterministic regardless of corpus order.
    """
    if cap <= 4:
        raise ConfigError(f"vocabulary cap {cap} leaves no room beyond reserved ids")
    counts = Counter()
    for sent in sentences:
        counts.update(sent)
    for t in RESERVED_TOKENS:
        counts.pop(t, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary.from_tokens(t for t, _ in ranked[: cap - 4])


# ---------------------------------------------------------------------------
# parallel corpora


@dataclass
class ParallelCorpus:
    """Aligned (source, target) token-list pairs plus ingestion counters."""

    pairs: list[tuple[list[str], list[str]]]
    dropped_empty: int = 0
    length_filtered: int = 0

    def __len__(self) -> int:
        return len(self.pairs)

    def source_sentences(self):
        return [src for src, _ in self.pairs]

    def target_sentences(self):
        return [tgt for _, tgt in self.pairs]


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; other bytes raise :class:`DataError`."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read().splitlines()
        except UnicodeDecodeError as e:
            raise DataError(f"{path} is not UTF-8 text (byte {e.start})") from e


def load_parallel(src_path, tgt_path, max_len: int | None = None) -> ParallelCorpus:
    """Read two line-parallel files into token pairs.

    Pairs with an empty side are dropped (counted); with ``max_len`` set,
    pairs where either side exceeds it are dropped too (counted apart).
    Mismatched line counts raise :class:`DataError`.
    """
    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise DataError(
            f"line count mismatch: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)}"
        )
    pairs = []
    dropped = 0
    filtered = 0
    for s_line, t_line in zip(src_lines, tgt_lines):
        src, tgt = s_line.split(), t_line.split()
        if not src or not tgt:
            dropped += 1
            continue
        if max_len is not None and (len(src) > max_len or len(tgt) > max_len):
            filtered += 1
            continue
        pairs.append((src, tgt))
    return ParallelCorpus(pairs, dropped_empty=dropped, length_filtered=filtered)


def load_references(paths: Sequence, expected: int) -> list[list[list[str]]]:
    """Read one or more reference files into per-instance reference lists.

    Each file must have ``expected`` lines; instance i gets one reference
    per file.  Empty reference lines are kept as empty token lists.
    """
    if not paths:
        raise DataError("at least one reference file is required")
    per_file = []
    for path in paths:
        lines = read_lines(path)
        if len(lines) != expected:
            raise DataError(
                f"reference file {path} has {len(lines)} lines, expected {expected}"
            )
        per_file.append([line.split() for line in lines])
    return [[refs[i] for refs in per_file] for i in range(expected)]


# ---------------------------------------------------------------------------
# pretrained embeddings


def load_pretrained_embeddings(path, vocab: Vocabulary, dim: int, rng: np.random.Generator):
    """Embedding table initialized uniformly, then overwritten from a file.

    File lines are "token v1 ... v_dim"; when a token has several lines,
    the last one wins its row.  Returns ``(table, hit_rate)`` where hit_rate
    is the covered fraction of non-reserved vocabulary entries.  A wrong
    vector width, a value of a vocabulary token's row that is not a finite
    number, or bytes that are not UTF-8 raise :class:`FormatError` naming
    the offending line.
    """
    table = layers.EmbeddingTable.create(vocab.size, dim, rng)
    hits = set()
    # read as bytes, so a line that is not UTF-8 is known by its number
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                parts = raw.decode("utf-8").split()
            except UnicodeDecodeError as e:
                raise FormatError(f"embedding line {lineno} is not UTF-8 text") from e
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise FormatError(
                    f"embedding line {lineno} has {len(values)} values, expected {dim}"
                )
            i = vocab.token_to_id.get(token)
            if i is None or i < 4:
                continue
            try:
                row = [float(v) for v in values]
            except ValueError as e:
                raise FormatError(f"embedding line {lineno}: {e}") from e
            if not all(map(math.isfinite, row)):
                raise FormatError(f"embedding line {lineno} has a value that is not finite")
            table.E.data[i] = row
            hits.add(i)
    denom = max(vocab.size - 4, 1)
    return table, len(hits) / denom


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    """Padded id arrays for one training step.

    ``tgt_out`` rows end with sentence-end.  Masks are 1.0 at real
    positions, 0.0 at padding.
    """

    src: np.ndarray
    src_mask: np.ndarray
    tgt_out: np.ndarray
    tgt_mask: np.ndarray

    @property
    def size(self) -> int:
        return self.src.shape[0]

    @staticmethod
    def from_ids(pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> "Batch":
        """Pad (source ids, bare target ids) pairs; targets gain the end marker."""
        src, src_mask = _pad([list(s) for s, _ in pairs])
        tgt_out, tgt_mask = _pad([list(t) + [EOS_ID] for _, t in pairs])
        return Batch(src=src, src_mask=src_mask, tgt_out=tgt_out, tgt_mask=tgt_mask)


def _pad(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=np.float64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
        mask[i, : len(r)] = 1.0
    return out, mask


def batches(
    corpus: ParallelCorpus,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    batch_size: int,
    rng: np.random.Generator,
    bucket: bool = False,
) -> list[Batch]:
    """Shuffle the corpus and cut it into padded batches.

    With ``bucket`` set, pairs are first sorted by source length and cut
    into batches before the batch order is shuffled, which keeps padding
    waste low without fixing the visit order.
    """
    if batch_size < 1:
        raise ConfigError(f"batch size {batch_size} must be at least 1")
    n = len(corpus.pairs)
    if n == 0:
        return []
    if bucket:
        order = sorted(range(n), key=lambda i: len(corpus.pairs[i][0]))
        groups = [order[i : i + batch_size] for i in range(0, n, batch_size)]
        rng.shuffle(groups)
    else:
        order = rng.permutation(n)
        groups = [order[i : i + batch_size] for i in range(0, n, batch_size)]

    def encoded(i):
        src, tgt = corpus.pairs[i]
        return src_vocab.encode(src), tgt_vocab.encode(tgt)

    return [Batch.from_ids([encoded(i) for i in group]) for group in groups]
