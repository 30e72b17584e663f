"""Synthetic corpora shared by training tests.

Two miniature tasks exercise the full stack end to end: copying (the
target repeats the source) and deletion (the target is the source with
filler words removed).  Both are solvable by a small attention model, so
they make good convergence probes.
"""

import numpy as np

from nsesimp.data import ParallelCorpus, build_vocab

COPY_WORDS = [f"w{i:02d}" for i in range(16)]  # 16 words + 4 reserved = 20 ids

STOP_WORDS = ["the", "a", "of", "is"]
CONTENT_WORDS = [f"n{i:02d}" for i in range(12)]


def copy_pairs(rng: np.random.Generator, count: int, min_len=3, max_len=8) -> ParallelCorpus:
    pairs = []
    for _ in range(count):
        n = int(rng.integers(min_len, max_len + 1))
        picks = rng.integers(0, len(COPY_WORDS), size=n)
        seq = [COPY_WORDS[int(i)] for i in picks]
        pairs.append((list(seq), list(seq)))
    return ParallelCorpus(pairs)


def deletion_pairs(rng: np.random.Generator, count: int, min_len=3, max_len=8) -> ParallelCorpus:
    """Source mixes filler and content words; target keeps only content."""
    pairs = []
    while len(pairs) < count:
        n = int(rng.integers(min_len, max_len + 1))
        src = []
        for _ in range(n):
            if rng.random() < 0.4:
                src.append(STOP_WORDS[int(rng.integers(len(STOP_WORDS)))])
            else:
                src.append(CONTENT_WORDS[int(rng.integers(len(CONTENT_WORDS)))])
        tgt = [w for w in src if w not in STOP_WORDS]
        if tgt:
            pairs.append((src, tgt))
    return ParallelCorpus(pairs)


def vocabs_for(corpus: ParallelCorpus, cap: int = 100):
    src_vocab = build_vocab(corpus.source_sentences(), cap)
    tgt_vocab = build_vocab(corpus.target_sentences(), cap)
    return src_vocab, tgt_vocab
