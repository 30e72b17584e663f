"""Tests for vocabulary construction, corpus loading, and batching."""

import numpy as np
import numpy.testing as npt
import pytest

from nsesimp import data
from nsesimp.data import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    batches,
    build_vocab,
    load_parallel,
    load_pretrained_embeddings,
    load_references,
)
from nsesimp.errors import ConfigError, DataError, FormatError


class TestVocabulary:
    def test_reserved_layout(self):
        v = build_vocab([["a", "a", "b"]], cap=6)
        assert v.id_to_token[:4] == ["<pad>", "<unk>", "<s>", "</s>"]
        assert (PAD_ID, UNK_ID, BOS_ID, EOS_ID) == (0, 1, 2, 3)

    def test_frequency_order_and_tie_break(self):
        # c appears twice; a and b tie at one -> lexicographic a before b
        v = build_vocab([["c", "a", "c", "b"]], cap=10)
        assert v.id_to_token[4:] == ["c", "a", "b"]

    def test_cap_truncates(self):
        v = build_vocab([["a", "a", "b", "c"]], cap=5)
        assert v.size == 5
        assert v.id_to_token[4] == "a"
        assert v.id("b") == UNK_ID
        # among the tied singletons b/c the lexicographic winner takes the slot
        v6 = build_vocab([["a", "a", "b", "c"]], cap=6)
        assert v6.id_to_token[5] == "b"

    def test_cap_too_small(self):
        with pytest.raises(ConfigError):
            build_vocab([["a"]], cap=4)

    def test_encode_decode_round_trip(self):
        v = build_vocab([["the", "cat", "sat"]], cap=10)
        ids = v.encode(["the", "cat", "sat"])
        assert [v.token(i) for i in ids] == ["the", "cat", "sat"]
        assert v.encode(["unseen"]) == [UNK_ID]
        assert v.token(UNK_ID) == "<unk>"

    def test_reserved_surface_forms_not_duplicated(self):
        v = build_vocab([["<unk>", "a", "<s>"]], cap=10)
        assert v.id_to_token.count("<unk>") == 1
        assert v.id("a") == 4

    def test_deterministic(self):
        sents = [["b", "a"], ["a", "c", "b"]]
        assert build_vocab(sents, 10).id_to_token == build_vocab(reversed(sents), 10).id_to_token


class TestLoadParallel:
    def write_pair(self, tmp_path, src_lines, tgt_lines):
        s = tmp_path / "src.txt"
        t = tmp_path / "tgt.txt"
        s.write_text("\n".join(src_lines) + "\n", encoding="utf-8")
        t.write_text("\n".join(tgt_lines) + "\n", encoding="utf-8")
        return s, t

    def test_three_lines(self, tmp_path):
        s, t = self.write_pair(tmp_path, ["a b", "c d e", "f"], ["x", "y z", "w"])
        corpus = load_parallel(s, t)
        assert len(corpus) == 3
        assert corpus.pairs[1] == (["c", "d", "e"], ["y", "z"])

    def test_mismatched_counts(self, tmp_path):
        s, t = self.write_pair(tmp_path, ["a", "b"], ["x"])
        with pytest.raises(DataError):
            load_parallel(s, t)

    def test_empty_sides_dropped(self, tmp_path):
        s, t = self.write_pair(tmp_path, ["a", "", "c"], ["x", "y", ""])
        corpus = load_parallel(s, t)
        assert len(corpus) == 1
        assert corpus.dropped_empty == 2

    def test_length_filter(self, tmp_path):
        s, t = self.write_pair(tmp_path, ["a b c d", "e"], ["x", "y"])
        corpus = load_parallel(s, t, max_len=3)
        assert len(corpus) == 1
        assert corpus.length_filtered == 1

    def test_reference_stats_table(self):
        assert data.REFERENCE_CORPUS_STATS["newsela"] == (25.94, 15.89)
        assert data.REFERENCE_CORPUS_STATS["wikismall"] == (24.26, 20.33)
        assert data.REFERENCE_CORPUS_STATS["wikilarge"] == (25.17, 18.51)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_parallel(tmp_path / "no.txt", tmp_path / "nope.txt")


class TestLoadReferences:
    def test_multiple_files(self, tmp_path):
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        r1.write_text("a b\nc\n", encoding="utf-8")
        r2.write_text("d\ne f\n", encoding="utf-8")
        refs = load_references([r1, r2], expected=2)
        assert refs == [[["a", "b"], ["d"]], [["c"], ["e", "f"]]]

    def test_wrong_length(self, tmp_path):
        r1 = tmp_path / "r1.txt"
        r1.write_text("a\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_references([r1], expected=2)

    def test_no_files(self):
        with pytest.raises(DataError):
            load_references([], expected=1)


class TestPretrainedEmbeddings:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("", encoding="utf-8")
        vocab = build_vocab([["a", "b"]], cap=8)
        table, hit = load_pretrained_embeddings(p, vocab, 3, np.random.default_rng(0))
        assert hit == 0.0
        assert table.E.shape == (vocab.size, 3)

    def test_single_match_replaces_one_row(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("a 1.0 2.0 3.0\nzzz 9.0 9.0 9.0\n", encoding="utf-8")
        vocab = build_vocab([["a", "b"]], cap=8)
        table, hit = load_pretrained_embeddings(p, vocab, 3, np.random.default_rng(0))
        npt.assert_array_equal(table.E.data[vocab.id("a")], [1.0, 2.0, 3.0])
        assert np.all(np.abs(table.E.data[vocab.id("b")]) < 0.1)
        assert hit == 0.5

    def test_malformed_width_cites_line(self, tmp_path):
        p = tmp_path / "vec.txt"
        lines = [f"tok{i} 1.0 2.0 3.0" for i in range(6)] + ["bad 1.0 2.0"]
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        vocab = build_vocab([["a"]], cap=8)
        with pytest.raises(FormatError, match="line 7"):
            load_pretrained_embeddings(p, vocab, 3, np.random.default_rng(0))


class TestBatches:
    def corpus(self, n=10):
        pairs = [([f"s{i}", "w"] * (1 + i % 3), [f"t{i}"]) for i in range(n)]
        return data.ParallelCorpus([(s, t) for s, t in pairs])

    def vocabs(self, corpus):
        sv = build_vocab(corpus.source_sentences(), cap=64)
        tv = build_vocab(corpus.target_sentences(), cap=64)
        return sv, tv

    def test_small_corpus_single_batch(self):
        c = self.corpus(10)
        sv, tv = self.vocabs(c)
        out = batches(c, sv, tv, 32, np.random.default_rng(0))
        assert len(out) == 1
        assert out[0].size == 10

    def test_masks_count_real_tokens(self):
        c = self.corpus(6)
        sv, tv = self.vocabs(c)
        (b,) = batches(c, sv, tv, 32, np.random.default_rng(0))
        assert b.src_mask.sum() == sum(len(s) for s, _ in c.pairs)
        # each target contributes content + end marker
        assert b.tgt_mask.sum() == sum(len(t) + 1 for _, t in c.pairs)

    def test_target_wrapping(self):
        c = data.ParallelCorpus([(["a"], ["x", "y"]), (["b"], ["z"])])
        sv, tv = self.vocabs(c)
        (b,) = batches(c, sv, tv, 4, np.random.default_rng(0))
        real = sorted(row[mask > 0].tolist() for row, mask in zip(b.tgt_out, b.tgt_mask))
        assert real == [[tv.id("x"), tv.id("y"), EOS_ID], [tv.id("z"), EOS_ID]]
        assert np.all(b.tgt_out[b.tgt_mask == 0] == PAD_ID)

    def test_padding_uses_pad_id(self):
        c = data.ParallelCorpus([(["a", "b", "c"], ["x"]), (["d"], ["y", "z"])])
        sv, tv = self.vocabs(c)
        (b,) = batches(c, sv, tv, 4, np.random.default_rng(0))
        for i in range(b.size):
            row = b.src[i]
            n = int(b.src_mask[i].sum())
            assert np.all(row[n:] == PAD_ID)

    def test_seeded_shuffle_reproducible(self):
        c = self.corpus(20)
        sv, tv = self.vocabs(c)
        a = batches(c, sv, tv, 4, np.random.default_rng(5))
        b = batches(c, sv, tv, 4, np.random.default_rng(5))
        for x, y in zip(a, b):
            npt.assert_array_equal(x.src, y.src)
            npt.assert_array_equal(x.tgt_out, y.tgt_out)
        d = batches(c, sv, tv, 4, np.random.default_rng(6))
        assert any(not np.array_equal(x.src, y.src) for x, y in zip(a, d))

    def test_bucketed_batches_group_by_length(self):
        c = self.corpus(12)
        sv, tv = self.vocabs(c)
        out = batches(c, sv, tv, 4, np.random.default_rng(0), bucket=True)
        spreads = []
        for b in out:
            lengths = b.src_mask.sum(axis=1)
            spreads.append(lengths.max() - lengths.min())
        # sorted-by-length batching keeps each batch nearly uniform
        assert max(spreads) <= 2

    def test_bad_batch_size(self):
        c = self.corpus(2)
        sv, tv = self.vocabs(c)
        with pytest.raises(ConfigError):
            batches(c, sv, tv, 0, np.random.default_rng(0))

    def test_empty_corpus(self):
        sv = build_vocab([["a"]], cap=8)
        assert batches(data.ParallelCorpus([]), sv, sv, 4, np.random.default_rng(0)) == []
