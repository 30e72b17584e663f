"""Independent brute-force oracles used to cross-check the library.

Everything here is written from first principles with naive loops and no
shared code with the package: finite differences for gradients, direct
n-gram scanning for the metrics, filter-then-argmax for model selection,
and a beam search that steps one hypothesis at a time.  Slow on purpose;
clarity over speed.

The one exception is the per-sentence model: the teacher-forced loss of one
(source, target) pair, stepping one token at a time.  It is built from the
package's tape ops, which criterion 1 checks against finite differences,
and from a model's parameter records, but shares none of the batched
encoder, decoder or loss code it is a reference for.
"""

from __future__ import annotations

import math

import numpy as np

from nsesimp import autodiff as ad
from nsesimp.autodiff import Tensor
from nsesimp.data import BOS_ID, EOS_ID


def lower(tokens):
    return [t.lower() for t in tokens]


def ngrams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def count_of(gram_list, g):
    c = 0
    for x in gram_list:
        if x == g:
            c += 1
    return c


def distinct(gram_list):
    seen = []
    for g in gram_list:
        if g not in seen:
            seen.append(g)
    return seen


# ---------------------------------------------------------------------------
# SARI


def sari_instance(source, output, references):
    """Published SARI definition evaluated by direct enumeration.

    Returns (score, add, keep, delete) with score scaled by 100.
    """
    src = lower(source)
    out = lower(output)
    refs = [lower(r) for r in references]
    numref = len(refs)

    keep_scores, del_scores, add_scores = [], [], []
    for n in (1, 2, 3, 4):
        s_list = ngrams(src, n)
        c_list = ngrams(out, n)
        r_list = []
        for ref in refs:
            r_list.extend(ngrams(ref, n))
        universe = distinct(s_list + c_list + r_list)

        # keep: grams present in both source and output (counts scaled by
        # the number of references), scored against pooled reference counts
        kept_grams = []
        keepable_grams = []
        for g in universe:
            s_rep = count_of(s_list, g) * numref
            c_rep = count_of(c_list, g) * numref
            r_cnt = count_of(r_list, g)
            if min(s_rep, c_rep) > 0:
                kept_grams.append(g)
            if min(s_rep, r_cnt) > 0:
                keepable_grams.append(g)
        p_sum = 0.0
        for g in kept_grams:
            kept = min(count_of(s_list, g), count_of(c_list, g)) * numref
            good = min(kept, count_of(r_list, g))
            p_sum += good / kept
        keep_p = p_sum / len(kept_grams) if kept_grams else 0.0
        r_sum = 0.0
        for g in keepable_grams:
            kept = min(count_of(s_list, g), count_of(c_list, g)) * numref
            good = min(kept, count_of(r_list, g))
            keepable = min(count_of(s_list, g) * numref, count_of(r_list, g))
            r_sum += good / keepable
        keep_r = r_sum / len(keepable_grams) if keepable_grams else 0.0
        if keep_p > 0 or keep_r > 0:
            keep_scores.append(2 * keep_p * keep_r / (keep_p + keep_r))
        else:
            keep_scores.append(0.0)

        # delete: grams removed from the source; precision only
        deleted_grams = []
        for g in universe:
            s_rep = count_of(s_list, g) * numref
            c_rep = count_of(c_list, g) * numref
            if s_rep - c_rep > 0:
                deleted_grams.append(g)
        d_sum = 0.0
        for g in deleted_grams:
            removed = count_of(s_list, g) * numref - count_of(c_list, g) * numref
            good = removed - count_of(r_list, g)
            if good > 0:
                d_sum += good / removed
        del_scores.append(d_sum / len(deleted_grams) if deleted_grams else 0.0)

        # add: grams introduced by the output, as plain sets
        added = [g for g in distinct(c_list) if count_of(s_list, g) == 0]
        addable = [g for g in distinct(r_list) if count_of(s_list, g) == 0]
        good_added = [g for g in added if count_of(r_list, g) > 0]
        add_p = len(good_added) / len(added) if added else 0.0
        add_r = len(good_added) / len(addable) if addable else 0.0
        if add_p > 0 or add_r > 0:
            add_scores.append(2 * add_p * add_r / (add_p + add_r))
        else:
            add_scores.append(0.0)

    keep = sum(keep_scores) / 4
    delete = sum(del_scores) / 4
    add = sum(add_scores) / 4
    return 100.0 * (keep + delete + add) / 3.0, add, keep, delete


def sari_corpus(instances):
    """instances: list of (source, output, references) token triples."""
    scores = [sari_instance(s, o, r)[0] for s, o, r in instances]
    return sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# BLEU


def bleu_corpus(instances, smooth=False):
    """instances: list of (output, references) token pairs."""
    clipped = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    out_len = 0
    ref_len = 0
    for output, references in instances:
        out = lower(output)
        refs = [lower(r) for r in references]
        out_len += len(out)
        best_len = None
        for ref in refs:
            if best_len is None:
                best_len = len(ref)
                continue
            d_new, d_old = abs(len(ref) - len(out)), abs(best_len - len(out))
            if d_new < d_old or (d_new == d_old and len(ref) < best_len):
                best_len = len(ref)
        ref_len += best_len
        for n in (1, 2, 3, 4):
            out_grams = ngrams(out, n)
            totals[n - 1] += len(out_grams)
            for g in distinct(out_grams):
                in_out = count_of(out_grams, g)
                in_refs = 0
                for ref in refs:
                    c = count_of(ngrams(ref, n), g)
                    if c > in_refs:
                        in_refs = c
                clipped[n - 1] += min(in_out, in_refs)
    precisions = []
    for i in range(4):
        num, den = clipped[i], totals[i]
        if smooth and i >= 1:
            num, den = num + 1, den + 1
        precisions.append(num / den if den > 0 else 0.0)
    if out_len == 0 or min(precisions) == 0.0:
        return 0.0
    bp = 1.0 if out_len >= ref_len else math.exp(1.0 - ref_len / out_len)
    return 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4)


# ---------------------------------------------------------------------------
# model selection


def select_model(records, tune_metric, threshold):
    """records: list of (bleu, sari); returns the 1-based best epoch."""
    if tune_metric == "bleu":
        best = 1
        for i, (bleu, _) in enumerate(records, start=1):
            if bleu > records[best - 1][0]:
                best = i
        return best
    eligible = [i for i, (bleu, _) in enumerate(records, start=1) if bleu >= threshold]
    if not eligible:
        return select_model(records, "bleu", threshold)
    best = eligible[0]
    for i in eligible:
        if records[i - 1][1] > records[best - 1][1]:
            best = i
    return best


# ---------------------------------------------------------------------------
# beam search


def beam_search(session, beam, max_len, length_normalize, eos_id):
    """Beam search with one session step per live hypothesis.

    Each hypothesis is its own one-row session state; its candidates are
    the first ``beam`` ids of a full stable argsort of its row, so token
    ties go to the lower id.  Candidates are ranked by score, ties kept in
    generation order (hypothesis, then token); terminal ones are banked,
    the best others refill the beam.  Returns the selected
    ``(tokens, score, alphas, finished)``: the best finished hypothesis,
    else the best live one, by raw or per-step score.
    """
    live = [((), 0.0, (), session.start())]
    finished = []
    for _ in range(max_len):
        candidates = []
        for tokens, score, alphas, state in live:
            log_probs, alpha, core = session.step(state)
            row = log_probs[0]
            order = np.argsort(-row, kind="stable")
            for token in order[: min(beam, len(row))]:
                token = int(token)
                candidates.append((score + float(row[token]), tokens, alphas, alpha[0], core, token))
        candidates.sort(key=lambda c: -c[0])
        refill = []
        for score, tokens, alphas, alpha, core, token in candidates:
            if token == eos_id:
                finished.append((tokens, score, alphas, True))
            elif len(refill) < beam:
                state = session.advance(core, [0], [token])
                refill.append((tokens + (token,), score, alphas + (alpha,), state))
        live = refill
        if not live:
            break
    pool = finished if finished else [(t, s, a, False) for t, s, a, _ in live]

    def key(hyp):
        tokens, score, _, done = hyp
        if not length_normalize:
            return score
        return score / max(len(tokens) + (1 if done else 0), 1)

    return max(pool, key=key)


# ---------------------------------------------------------------------------
# the per-sentence model


def lstm_cell(p, x, h, c):
    """One LSTM transition of [1, ·] rows: gates W_x x + W_h h + b in [i, f, g, o] order."""
    H = p.hidden_dim
    z = ad.add(ad.add(ad.affine_rows(x, p.W_x), ad.affine_rows(h, p.W_h)), p.b)
    i = ad.sigmoid(ad.narrow(z, 0, H))
    f = ad.sigmoid(ad.narrow(z, H, 2 * H))
    g = ad.tanh(ad.narrow(z, 2 * H, 3 * H))
    o = ad.sigmoid(ad.narrow(z, 3 * H, 4 * H))
    c = ad.add(ad.mul(f, c), ad.mul(i, g))
    return ad.mul(o, ad.tanh(c)), c


def _zeros(H):
    return Tensor(np.zeros((1, H)))


def lstm_encode(p, emb):
    """Two stacked LSTM layers, token by token; returns (states, final h, final c)."""
    h1 = c1 = h2 = c2 = _zeros(p.layer1.hidden_dim)
    outputs = []
    for t in range(emb.shape[0]):
        h1, c1 = lstm_cell(p.layer1, ad.take_rows(emb, [t]), h1, c1)
        h2, c2 = lstm_cell(p.layer2, h1, h2, c2)
        outputs.append(h2)
    return ad.stack_rows(outputs), h2, c2


def nse_encode(p, emb):
    """The memory encoder, token by token; returns (states, final h, final c, slot weights).

    The memory starts as the embeddings; each step reads it with softmax
    weights, composes, writes, and moves every row toward the written row
    by its weight.
    """
    S, D = emb.shape
    read_h = read_c = write_h = write_c = _zeros(p.read.hidden_dim)
    memory = emb
    outputs, slot_weights = [], []
    for t in range(S):
        read_h, read_c = lstm_cell(p.read, ad.take_rows(emb, [t]), read_h, read_c)
        weights = ad.softmax_rows(ad.affine_rows(read_h, memory))
        summary = ad.matmul(weights, memory)
        hidden = ad.tanh(ad.affine_rows(ad.concat(read_h, summary), p.compose.W1, p.compose.b1))
        composed = ad.affine_rows(hidden, p.compose.W2, p.compose.b2)
        write_h, write_c = lstm_cell(p.write, composed, write_h, write_c)
        step = ad.sub(ad.reshape(write_h, (D,)), memory)
        memory = ad.add(memory, ad.mul(ad.reshape(weights, (S, 1)), step))
        outputs.append(write_h)
        slot_weights.append(weights.data[0])
    return ad.stack_rows(outputs), write_h, write_c, slot_weights


def encode(model, src_ids):
    """(states [S, D], final h [1, H], final c [1, H]) of one source sentence."""
    emb = ad.take_rows(model.src_embed.E, src_ids)
    if model.encoder_kind == "lstm":
        return lstm_encode(model.encoder, emb)
    return nse_encode(model.encoder, emb)[:3]


def teacher_logits(model, states, final_h, final_c, decoder_input_ids):
    """[T, V] logits, one full decoder step (attention, two layers, output) per token."""
    p = model.decoder
    h1 = h2 = ad.tanh(ad.affine_rows(final_h, p.init_h))
    c1 = c2 = ad.tanh(ad.affine_rows(final_c, p.init_c))
    rows = []
    for token in decoder_input_ids:
        y = ad.take_rows(model.tgt_embed.E, [token])
        alpha = ad.softmax_rows(ad.affine_rows(h2, states))
        context = ad.matmul(alpha, states)
        h1, c1 = lstm_cell(p.layer1, ad.concat(y, context), h1, c1)
        h2, c2 = lstm_cell(p.layer2, h1, h2, c2)
        rows.append(ad.affine_rows(ad.concat(h2, context), p.out_w, p.out_b))
    return ad.stack_rows(rows)


def sentence_nll(model, src_ids, tgt_ids):
    """Summed negative log-likelihood of the wrapped target of one pair (no dropout)."""
    states, final_h, final_c = encode(model, src_ids)
    logits = teacher_logits(model, states, final_h, final_c, [BOS_ID] + list(tgt_ids))
    picked = ad.gather_rows(ad.log_softmax_rows(logits), list(tgt_ids) + [EOS_ID])
    return ad.scale(ad.sum_all(picked), -1.0)
