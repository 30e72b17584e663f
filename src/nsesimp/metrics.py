"""Corpus-level BLEU and SARI for simplification output.

Both metrics consume :class:`EvalInstance` records (source, system output,
one or more references), lowercase tokens internally, and work over
n-grams up to length 4.

BLEU is the classic corpus measure: clipped modified n-gram precision
pooled over the corpus, geometric mean, brevity penalty from per-sentence
closest-reference lengths (ties favor the shorter reference).  There is
no smoothing by default; ``smooth=True`` adds one to numerator and
denominator for n >= 2, which keeps tiny test corpora off the floor.

SARI averages three component scores per n-gram order -- how well the
output kept what the references kept, deleted what they deleted
(precision only), and added what they added -- then averages components
and scales by 100.  Counts from the source and output are multiplied by
the number of references so they compare against reference counts pooled
by multiplicity; empty component denominators score 0.  The corpus score
is the mean over instances.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import UsageError

MAX_ORDER = 4


@dataclass
class EvalInstance:
    """One scoring unit: source tokens, output tokens, reference token lists."""

    source: list[str]
    output: list[str]
    references: list[list[str]]

    def __post_init__(self):
        if not self.references:
            raise UsageError("an evaluation instance needs at least one reference")


@dataclass
class BleuReport:
    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    output_length: int
    reference_length: int


@dataclass
class SariReport:
    score: float
    add: float
    keep: float
    delete: float


def ngram_profile(tokens: Sequence[str], n: int) -> Counter:
    """Multiset of contiguous n-grams as tuples; empty when len < n."""
    if n < 1:
        raise UsageError(f"n-gram order {n} must be at least 1")
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _lower(tokens: Sequence[str]) -> list[str]:
    return [t.lower() for t in tokens]


# ---------------------------------------------------------------------------
# BLEU


def bleu_corpus(instances: Sequence[EvalInstance], smooth: bool = False) -> BleuReport:
    if not instances:
        raise UsageError("cannot score an empty instance list")
    clipped = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    out_len = 0
    ref_len = 0
    for inst in instances:
        out = _lower(inst.output)
        refs = [_lower(r) for r in inst.references]
        out_len += len(out)
        # closest reference length; ties resolved toward the shorter one
        ref_len += min((len(r) for r in refs), key=lambda L: (abs(L - len(out)), L))
        for n in range(1, MAX_ORDER + 1):
            out_grams = ngram_profile(out, n)
            best = Counter()
            for ref in refs:
                for gram, count in ngram_profile(ref, n).items():
                    if count > best[gram]:
                        best[gram] = count
            totals[n - 1] += max(len(out) - n + 1, 0)
            clipped[n - 1] += sum(min(c, best[g]) for g, c in out_grams.items())
    precisions = []
    for n in range(1, MAX_ORDER + 1):
        num, den = clipped[n - 1], totals[n - 1]
        if smooth and n >= 2:
            num, den = num + 1, den + 1
        precisions.append(num / den if den > 0 else 0.0)
    if out_len == 0 or any(p == 0.0 for p in precisions):
        bp = 0.0 if out_len == 0 else _brevity(out_len, ref_len)
        return BleuReport(0.0, tuple(precisions), bp, out_len, ref_len)
    bp = _brevity(out_len, ref_len)
    geo = math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER)
    return BleuReport(100.0 * bp * geo, tuple(precisions), bp, out_len, ref_len)


def _brevity(out_len: int, ref_len: int) -> float:
    if out_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / out_len)


# ---------------------------------------------------------------------------
# SARI


def _rep(counter: Counter, factor: int) -> Counter:
    return Counter({g: c * factor for g, c in counter.items()})


def _f1(precision: float, recall: float) -> float:
    if precision > 0 or recall > 0:
        return 2 * precision * recall / (precision + recall)
    return 0.0


def _sari_order(src: list[str], out: list[str], refs: list[list[str]], n: int):
    """(keep, delete, add) scores for one n-gram order."""
    numref = len(refs)
    s_rep = _rep(ngram_profile(src, n), numref)
    c_rep = _rep(ngram_profile(out, n), numref)
    r_cnt = Counter()
    for ref in refs:
        r_cnt.update(ngram_profile(ref, n))

    # keep: n-grams retained from the source, judged against the references
    keep_rep = s_rep & c_rep
    keep_good = keep_rep & r_cnt
    keep_all = s_rep & r_cnt
    p = sum(keep_good[g] / keep_rep[g] for g in keep_good)
    r = sum(keep_good[g] / keep_all[g] for g in keep_good)
    keep_p = p / len(keep_rep) if keep_rep else 0.0
    keep_r = r / len(keep_all) if keep_all else 0.0
    keep = _f1(keep_p, keep_r)

    # delete: n-grams dropped from the source; precision only
    del_rep = s_rep - c_rep
    del_good = del_rep - r_cnt
    p = sum(del_good[g] / del_rep[g] for g in del_good)
    delete = p / len(del_rep) if del_rep else 0.0

    # add: n-grams absent from the source, as plain sets
    add_set = set(c_rep) - set(s_rep)
    add_good = add_set & set(r_cnt)
    add_all = set(r_cnt) - set(s_rep)
    add_p = len(add_good) / len(add_set) if add_set else 0.0
    add_r = len(add_good) / len(add_all) if add_all else 0.0
    add = _f1(add_p, add_r)

    return keep, delete, add


def sari_instance(source, output, references) -> SariReport:
    """SARI for a single instance, components averaged over orders 1..4."""
    src = _lower(source)
    out = _lower(output)
    refs = [_lower(r) for r in references]
    keeps, deletes, adds = [], [], []
    for n in range(1, MAX_ORDER + 1):
        k, d, a = _sari_order(src, out, refs, n)
        keeps.append(k)
        deletes.append(d)
        adds.append(a)
    keep = sum(keeps) / MAX_ORDER
    delete = sum(deletes) / MAX_ORDER
    add = sum(adds) / MAX_ORDER
    return SariReport(100.0 * (keep + delete + add) / 3.0, add=add, keep=keep, delete=delete)


def sari_corpus(instances: Sequence[EvalInstance]) -> SariReport:
    if not instances:
        raise UsageError("cannot score an empty instance list")
    reports = [sari_instance(i.source, i.output, i.references) for i in instances]
    n = len(reports)
    return SariReport(
        score=sum(r.score for r in reports) / n,
        add=sum(r.add for r in reports) / n,
        keep=sum(r.keep for r in reports) / n,
        delete=sum(r.delete for r in reports) / n,
    )
