"""Evaluation and diagnostics: BLEU, corpus statistics, OOV and overlap."""

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import words_of
from .errors import ToolkitError


@dataclass
class BleuReport:
    precisions: tuple
    brevity_penalty: float
    score: float


def _ngrams(words, n):
    return Counter(tuple(words[i : i + n]) for i in range(len(words) - n + 1))


def bleu(hypotheses, references, max_n=4, smooth=False):
    """Corpus-level BLEU with clipped n-gram precisions and the exponential
    brevity penalty.  Any zero precision makes the unsmoothed score 0; with
    smooth=True add-one smoothing is applied to every precision."""
    hyps = [words_of(h) for h in hypotheses]
    refs = [words_of(r) for r in references]
    if len(hyps) != len(refs):
        raise ToolkitError(
            "hypothesis/reference count mismatch: %d vs %d" % (len(hyps), len(refs))
        )
    if not refs or any(len(r) == 0 for r in refs):
        raise ToolkitError("references must be non-empty")
    matched = [0] * (max_n + 1)
    total = [0] * (max_n + 1)
    len_out = 0
    len_ref = 0
    for h, r in zip(hyps, refs):
        len_out += len(h)
        len_ref += len(r)
        for n in range(1, max_n + 1):
            hc = _ngrams(h, n)
            rc = _ngrams(r, n)
            total[n] += sum(hc.values())
            matched[n] += sum(min(c, rc[g]) for g, c in hc.items())
    precisions = []
    for n in range(1, max_n + 1):
        if smooth:
            precisions.append((matched[n] + 1) / (total[n] + 1))
        else:
            precisions.append(matched[n] / total[n] if total[n] else 0.0)
    bp = min(1.0, math.exp(1.0 - len_ref / len_out)) if len_out else 0.0
    if any(p == 0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / max_n)
    return BleuReport(tuple(precisions), bp, score)


def vocab_stats(corpus):
    """Running token count, vocabulary size, and type-token ratio."""
    tokens = 0
    types = set()
    for s in corpus:
        words = words_of(s)
        tokens += len(words)
        types.update(words)
    if tokens == 0:
        raise ToolkitError("cannot compute statistics of an empty corpus")
    return tokens, len(types), len(types) / tokens


def oov_ratio(train_corpus, test_corpus, by_type=False):
    """Fraction of test tokens (or types, with by_type) absent from the
    training vocabulary."""
    train_vocab = {w for s in train_corpus for w in words_of(s)}
    test = [w for s in test_corpus for w in words_of(s)]
    if by_type:
        test = set(test)
    if not test:
        raise ToolkitError("test corpus is empty")
    return sum(w not in train_vocab for w in test) / len(test)


def overlap_stats(subsets):
    """Overlap = |intersection| / |union|; unique_k = share of subset k not
    present in any other subset."""
    if len(subsets) < 2:
        raise ToolkitError("need at least 2 subsets")
    sets = [set(s) for s in subsets]
    union = set().union(*sets)
    inter = sets[0].intersection(*sets[1:])
    overlap = len(inter) / len(union) if union else 0.0
    uniques = []
    for i, s in enumerate(sets):
        rest = set().union(*(t for j, t in enumerate(sets) if j != i))
        uniques.append(len(s - rest) / len(s) if s else 0.0)
    return overlap, uniques


def format_table(headers, rows):
    """Render an aligned text table (method columns, metric rows)."""
    table = [list(headers)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
