"""Hybrid combination of selection outputs.

Corpus-level weighted union of selections, rank-order round-robin merge,
linear interpolation of phrase tables, and linear interpolation of LMs
trained per selection source.
"""

from itertools import chain, repeat, zip_longest

from .errors import (FormatError, ToolkitError, non_negative, parse_field, read_lines,
                     write_headed)


class WeightedEntry:
    def __init__(self, item, weight, provenance):
        self.item = item
        self.weight = weight
        self.provenance = provenance


class WeightedCorpus:
    def __init__(self, entries):
        self.entries = entries


def combine_corpus_weighted(selections, corpus, weights):
    """Weighted union of selections over one source corpus.

    Each selected sentence appears once, weighted by the sum of the weights
    of the criteria that selected it; entries keep corpus order.  Entries
    whose total weight is 0 are dropped (weights must stay positive)."""
    if len(weights) != len(selections):
        raise ToolkitError(
            "got %d weights for %d selections" % (len(weights), len(selections))
        )
    if any(w < 0 for w in weights):
        raise ToolkitError("selection weights must be non-negative")
    if not sum(weights) < float("inf"):  # an entry's total could overflow
        raise ToolkitError("selection weights must have a finite sum")
    items = list(corpus)
    picked = {}
    for sel, w in zip(selections, weights):
        for i in sel.indices:
            if not 0 <= i < len(items):
                raise ToolkitError("selection index %d out of range" % i)
            total, labels = picked.get(i, (0.0, []))
            picked[i] = (total + w, labels + [sel.criterion])
    entries = [
        WeightedEntry(items[i], total, tuple(labels))
        for i, (total, labels) in sorted(picked.items())
        if total > 0
    ]
    return WeightedCorpus(entries)


_GAP = object()  # fills the tiers past a shorter list's end


def combine_naive_rank(ranked_lists, target_size):
    """Round-robin merge of ranked lists, keeping first occurrences only.

    Traverses rank tiers (all first-ranked items, then all second-ranked,
    ...) in the order the lists are supplied, until target_size distinct
    items are kept."""
    if target_size < 1:
        raise ToolkitError("target_size must be >= 1")
    merged = dict.fromkeys(chain.from_iterable(zip_longest(*ranked_lists, fillvalue=_GAP)))
    merged.pop(_GAP, None)
    if target_size > len(merged):
        raise ToolkitError(
            "target_size %d exceeds the union of all lists (%d)"
            % (target_size, len(merged))
        )
    return list(merged)[:target_size]


def interpolate_tables(tables, weights):
    """Weighted sum of phrase tables ({(source, target): scores}) over the
    union of keys; missing rows count 0.

    Weights must be non-negative and are normalized to sum to 1.  Every row
    of every table must have the first row's arity and no negative score."""
    if not tables:
        raise ToolkitError("need at least one table")
    if len(weights) != len(tables):
        raise ToolkitError("weight count does not match table count")
    if any(w < 0 for w in weights):
        raise ToolkitError("table weights must be non-negative")
    total = float(sum(weights))
    if not total < float("inf"):  # each weight / inf would be 0
        raise ToolkitError("table weights must have a finite sum")
    if total <= 0:
        raise ToolkitError("weights must have positive sum")
    arity = next((len(scores) for t in tables for scores in t.values()), 0)
    rows = {}
    for t, w in zip(tables, weights):
        w /= total
        for key, scores in t.items():
            if len(scores) != arity:
                raise FormatError("row %r has arity %d, expected %d" % (key, len(scores), arity))
            if any(s < 0 for s in scores):
                raise FormatError("row %r has a negative score" % (key,))
            acc = rows.setdefault(key, [0.0] * arity)
            for i, s in enumerate(scores):
                acc[i] += w * s
    return {key: tuple(acc) for key, acc in rows.items()}


def read_table(path):
    """The {(source, target): scores} rows of a phrase-table file, each line
    checked as it is read: three ' ||| ' fields, finite non-negative scores,
    and the first row's arity."""
    rows = {}
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        fields = line.split(" ||| ")
        if len(fields) != 3:
            raise FormatError("%s line %d: expected 'src ||| tgt ||| scores'"
                              % (path, lineno))
        scores = tuple(parse_field(non_negative, s, "score", path, lineno)
                       for s in fields[2].split())
        if rows and len(scores) != arity:
            raise FormatError("%s line %d: arity mismatch" % (path, lineno))
        arity = len(scores)
        rows[(fields[0], fields[1])] = scores
    if not rows:
        raise FormatError("%s: empty table" % path)
    return rows


def write_table(rows, path):
    write_headed(path, {}, ("%s ||| %s ||| %s" % (*key, " ".join(map(repr, rows[key])))
                            for key in sorted(rows)))


def write_weighted_corpus(wc, path, replicate=False):
    """Emit a weighted corpus as TSV (weight column) or by integer replication."""

    def rows():
        for entry in wc.entries:
            if replicate:
                yield from repeat(entry.item.text, max(1, round(entry.weight)))
            else:
                yield "%r\t%s\t%s" % (entry.weight, ",".join(entry.provenance), entry.item.text)

    write_headed(path, {}, rows())


def combine_advanced_lm(per_source_sets, dev_corpus, order=4,
                        smoothing="modified-kneser-ney"):
    """Train one LM per selection source set and interpolate them by EM.

    Every component is trained on the union vocabulary of the source sets,
    so EM mixes distributions over one event set."""
    if not per_source_sets:
        raise ToolkitError("need at least one source set")
    from . import lm

    vocab = lm.Vocabulary.from_corpus(chain.from_iterable(per_source_sets))
    models = [lm.train(c, order=order, smoothing=smoothing, vocab=vocab)
              for c in per_source_sets]
    return lm.interpolate(models, dev_corpus)
