"""Hybrid combination of selection outputs.

Corpus-level weighted union of selections, rank-order round-robin merge,
linear interpolation of probability tables, and linear interpolation of LMs
trained per selection source.
"""

from dataclasses import dataclass
from itertools import chain, zip_longest

from .errors import FormatError, ToolkitError, finite, parse_field, read_lines, write_text


@dataclass
class WeightedEntry:
    item: object
    weight: float
    provenance: tuple


@dataclass
class WeightedCorpus:
    entries: list


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


@dataclass
class ProbTable:
    """Phrase-pair score table: (source, target) -> fixed-arity score vector."""

    rows: dict
    arity: int

    def __post_init__(self):
        for key, scores in self.rows.items():
            if len(scores) != self.arity:
                raise FormatError("row %r has arity %d, expected %d"
                                  % (key, len(scores), self.arity))
            if any(s < 0 for s in scores):
                raise FormatError("row %r has a negative score" % (key,))


def interpolate_tables(tables, weights):
    """Weighted sum of tables over the union of keys; missing rows count 0.

    Weights must be non-negative and are normalized to sum to 1."""
    if not tables:
        raise ToolkitError("need at least one table")
    arity = tables[0].arity
    if any(t.arity != arity for t in tables):
        raise FormatError("tables have mismatched score arity")
    if len(weights) != len(tables):
        raise ToolkitError("weight count does not match table count")
    if any(w < 0 for w in weights):
        raise ToolkitError("table weights must be non-negative")
    total = float(sum(weights))
    if total <= 0:
        raise ToolkitError("weights must have positive sum")
    weights = [w / total for w in weights]
    keys = set()
    for t in tables:
        keys.update(t.rows)
    rows = {}
    for key in keys:
        acc = [0.0] * arity
        for t, w in zip(tables, weights):
            scores = t.rows.get(key)
            if scores is not None:
                for i, s in enumerate(scores):
                    acc[i] += w * s
        rows[key] = tuple(acc)
    return ProbTable(rows, arity)


def read_table(path):
    rows = {}
    arity = None
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        fields = line.split(" ||| ")
        if len(fields) != 3:
            raise FormatError("%s line %d: expected 'src ||| tgt ||| scores'"
                              % (path, lineno))
        scores = tuple(parse_field(finite, s, "score", path, lineno) for s in fields[2].split())
        if arity is None:
            arity = len(scores)
        elif len(scores) != arity:
            raise FormatError("%s line %d: arity mismatch" % (path, lineno))
        rows[(fields[0], fields[1])] = scores
    if arity is None:
        raise FormatError("%s: empty table" % path)
    return ProbTable(rows, arity)


def write_table(table, path):
    lines = [
        "%s ||| %s ||| %s" % (src, tgt, " ".join(repr(s) for s in table.rows[(src, tgt)]))
        for src, tgt in sorted(table.rows)
    ]
    write_text(path, "\n".join(lines) + "\n")


def write_weighted_corpus(wc, path, replicate=False):
    """Emit a weighted corpus as TSV (weight column) or by integer replication."""
    lines = []
    for entry in wc.entries:
        if hasattr(entry.item, "source"):
            text = entry.item.source.text + "\t" + entry.item.target.text
        else:
            text = entry.item.text
        if replicate:
            lines.extend([text] * max(1, round(entry.weight)))
        else:
            lines.append("%s\t%s\t%s" % (repr(entry.weight), ",".join(entry.provenance), text))
    write_text(path, "\n".join(lines) + "\n")


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
