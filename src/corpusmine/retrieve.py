"""Cross-language document retrieval over comparable collections.

TF-IDF query generation from a (pre-translated) source document, classic
coord/tf/idf/norm retrieval scoring, a relative length filter around the
source length, and micro-averaged P/R/F1 evaluation.
"""

import heapq
import math
import sys
from bisect import bisect_left, bisect_right
from collections import Counter

from .corpus import read_documents
from .errors import FormatError, ToolkitError, read_lines, records, write_headed


class Document:
    def __init__(self, id, tokens):
        self.id = id
        self.tokens = tokens
        if len(self.tokens) < 1:
            raise FormatError("document %r is empty" % self.id)

    def __len__(self):
        return len(self.tokens)


class DocumentIndex:
    """Postings over length ranks, and no document text.  Rank r is the r-th
    document by length (a stable sort): by_length[r] is its id, sorted_lengths[r]
    its length and norms[r] 1 / sqrt(length).  postings[term] is (ranks, counts),
    the ascending ranks of the documents holding term (its document frequency is
    len(ranks)) and its count in each."""

    def __init__(self, documents):
        docs = sorted(documents, key=len)
        if not docs:
            raise ToolkitError("cannot index an empty collection")
        self.by_length = [d.id for d in docs]
        if len(set(self.by_length)) != len(docs):
            raise FormatError("duplicate document ids in collection")
        self.n_docs = len(docs)
        self.sorted_lengths = [len(d) for d in docs]
        self.norms = [1.0 / math.sqrt(n) for n in self.sorted_lengths]
        self.postings = {}
        for rank, d in enumerate(docs):
            for term, f in Counter(d.tokens).items():
                ranks, counts = self.postings.setdefault(term, ([], []))
                ranks.append(rank)
                counts.append(f)


class LengthFilterParams:
    def __init__(self, delta, multiplier=4.0):
        self.delta = delta
        self.multiplier = multiplier
        if not self.delta >= 0:  # nan too, which would make the window's ends nan
            raise ToolkitError("delta must be >= 0")
        if not self.multiplier >= 0:
            raise ToolkitError("multiplier must be >= 0")


def estimate_delta(parallel_corpus):
    """Mean relative length deviation |l_t - l_s| / l_s over a parallel corpus."""
    pairs = list(parallel_corpus.pairs)
    if not pairs:
        raise ToolkitError("cannot estimate delta from an empty corpus")
    return sum(
        abs(len(p.target) - len(p.source)) / len(p.source) for p in pairs
    ) / len(pairs)


def generate_query(doc, lambda_percent, index, stopwords=frozenset()):
    """The top ceil(lambda_percent * len(doc)) (term, weight) pairs by tf-idf
    weight f(w,d) * log(|D| / f(w,D)), heaviest first; f(w,D) is the length of
    w's postings.  A term absent from the index has idf factor 1, so its weight
    is its count.  Stopwords are removed before ranking; numbers are kept."""
    if not 0 < lambda_percent <= 1:
        raise ToolkitError("lambda must be in (0, 1]")
    counts = Counter(t for t in doc.tokens if t not in stopwords)
    weighted = []
    for term, f in counts.items():
        ranks, _ = index.postings.get(term, ((), ()))
        weight = f * math.log(index.n_docs / len(ranks)) if ranks else float(f)
        weighted.append((term, weight))
    weighted.sort(key=lambda tw: (-tw[1], tw[0]))
    size = max(1, math.ceil(lambda_percent * len(doc)))
    return weighted[:size]


def _accumulate_scores(query, window, index):
    """({rank: score} for the ranks in window, a range, that hold a term of
    query, a (term, weight) list; postings visited).  A score is coord *
    sum of tf * idf * norm over the matched terms: tf = sqrt(count), idf =
    1 + ln(|D| / (df + 1)), norm = 1 / sqrt(|d|), coord = matched / |query|.
    Each sum adds in query order from 0.0, so scores are bit-identical
    however many documents are scored at once."""
    totals = {}
    matched = {}
    for term, _ in query:
        ranks, counts = index.postings.get(term, ((), ()))
        idf = 1.0 + math.log(index.n_docs / (len(ranks) + 1.0))
        lo = bisect_left(ranks, window.start)
        hi = bisect_left(ranks, window.stop, lo)
        for r, f in zip(ranks[lo:hi], counts[lo:hi]):
            totals[r] = totals.get(r, 0.0) + math.sqrt(f) * idf * index.norms[r]
            matched[r] = matched.get(r, 0) + 1
    scores = {r: (matched[r] / len(query)) * total for r, total in totals.items()}
    return scores, sum(matched.values())


def length_filter_candidates(source_len, index, params):
    """The range of ranks whose length falls in source_len * (1 +/- multiplier*delta)."""
    if source_len < 1:
        raise ToolkitError("source length must be >= 1")
    spread = params.multiplier * params.delta
    lo = source_len * (1.0 - spread)
    hi = source_len * (1.0 + spread)
    lengths = index.sorted_lengths  # int against float compares exactly
    return range(bisect_left(lengths, lo), bisect_right(lengths, hi))


def retrieve(source_doc, index, lambda_percent, n_best, params=None,
             stopwords=frozenset(), stats=None):
    """Rank candidate documents for one source document.

    Pipeline: optional length filter, query generation, scoring over the
    surviving candidates, top n_best by score (ties by document id).  A
    ``stats`` Counter gets the postings visited added to "postings" and
    |query terms| x |candidates| added to "postings_base"."""
    if n_best < 1:
        raise ToolkitError("n_best must be >= 1")
    if params is not None:
        candidates = length_filter_candidates(len(source_doc), index, params)
    else:
        candidates = range(index.n_docs)
    query = generate_query(source_doc, lambda_percent, index, stopwords)
    scores, visited = _accumulate_scores(query, candidates, index)
    if stats is not None:
        stats["postings"] += visited
        stats["postings_base"] += len(query) * len(candidates)
    top = heapq.nsmallest(n_best, ((-s, index.by_length[r]) for r, s in scores.items()))
    hits = [(d, -neg) for neg, d in top]
    if len(hits) < n_best:
        zeros = (index.by_length[r] for r in candidates if r not in scores)
        hits += [(d, 0.0) for d in heapq.nsmallest(n_best - len(hits), zeros)]
    return hits


def evaluate_retrieval(results, gold):
    """Micro-averaged precision/recall/F1 over all queries.

    results: source id -> ranked target ids; gold: source id -> set of
    relevant target ids."""
    retrieved = 0
    relevant = 0
    hits = 0
    for src, targets in gold.items():
        got = results.get(src, [])
        retrieved += len(got)
        relevant += len(targets)
        hits += sum(1 for t in got if t in targets)
    p = hits / retrieved if retrieved else 0.0
    r = hits / relevant if relevant else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


# --- collection and result files ----------------------------------------------


def load_collection(path):
    """Load documents from a TSV of `doc_id<TAB>text` or a directory of
    UTF-8 token files (file name = document id)."""
    docs = []
    for doc_id, lines, where in read_documents(path):
        tokens = tuple(sys.intern(word) for _, line in lines for word in line.split())
        if not tokens:
            raise FormatError("%s: document %r is empty" % (where, doc_id))
        docs.append(Document(doc_id, tokens))
    return docs


def load_stopwords(path):
    return frozenset(line.strip() for _, line in read_lines(path) if line.strip())


def load_gold(path):
    gold = {}
    for lineno, (src, tgt) in records(path, "\t", 2, "source_id<TAB>target_id"):
        if not src.strip() or not tgt.strip():
            raise FormatError("%s line %d: empty source or target id" % (path, lineno))
        gold.setdefault(src, set()).add(tgt)
    return gold


def result_rows(results):
    """`source<TAB>rank<TAB>doc_id<TAB>score` per hit, sources in sorted order."""
    return (
        "%s\t%d\t%s\t%s" % (src, rank, doc_id, repr(score))
        for src in sorted(results)
        for rank, (doc_id, score) in enumerate(results[src], 1)
    )


def write_results(results, path):
    write_headed(path, {}, result_rows(results))
