"""Domain filtering of harvested document collections.

Topic-relevance scoring of located documents (term occurrences weighted by
term and location weights), ppl1 perplexity scoring, top-K% document
filtering, and the combined document-then-sentence K/N filter.
"""

import math
from collections import Counter
from pathlib import Path

from .corpus import read_documents
from .errors import FormatError, ToolkitError, finite, parse_field, read_lines
from .select import LOWER, _ranked_indices, top_percent

LOCATIONS = ("title", "headings", "metadata", "body")


class LocationWeights:
    """Per-location weights; defaults are explicit and configurable."""

    def __init__(self, title=10.0, headings=4.0, metadata=2.0, body=1.0):
        self.title = title
        self.headings = headings
        self.metadata = metadata
        self.body = body
        for loc in LOCATIONS:
            if not getattr(self, loc) >= 0:  # nan too
                raise ToolkitError("location weights must be >= 0")

    def get(self, location):
        return getattr(self, location)


class LocatedDocument:
    """Document text split into the four location classes, line by line."""

    def __init__(self, id, sections):
        self.id = id
        self.sections = sections
        for loc in self.sections:
            if loc not in LOCATIONS:
                raise FormatError("unknown location class %r" % loc)
        if not any(self.sections.get(loc) for loc in LOCATIONS):
            raise FormatError("document %r has no content in any location" % self.id)

    def lines(self, location):
        return self.sections.get(location, [])

    def all_lines(self):
        for loc in LOCATIONS:
            for line in self.lines(loc):
                yield line


def count_occurrences(term_tokens, tokens):
    """Occurrences of a contiguous token run; overlapping matches count."""
    k = len(term_tokens)
    term = list(term_tokens)
    return sum(1 for i in range(len(tokens) - k + 1) if tokens[i : i + k] == term)


def topic_relevance(doc, topic, loc_weights=None):
    """Weighted occurrence sum over the location classes and topic's (tokens
    tuple, weight) terms, each entry once.  Each location's token k-grams, for
    the term lengths k in use, are counted once at every start position, so
    overlapping matches count as in count_occurrences."""
    if loc_weights is None:
        loc_weights = LocationWeights()
    lengths = {len(tokens) for tokens, _ in topic}
    score = 0.0
    for loc in LOCATIONS:
        wl = loc_weights.get(loc)
        if wl == 0:
            continue
        grams = Counter()
        for line in doc.lines(loc):
            toks = line.split()
            for k in lengths:
                grams.update(zip(*(toks[j:] for j in range(k))))
        for tokens, weight in topic:
            score += grams[tokens] * weight * wl
    return score


def filter_documents_topk(scored_docs, k):
    """The best floor(k/100 * |docs|) (doc_id, score) pairs by score, ties by id,
    in rank order."""
    return top_percent(k, sorted(scored_docs, key=lambda ds: (-ds[1], ds[0])))


def ppl1(model, sentence, probs=None):
    """Perplexity whose word count excludes the end-of-sentence event.

    10 ** (-log10 P / W) with P over word events plus EOS and W the number
    of words only, len(probs) - 1.  probs: the sentence's event probabilities
    under the model, when a batch has already scored them."""
    from . import lm

    if probs is None:
        (probs,) = next(lm.sentence_probs([model], [sentence]))
    if len(probs) < 2:
        raise ToolkitError("ppl1 of an empty sentence is undefined")
    log10p = sum(math.log10(p) for p in probs)
    return 10.0 ** (-log10p / (len(probs) - 1))


def combined_filter(docs, topic, k, n, in_lm, loc_weights=None):
    """Document-then-sentence filter.

    Keeps the top K% of documents by topic relevance, splits the survivors
    into sentences (lines), ranks them ascending by ppl1 under the in-domain
    LM and keeps the top N%.  Returns (doc_id, sentence) pairs."""
    from . import lm

    top_percent(k, ())  # a bad K or N fails before any page is scored
    top_percent(n, (), "N")
    scored = [(d.id, topic_relevance(d, topic, loc_weights)) for d in docs]
    kept_ids = {doc_id for doc_id, _ in filter_documents_topk(scored, k)}
    sentences = [
        (d.id, line)
        for d in docs
        if d.id in kept_ids
        for line in d.all_lines()
        if line.split()
    ]
    ppls = [ppl1(in_lm, line, probs) for (_, line), (probs,)
            in zip(sentences, lm.sentence_probs([in_lm], (line for _, line in sentences)))]
    return [sentences[i] for i in top_percent(n, _ranked_indices(ppls, LOWER), "N")]


# --- file formats ---------------------------------------------------------------


def load_topic_file(path):
    """(tokens, weight) per line of a TSV `term<TAB>weight<TAB>class`, in file
    order.  A blank weight is the term's token count; the class is required
    but not kept."""
    topic = []
    for lineno, line in read_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError("%s line %d: expected term<TAB>weight<TAB>class"
                              % (path, lineno))
        tokens = tuple(fields[0].split())
        if not tokens:
            raise FormatError("%s line %d: empty term" % (path, lineno))
        weight = (parse_field(finite, fields[1], "weight", path, lineno) if fields[1].strip()
                  else float(len(tokens)))
        topic.append((tokens, weight))
    return topic


def parse_located_document(doc_id, lines, path):
    """(line number, line) pairs of the file at path, sectioned by #title/#headings/
    #metadata/#body markers; lines without markers are treated as all-body."""
    markers = {"#" + loc: loc for loc in LOCATIONS}
    lines = [(lineno, line) for lineno, line in lines if line.strip()]
    current = None if any(line.strip() in markers for _, line in lines) else "body"
    sections = {}
    for lineno, line in lines:
        if line.strip() in markers:
            current = markers[line.strip()]
            sections.setdefault(current, [])
            continue
        if current is None:
            raise FormatError("%s line %d: content before the first section marker"
                              % (path, lineno))
        sections.setdefault(current, []).append(line)
    return LocatedDocument(doc_id, sections)


def load_located_collection(path):
    """Directory of sectioned/plain document files, or a TSV of
    `doc_id<TAB>text` treated as all-body documents."""
    pages = Path(path).is_dir()
    return [parse_located_document(doc_id, lines, where) if pages
            else LocatedDocument(doc_id, {"body": [line for _, line in lines]})
            for doc_id, lines, where in read_documents(path)]
