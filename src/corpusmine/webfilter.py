"""Domain filtering of harvested document collections.

Topic-relevance scoring of located documents (term occurrences weighted by
term and location weights), ppl1 perplexity scoring, top-K% document
filtering, and the combined document-then-sentence K/N filter.
"""

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .corpus import read_documents, words_of
from .errors import FormatError, ToolkitError, finite, parse_field, read_lines
from .select import topk_count

LOCATIONS = ("title", "headings", "metadata", "body")


@dataclass(frozen=True)
class TopicTerm:
    tokens: tuple
    weight: float
    topic_class: str

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise FormatError("topic terms must be non-empty")


@dataclass
class TopicDefinition:
    entries: list


@dataclass
class LocationWeights:
    """Per-location weights; defaults are explicit and configurable."""

    title: float = 10.0
    headings: float = 4.0
    metadata: float = 2.0
    body: float = 1.0

    def __post_init__(self):
        for loc in LOCATIONS:
            if getattr(self, loc) < 0:
                raise ToolkitError("location weights must be >= 0")

    def get(self, location):
        return getattr(self, location)


@dataclass
class LocatedDocument:
    """Document text split into the four location classes, line by line."""

    id: str
    sections: dict

    def __post_init__(self):
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


def default_term_weight(term_tokens):
    """A term's default relevance weight is its length in tokens."""
    if not term_tokens:
        raise ToolkitError("term must be non-empty")
    return float(len(term_tokens))


def count_occurrences(term_tokens, tokens):
    """Occurrences of a contiguous token run; overlapping matches count."""
    k = len(term_tokens)
    term = list(term_tokens)
    return sum(1 for i in range(len(tokens) - k + 1) if tokens[i : i + k] == term)


def topic_relevance(doc, topic, loc_weights=None):
    """Weighted occurrence sum over all topic terms and location classes.  Each
    location's token k-grams, for the term lengths k in use, are counted once at
    every start position, so overlapping matches count as in count_occurrences."""
    if loc_weights is None:
        loc_weights = LocationWeights()
    lengths = {len(entry.tokens) for entry in topic.entries}
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
        for entry in topic.entries:
            score += grams[tuple(entry.tokens)] * entry.weight * wl
    return score


def filter_documents_topk(scored_docs, k):
    """Best floor(k/100 * |docs|) document ids by score, ties by id."""
    if not 0 < k <= 100:
        raise ToolkitError("K must be in (0, 100]")
    ranked = sorted(scored_docs, key=lambda ds: (-ds[1], ds[0]))
    n = topk_count(k, len(ranked))
    return [doc_id for doc_id, _ in ranked[:n]]


def ppl1(model, sentence, probs=None):
    """Perplexity whose word count excludes the end-of-sentence event.

    10 ** (-log10 P / W) with P over word events plus EOS and W the number
    of words only.  probs: the sentence's event probabilities under the
    model, when a batch has already scored them."""
    from . import lm

    words = words_of(sentence)
    if not words:
        raise ToolkitError("ppl1 of an empty sentence is undefined")
    if probs is None:
        (probs,) = next(lm.sentence_probs([model], [words]))
    log10p = sum(math.log10(p) for p in probs)
    return 10.0 ** (-log10p / len(words))


def combined_filter(docs, topic, k, n, in_lm, loc_weights=None):
    """Document-then-sentence filter.

    Keeps the top K% of documents by topic relevance, splits the survivors
    into sentences (lines), ranks them ascending by ppl1 under the in-domain
    LM and keeps the top N%.  Returns (doc_id, sentence) pairs."""
    from . import lm

    if not 0 < n <= 100:
        raise ToolkitError("N must be in (0, 100]")
    scored = [(d.id, topic_relevance(d, topic, loc_weights)) for d in docs]
    kept_ids = set(filter_documents_topk(scored, k))
    sentences = [
        (d.id, line)
        for d in docs
        if d.id in kept_ids
        for line in d.all_lines()
        if line.split()
    ]
    ppls = [ppl1(in_lm, line, probs) for (_, line), (probs,)
            in zip(sentences, lm.sentence_probs([in_lm], (line for _, line in sentences)))]
    ranked = sorted(range(len(sentences)), key=lambda i: (ppls[i], i))
    keep = topk_count(n, len(sentences))
    return [sentences[i] for i in ranked[:keep]]


# --- file formats ---------------------------------------------------------------


def load_topic_file(path):
    """TSV `term<TAB>weight<TAB>class`; a blank weight falls back to the
    term's token count."""
    entries = []
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
                  else default_term_weight(tokens))
        entries.append(TopicTerm(tokens, weight, fields[2]))
    return TopicDefinition(entries)


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
