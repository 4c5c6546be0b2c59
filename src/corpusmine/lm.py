"""n-gram language models: training, scoring, perplexity and EM interpolation.

Events are the words of a sentence plus one end-of-sentence symbol; histories
are padded with the begin-of-sentence symbol, which is never itself predicted.
Cross-entropies are reported in bits (base 2).
"""

import logging
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import words_of
from .errors import FormatError, ToolkitError, parse_field, read_text

logger = logging.getLogger("corpusmine.lm")

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
_RESERVED = (BOS, EOS, UNK)
_BOS_ID, _EOS_ID, _UNK_ID = 0, 1, 2

# Probability floor returned for events the model assigns no mass to
# (only reachable under MLE smoothing).
UNK_FLOOR = 1e-10

SMOOTHING_MODES = ("mle", "witten-bell", "modified-kneser-ney")
_SMOOTHING_ALIASES = {"wb": "witten-bell", "mkn": "modified-kneser-ney", "kn": "modified-kneser-ney"}


class Vocabulary:
    """Word types plus the reserved symbols, with stable integer ids."""

    def __init__(self, words=()):
        self._symbols = list(_RESERVED)
        self._ids = {s: i for i, s in enumerate(self._symbols)}
        for w in words:
            self.add(w)

    def add(self, word):
        if word not in self._ids:
            if not word:
                raise FormatError("empty word type")
            self._ids[word] = len(self._symbols)
            self._symbols.append(word)

    def id(self, word):
        return self._ids.get(word, _UNK_ID)

    def symbol(self, i):
        return self._symbols[i]

    def __contains__(self, word):
        return word in self._ids

    def __len__(self):
        return len(self._symbols)

    def event_ids(self):
        """All predictable symbols: every type plus EOS and UNK, never BOS."""
        return range(1, len(self._symbols))

    def event_symbols(self):
        return self._symbols[1:]

    @classmethod
    def from_corpus(cls, corpus):
        vocab = cls()
        for words in map(words_of, corpus):
            for w in words:
                if w in _RESERVED:
                    raise FormatError("corpus contains reserved symbol %r" % w)
                vocab.add(w)
        return vocab


def _ngram_rows(corpus, order, vocab):
    """Per-order n-gram counts grouped by context: list index n - 1 holds
    {context ids: {word id: count}} for order n.

    Contexts and the words in each row keep their first-occurrence order in
    the corpus; the estimators' float sums run in that order."""
    levels = [{} for _ in range(order)]
    for words in map(words_of, corpus):
        seq = [_BOS_ID] * (order - 1) + [vocab.id(w) for w in words] + [_EOS_ID]
        for i in range(order - 1, len(seq)):
            w = seq[i]
            for n, rows in enumerate(levels):  # n: context length
                row = rows.setdefault(tuple(seq[i - n : i]), {})
                row[w] = row.get(w, 0) + 1
    if not levels[0]:
        raise ToolkitError("cannot train a model on an empty corpus")
    return levels


class NGramModel:
    """Smoothed conditional n-gram model in backoff form.

    Stored probabilities are conditional on observed contexts; querying an
    unobserved word multiplies the context's backoff weight into the next
    shorter context's probability.
    """

    def __init__(self, order, smoothing, vocab, probs, bow, log10probs=None):
        self.order = order
        self.smoothing = smoothing
        self.vocab = vocab
        self._probs = probs
        self._bow = bow
        self._log10probs = log10probs

    def prob(self, word, history=()):
        """Conditional probability of one event given its history (strings):
        the last order-1 history words, padded on the left with BOS."""
        m = self.order - 1
        ctx = [self.vocab.id(h) for h in history][-m:] if m else []
        return self.conditional_ids(self.vocab.id(word), [_BOS_ID] * (m - len(ctx)) + ctx)

    def event_probs(self, words):
        """prob(w, h) of each event of a sentence (its words, then EOS).

        The sentence is encoded once and an (order-1)-id window slides over
        it, so the values equal prob() over sentence_events()."""
        m = self.order - 1
        seq = [_BOS_ID] * m + [self.vocab.id(w) for w in words] + [_EOS_ID]
        return [self.conditional_ids(seq[i], seq[i - m : i]) for i in range(m, len(seq))]

    def conditional_ids(self, word_id, ctx):
        """Backoff conditional for an exact context (no padding or trimming)."""
        ctx = tuple(ctx)
        factor = 1.0
        while True:
            row = self._probs.get(ctx)
            if row is not None:
                p = row.get(word_id)
                if p is not None:
                    val = factor * p
                    return val if val > 0.0 else UNK_FLOOR
                factor *= self._bow.get(ctx, 0.0)
            if not ctx:
                return UNK_FLOOR
            ctx = ctx[1:]

    def stored_contexts(self):
        return list(self._probs.keys())

    def context_history(self, ctx):
        """Render a stored context's ids back to symbol strings."""
        return [self.vocab.symbol(i) for i in ctx]


def _estimate_discounts(rows):
    """Modified Kneser-Ney discounts D1/D2/D3+ from the counts-of-counts of
    one order's rows.

    Returns None when the counts-of-counts degenerate (n1 or n2 empty)."""
    coc = Counter(c for row in rows.values() for c in row.values())
    n1, n2, n3, n4 = coc[1], coc[2], coc[3], coc[4]
    if n1 == 0 or n2 == 0:
        return None
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * (n2 / n1)
    d2 = 2.0 - 3.0 * y * (n3 / n2)
    d3 = 3.0 - 4.0 * y * (n4 / n3) if n3 > 0 else d2
    return (max(d1, 0.0), max(d2, 0.0), max(d3, 0.0))


def _continuation_rows(rows, longer):
    """Modified Kneser-Ney counts for an order below the top: an n-gram
    counts the distinct (n+1)-grams it is the suffix of.  Histories starting
    with BOS never occur as suffixes and keep their raw counts."""
    preceded = {}
    for ctx, row in longer.items():
        tally = preceded.setdefault(ctx[1:], {})
        for w in row:
            tally[w] = tally.get(w, 0) + 1
    out = {}
    for ctx, row in rows.items():
        tally = preceded[ctx]
        out[ctx] = row if ctx[:1] == (_BOS_ID,) else {w: tally[w] for w in row}
    return out


def _build_level(rows, discounts, probs, bow, n_events):
    """Interpolated estimates for one order, p(w|h) = num/denom + gamma * p(w|h[1:]),
    where p = 1/n_events below the unigrams, which span every event.

    Witten-Bell (discounts None): num = c, denom = total + T, gamma = T/denom, for
    the T distinct words after h.  Modified Kneser-Ney: num = max(c - D_c, 0),
    denom = total, gamma = (total - sum(num))/total.  Above the unigrams a row
    holds its seen words and gamma is stored as the backoff weight."""
    for ctx, row in rows.items():
        total = sum(row.values())
        if discounts is None:
            num = row
            denom = total + len(row)
            gamma = len(row) / denom
        else:
            d1, d2, d3 = discounts
            num = {
                w: max(c - (d1 if c == 1 else d2 if c == 2 else d3), 0.0)
                for w, c in row.items()
            }
            denom = total
            gamma = (total - sum(num.values())) / total
        if ctx:
            lower = probs[ctx[1:]]
            bow[ctx] = gamma
        else:
            lower = dict.fromkeys(range(1, n_events + 1), 1.0 / n_events)
            num = {w: num.get(w, 0) for w in lower}
        probs[ctx] = {w: x / denom + gamma * lower[w] for w, x in num.items()}


def train(corpus, order=4, smoothing="modified-kneser-ney", vocab=None):
    """Train an n-gram model.

    smoothing: 'mle', 'witten-bell' or 'modified-kneser-ney'.  When a shared
    vocabulary is supplied, out-of-vocabulary training words map to the UNK
    symbol.  MLE assigns unseen events a floor of 1e-10 at query time (no
    renormalization, so stored probabilities stay exact count ratios).
    """
    smoothing = _SMOOTHING_ALIASES.get(smoothing, smoothing)
    if smoothing not in SMOOTHING_MODES:
        raise ToolkitError("unknown smoothing mode %r" % smoothing)
    if order < 1:
        raise ToolkitError("order must be >= 1")
    if vocab is None:
        vocab = Vocabulary.from_corpus(corpus)
    levels = _ngram_rows(corpus, order, vocab)
    probs = {}
    bow = {}
    if smoothing == "mle":  # exact count ratios of seen words, no backoff weights
        for rows in levels:
            for ctx, row in rows.items():
                total = sum(row.values())
                probs[ctx] = {w: c / total for w, c in row.items()}
        return NGramModel(order, smoothing, vocab, probs, bow)

    for n, rows in enumerate(levels, 1):
        discounts = None
        if smoothing == "modified-kneser-ney":
            if n < order:
                rows = _continuation_rows(rows, levels[n])
            discounts = _estimate_discounts(rows)
            if discounts is None:
                logger.warning(
                    "modified Kneser-Ney counts-of-counts degenerate at order %d; "
                    "falling back to Witten-Bell for that order",
                    n,
                )
        _build_level(rows, discounts, probs, bow, len(vocab) - 1)  # every symbol but BOS
    return NGramModel(order, smoothing, vocab, probs, bow)


def sentence_events(sentence):
    """Yield (word, history) for each scored event of a sentence."""
    hist = []
    for w in words_of(sentence):
        yield w, tuple(hist)
        hist.append(w)
    yield EOS, tuple(hist)


def cross_entropy(model, corpus):
    """Bits per event over word+EOS events of the corpus."""
    total = 0.0
    n = 0
    for words in map(words_of, corpus):
        for p in model.event_probs(words):
            total += math.log2(p)
            n += 1
    if n == 0:
        raise ToolkitError("cannot compute cross-entropy of an empty corpus")
    return -total / n


def perplexity(model, corpus):
    return 2.0 ** cross_entropy(model, corpus)


@dataclass
class MixtureModel:
    """Linear interpolation of n-gram models at the event level."""

    components: list
    weights: list
    dev_loglik_history: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.components) < 1:
            raise ToolkitError("mixture needs at least one component")
        if len(self.weights) != len(self.components):
            raise ToolkitError("weight count does not match component count")
        if any(w < 0 for w in self.weights):
            raise ToolkitError("mixture weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ToolkitError("mixture weights must sum to 1")

    @property
    def order(self):
        return max(c.order for c in self.components)

    def prob(self, word, history=()):
        return sum(
            w * c.prob(word, history) for w, c in zip(self.weights, self.components)
        )

    def event_probs(self, words):
        """The mixture's prob(w, h) of each event of a sentence."""
        columns = zip(*(c.event_probs(words) for c in self.components))
        return [sum(w * p for w, p in zip(self.weights, probs)) for probs in columns]


def interpolate(models, dev_corpus, tol=1e-6, max_iter=100):
    """Fit mixture weights by EM to maximize dev-corpus likelihood.

    Starts from uniform weights; stops when the relative change of the dev
    log-likelihood drops below tol or after max_iter iterations.
    """
    import numpy as np

    if not models:
        raise ToolkitError("need at least one model to interpolate")
    sentences = [words_of(s) for s in dev_corpus]
    if not sentences:
        raise ToolkitError("dev corpus is empty")
    columns = [[p for words in sentences for p in m.event_probs(words)] for m in models]
    p = np.array(list(zip(*columns)), dtype=float)
    k = len(models)
    weights = np.full(k, 1.0 / k)
    history = []
    prev = None
    for _ in range(max_iter):
        mix = p @ weights
        ll = float(np.log(mix).sum())
        history.append(ll)
        if prev is not None and abs(ll - prev) <= tol * abs(prev):
            break
        prev = ll
        posterior = p * weights / mix[:, None]
        weights = posterior.mean(axis=0)
        weights = weights / weights.sum()
    return MixtureModel(list(models), [float(w) for w in weights], history)


# --- textual model exchange format -------------------------------------------
#
# Header with per-order n-gram counts, then one line per n-gram:
#   log10prob<TAB>ngram[<TAB>backoff]
# Backoff weights are written as linear values.  Lines whose probability
# field is -99 carry only a backoff weight (history-only entries).

_BOW_ONLY = "-99"


def write_model(model, path):
    entries = [defaultdict(lambda: [None, None]) for _ in range(model.order + 1)]
    for ctx, row in model._probs.items():
        # a model read from a file writes back the log10 values it was read with
        logs = model._log10probs[ctx] if model._log10probs else {
            w: math.log10(p) for w, p in row.items()}
        for w, lp in logs.items():
            entries[len(ctx) + 1][ctx + (w,)][0] = lp
    for ctx, b in model._bow.items():  # contexts of one or more words
        entries[len(ctx)][ctx][1] = b
    lines = ["\\smoothing: %s" % model.smoothing, "", "\\data\\"]
    for n in range(1, model.order + 1):
        lines.append("ngram %d=%d" % (n, len(entries[n])))
    for n in range(1, model.order + 1):
        lines.append("")
        lines.append("\\%d-grams:" % n)
        keyed = sorted(
            entries[n].items(),
            key=lambda kv: tuple(model.vocab.symbol(i) for i in kv[0]),
        )
        for g, (lp, b) in keyed:
            text = " ".join(model.vocab.symbol(i) for i in g)
            fields = [_BOW_ONLY if lp is None else repr(lp), text]
            if b is not None:
                fields.append(repr(b))
            lines.append("\t".join(fields))
    lines += ["", "\\end\\", ""]
    Path(path).write_text("\n".join(lines), encoding="utf-8", newline="\n")


def _log10_prob(text):
    """An ARPA log10 probability field whose power of ten is a float."""
    lp = float(text)
    if lp > 0.0:
        10.0 ** lp  # raises OverflowError past the float range
    return lp


def read_model(path):
    lines = read_text(path).split("\n")
    smoothing = "unknown"
    sizes = {}
    i = 0
    while i < len(lines) and lines[i] != "\\data\\":
        if lines[i].startswith("\\smoothing:"):
            smoothing = lines[i].split(":", 1)[1].strip()
        i += 1
    if i == len(lines):
        raise FormatError("%s: missing \\data\\ header" % path)
    i += 1
    while i < len(lines) and lines[i].startswith("ngram "):
        n, _, size = lines[i][len("ngram ") :].partition("=")
        n = parse_field(int, n, "n-gram order", path, i + 1)
        sizes[n] = parse_field(int, size, "n-gram count", path, i + 1)
        i += 1
    order = max(sizes) if sizes else 0
    if order < 1:
        raise FormatError("%s: no n-gram sections declared" % path)
    # the 1-grams come first, so every later symbol resolves as it is read
    vocab = Vocabulary()
    probs = {}
    bow = {}
    log10probs = {}
    current_n = 0
    for lineno, line in enumerate(lines[i:], i + 1):
        if not line or line == "\\end\\":
            continue
        if line.endswith("-grams:") and line.startswith("\\"):
            n = parse_field(int, line[1:].split("-")[0], "section order", path, lineno)
            if n != current_n + 1:
                raise FormatError("%s line %d: section %s out of order" % (path, lineno, line))
            current_n = n
            continue
        fields = line.split("\t")
        if not current_n or len(fields) < 2:
            raise FormatError("%s line %d: unexpected line %r" % (path, lineno, line))
        symbols = fields[1].split(" ")
        if len(symbols) != current_n:
            raise FormatError("%s line %d: arity mismatch in %r" % (path, lineno, line))
        lp = None if fields[0] == _BOW_ONLY else parse_field(
            _log10_prob, fields[0], "probability", path, lineno)
        b = parse_field(float, fields[2], "backoff", path, lineno) if len(fields) > 2 else None
        if current_n == 1 and symbols[0] not in _RESERVED:
            if not symbols[0]:
                raise FormatError("%s line %d: empty word type" % (path, lineno))
            vocab.add(symbols[0])
        g = tuple(map(vocab.id, symbols))
        if lp is not None:
            probs.setdefault(g[:-1], {})[g[-1]] = 10.0 ** lp
            log10probs.setdefault(g[:-1], {})[g[-1]] = lp
        if b is not None:
            bow[g] = b
    return NGramModel(order, smoothing, vocab, probs, bow, log10probs=log10probs)
