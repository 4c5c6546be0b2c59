"""n-gram language models: training, scoring, perplexity and EM interpolation.

Events are the words of a sentence plus one end-of-sentence symbol; histories
are padded with the begin-of-sentence symbol, which is never itself predicted.
Cross-entropies are reported in bits (base 2).
"""

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import words_of
from .errors import FormatError, ToolkitError, parse_field

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


def _ngram_counts(corpus, order, vocab):
    counts = [None] + [defaultdict(int) for _ in range(order)]
    n_sentences = 0
    for words in map(words_of, corpus):
        n_sentences += 1
        seq = [_BOS_ID] * (order - 1) + [vocab.id(w) for w in words] + [_EOS_ID]
        for i in range(order - 1, len(seq)):
            for n in range(1, order + 1):
                counts[n][tuple(seq[i - n + 1 : i + 1])] += 1
    if n_sentences == 0:
        raise ToolkitError("cannot train a model on an empty corpus")
    return counts


def _group_by_context(table):
    rows = defaultdict(dict)
    for g, c in table.items():
        rows[g[:-1]][g[-1]] = c
    return rows


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
        """Conditional probability of one event given its history (strings)."""
        wid = self.vocab.id(word)
        ctx = [self.vocab.id(h) for h in history]
        return self.prob_ids(wid, ctx)

    def event_probs(self, words):
        """prob(w, h) of each event of a sentence (its words, then EOS).

        The sentence is encoded once and an (order-1)-id window slides over
        it, so the values equal prob() over sentence_events()."""
        m = self.order - 1
        seq = [_BOS_ID] * m + [self.vocab.id(w) for w in words] + [_EOS_ID]
        return [self.conditional_ids(seq[i], seq[i - m : i]) for i in range(m, len(seq))]

    def prob_ids(self, word_id, ctx_ids):
        if self.order > 1:
            ctx = tuple(ctx_ids[-(self.order - 1) :])
            if len(ctx) < self.order - 1:
                ctx = (_BOS_ID,) * (self.order - 1 - len(ctx)) + ctx
        else:
            ctx = ()
        return self.conditional_ids(word_id, ctx)

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


def _estimate_discounts(values):
    """Modified Kneser-Ney discounts D1/D2/D3+ from counts-of-counts.

    Returns None when the counts-of-counts degenerate (n1 or n2 empty)."""
    coc = defaultdict(int)
    for c in values:
        if c <= 4:
            coc[c] += 1
    n1, n2, n3, n4 = coc[1], coc[2], coc[3], coc[4]
    if n1 == 0 or n2 == 0:
        return None
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * (n2 / n1)
    d2 = 2.0 - 3.0 * y * (n3 / n2)
    d3 = 3.0 - 4.0 * y * (n4 / n3) if n3 > 0 else d2
    return (max(d1, 0.0), max(d2, 0.0), max(d3, 0.0))


def _lower_prob(probs, ctx, w, n_events):
    if ctx is None:  # below the unigram level: uniform over events
        return 1.0 / n_events
    return probs[ctx][w]


def _build_level_wb(rows, probs, bow, level, n_events):
    """Witten-Bell interpolated estimates for one n-gram order."""
    for ctx, row in rows.items():
        total = sum(row.values())
        t = len(row)
        gamma = t / (total + t)
        lower_ctx = ctx[1:] if ctx else None
        if level == 1:
            out = {}
            for w in range(1, n_events + 1):
                c = row.get(w, 0)
                out[w] = c / (total + t) + gamma * (1.0 / n_events)
            probs[ctx] = out
        else:
            probs[ctx] = {
                w: c / (total + t) + gamma * _lower_prob(probs, lower_ctx, w, n_events)
                for w, c in row.items()
            }
            bow[ctx] = gamma


def _build_level_discounted(rows, discounts, probs, bow, level, n_events):
    d1, d2, d3 = discounts
    for ctx, row in rows.items():
        total = sum(row.values())
        disc = {
            w: max(c - (d1 if c == 1 else d2 if c == 2 else d3), 0.0)
            for w, c in row.items()
        }
        gamma = (total - sum(disc.values())) / total
        lower_ctx = ctx[1:] if ctx else None
        if level == 1:
            out = {}
            for w in range(1, n_events + 1):
                out[w] = disc.get(w, 0.0) / total + gamma * (1.0 / n_events)
            probs[ctx] = out
        else:
            probs[ctx] = {
                w: disc[w] / total
                + gamma * _lower_prob(probs, lower_ctx, w, n_events)
                for w in row
            }
            bow[ctx] = gamma


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
    counts = _ngram_counts(corpus, order, vocab)
    n_events = len(vocab) - 1  # everything but BOS

    probs = {}
    bow = {}
    if smoothing == "mle":
        for n in range(1, order + 1):
            for ctx, row in _group_by_context(counts[n]).items():
                total = sum(row.values())
                probs[ctx] = {w: c / total for w, c in row.items()}
        return NGramModel(order, smoothing, vocab, probs, bow)

    if smoothing == "witten-bell":
        for n in range(1, order + 1):
            _build_level_wb(_group_by_context(counts[n]), probs, bow, n, n_events)
        return NGramModel(order, smoothing, vocab, probs, bow)

    # modified Kneser-Ney: raw counts at the top order, continuation counts
    # below (except for histories starting with BOS, which can never occur
    # as continuations and keep their raw counts).
    adjusted = [None] + [dict() for _ in range(order)]
    adjusted[order] = dict(counts[order])
    for n in range(1, order):
        continuation = defaultdict(set)
        for g in counts[n + 1]:
            continuation[g[1:]].add(g[0])
        for g, c in counts[n].items():
            if g[0] == _BOS_ID:
                adjusted[n][g] = c
            else:
                adjusted[n][g] = len(continuation[g])
    for n in range(1, order + 1):
        rows = _group_by_context(adjusted[n])
        discounts = _estimate_discounts(adjusted[n].values())
        if discounts is None:
            logger.warning(
                "modified Kneser-Ney counts-of-counts degenerate at order %d; "
                "falling back to Witten-Bell for that order",
                n,
            )
            _build_level_wb(rows, probs, bow, n, n_events)
        else:
            _build_level_discounted(rows, discounts, probs, bow, n, n_events)
    return NGramModel(order, smoothing, vocab, probs, bow)


def sentence_events(sentence):
    """Yield (word, history) for each scored event of a sentence."""
    hist = []
    for w in words_of(sentence):
        yield w, tuple(hist)
        hist.append(w)
    yield EOS, tuple(hist)


def log_prob(model, sentence):
    """Base-2 log probability of a sentence (word events plus EOS)."""
    return sum(math.log2(p) for p in model.event_probs(words_of(sentence)))


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


def _log10_table(model):
    if model._log10probs is None:
        model._log10probs = {
            ctx: {w: math.log10(p) for w, p in row.items()}
            for ctx, row in model._probs.items()
        }
    return model._log10probs


def write_model(model, path):
    log10 = _log10_table(model)
    entries = [defaultdict(lambda: [None, None]) for _ in range(model.order + 1)]
    for ctx, row in log10.items():
        n = len(ctx) + 1
        for w, lp in row.items():
            entries[n][ctx + (w,)][0] = lp
    for ctx, b in model._bow.items():
        if len(ctx) >= 1:
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
    lines = Path(path).read_text(encoding="utf-8").split("\n")
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
    vocab = Vocabulary()
    raw = []  # (ids not yet resolvable) collect as symbol tuples first
    current_n = None
    for lineno, line in enumerate(lines[i:], i + 1):
        if not line or line == "\\end\\":
            continue
        if line.endswith("-grams:") and line.startswith("\\"):
            current_n = parse_field(int, line[1:].split("-")[0], "section order", path, lineno)
            continue
        fields = line.split("\t")
        if current_n is None or len(fields) < 2:
            raise FormatError("%s line %d: unexpected line %r" % (path, lineno, line))
        symbols = tuple(fields[1].split(" "))
        if len(symbols) != current_n:
            raise FormatError("%s line %d: arity mismatch in %r" % (path, lineno, line))
        lp = None if fields[0] == _BOW_ONLY else parse_field(
            _log10_prob, fields[0], "probability", path, lineno)
        b = parse_field(float, fields[2], "backoff", path, lineno) if len(fields) > 2 else None
        raw.append((symbols, lp, b))
        if current_n == 1 and symbols[0] not in _RESERVED:
            vocab.add(symbols[0])
    probs = {}
    bow = {}
    log10probs = {}
    for symbols, lp, b in raw:
        g = tuple(vocab.id(s) for s in symbols)
        if lp is not None:
            probs.setdefault(g[:-1], {})[g[-1]] = 10.0 ** lp
            log10probs.setdefault(g[:-1], {})[g[-1]] = lp
        if b is not None:
            bow[g] = b
    return NGramModel(order, smoothing, vocab, probs, bow, log10probs=log10probs)
