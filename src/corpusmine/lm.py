"""n-gram language models: training, scoring, perplexity and EM interpolation.

Events are the words of a sentence plus one end-of-sentence symbol; histories
are padded with the begin-of-sentence symbol, which is never itself predicted.
Cross-entropies are reported in bits (base 2).

A model is one sorted table per order, as in KenLM (Heafield 2011): ids a1..ak
have the key rank(a1..a_{k-1}) * |V| + a_k, with the prefix's rank in the
order-(k-1) table.  numpy is imported lazily, by the functions that use it.
"""

import math
from array import array
from collections import namedtuple
from functools import cache, partial
from itertools import accumulate, chain, compress, islice, repeat

from .corpus import encode, words_of
from .errors import (FormatError, ToolkitError, backoff_weight, log10_prob, parse_field,
                     read_lines, write_text)

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
    """Word types plus the reserved symbols: one word -> id dict in id order."""

    def __init__(self):
        self._ids = {s: i for i, s in enumerate(_RESERVED)}

    def id(self, word):
        return self._ids.get(word, _UNK_ID)

    def symbol(self, i):
        return list(self._ids)[i]

    def __contains__(self, word):
        return word in self._ids

    def __len__(self):
        return len(self._ids)

    def event_ids(self):
        """All predictable symbols: every type plus EOS and UNK, never BOS."""
        return range(1, len(self._ids))

    def event_symbols(self):
        return list(self._ids)[1:]

    @classmethod
    def from_corpus(cls, corpus):
        return _encoded(corpus)[0]


def _encoded(sentences, vocab=None):
    """The sentences encoded over the table of `vocab`, each word it lacks as
    UNK, or else over a new vocabulary of their words by first use (see
    corpus.encode); and that vocabulary.  No sentence may hold BOS or EOS, nor
    UNK where the vocabulary is new."""
    import numpy as np

    unk, vocab = (None, Vocabulary()) if vocab is None else (_UNK_ID, vocab)
    ids, ends = encode(sentences, vocab._ids, unk)
    reserved = np.flatnonzero(np.frombuffer(ids, np.intc) < (len(_RESERVED) if unk is None else unk))
    if len(reserved):  # name the first one used
        raise FormatError("corpus contains reserved symbol %r" % _RESERVED[ids[reserved[0]]])
    return vocab, ids, ends


def _events(ids, ends, pad):
    """Encoded sentences, each after `pad` BOS ids and before EOS, and the
    positions of the events."""
    import numpy as np

    ends = np.frombuffer(ends, np.int64)
    shift = np.arange(1, len(ends) + 1) * (pad + 1) - 1  # BOS and EOS ids before sentence k
    seq = np.full(len(ids) + len(ends) * (pad + 1), _BOS_ID, dtype=np.int32)
    seq[np.arange(len(ids)) + np.repeat(shift, np.diff(ends, prepend=0))] = ids
    seq[ends + shift] = _EOS_ID
    return seq, np.flatnonzero(seq != _BOS_ID)  # no event is BOS


# The stored id tuples of one order by ascending key, and a last slot (key
# _ABSENT) where lookups of unstored tuples land: p(a_k | a1..a_{k-1}) and the
# backoff weight, each nan where the tuple has none, and whether some stored
# probability is conditioned on the tuple.
_Table = namedtuple("_Table", "keys prob bow is_context")
_ABSENT = 2 ** 63 - 1


def _tables(size, blocks):
    """Empty tables of orders 0..len(blocks) holding the id tuples of each
    block, blocks[n - 1] an (rows, n) array, and all their prefixes, ranked
    by one sort per order above 1 (order 1 holds every id, ranked by itself);
    and the slot of each row of each block."""
    import numpy as np

    slots = [ids[:, 0].astype(np.int64) for ids in blocks]  # each row's prefix so far
    keys, tables = np.zeros(1, dtype=np.int64), []
    for n in range(len(blocks) + 1):
        if n == 1:
            keys = np.arange(size, dtype=np.int64)
        elif n:  # each row's key, then its rank, searched block by block: no inverse of all
            for j in range(n - 1, len(blocks)):
                slots[j] = slots[j] * size + blocks[j][:, n - 1]
            keys = np.concatenate(slots[n - 1 :])
            keys.sort()
            keys = keys[np.diff(keys, prepend=-1) != 0]
            slots[n - 1 :] = [np.searchsorted(keys, s) for s in slots[n - 1 :]]
        k = len(keys) + 1
        tables.append(_Table(np.append(keys, _ABSENT), np.full(k, np.nan), np.full(k, np.nan),
                             np.zeros(k, bool)))
    return tables, slots


class NGramModel:
    """Smoothed conditional n-gram model in backoff form.

    Stored probabilities are conditional on observed contexts; querying an
    unobserved word multiplies the context's backoff weight into the next
    shorter context's probability.
    """

    def __init__(self, order, smoothing, vocab, tables, log10=None):
        import numpy as np

        self.order = order
        self.smoothing = smoothing
        self.vocab = vocab
        self._tables = tables  # index k: order k; index 0: the empty history
        self._log10 = log10  # per order, the log10 probabilities a model file gave
        for below, t in zip(tables, tables[1:]):
            below.is_context[t.keys[:-1][~np.isnan(t.prob[:-1])] // len(vocab)] = True

    def slice_probs(self, encoded):
        """prob(w, h) of every event of a slice of sentences, in order: each
        sentence's words, then its EOS.  encoded(vocab) is _encoded(slice, vocab)."""
        m = self.order - 1
        return self._score(*_events(*encoded(self.vocab)[1:], m), m).tolist()

    def prob(self, word, history=()):
        """Conditional probability of one event given its history (strings):
        the last order-1 history words, padded on the left with BOS."""
        m = self.order - 1
        ctx = [self.vocab.id(h) for h in history][-m:] if m else []
        return self.conditional_ids(self.vocab.id(word), [_BOS_ID] * (m - len(ctx)) + ctx)

    def conditional_ids(self, word_id, ctx):
        """Backoff conditional for an exact context (no padding); no context
        longer than order - 1 ids is stored."""
        import numpy as np

        ctx = list(ctx)[max(0, len(ctx) - self.order + 1):]
        return float(self._score(np.array(ctx + [word_id]), np.array([len(ctx)]), len(ctx))[0])

    def _score(self, seq, pos, m):
        """Probabilities of the events at positions `pos` of the id array
        `seq`, each given the m ids before it: one searchsorted per order, then
        the backoff chain steps down one order at a time over the open events."""
        import numpy as np

        rank = seq.astype(np.int64)  # order 1 holds every id, in id order
        ranks = [np.zeros(len(seq), dtype=np.int64), rank]  # the empty history ends anywhere
        for t, below in zip(self._tables[2 : m + 2], self._tables[1:]):
            # where the window one id shorter, ending one id earlier, is stored
            live = np.flatnonzero(rank[:-1] < len(below.keys) - 1) + 1
            query = rank[live - 1] * len(self.vocab) + seq[live]
            order = np.argsort(query)  # sorted queries search several times faster
            found = np.empty_like(order)
            found[order] = np.searchsorted(t.keys, query[order])
            hit = t.keys[found] == query
            rank = np.full(len(seq), len(t.keys) - 1)
            rank[live[hit]] = found[hit]
            ranks.append(rank)
        probs = np.full(len(pos), UNK_FLOOR)
        factor = np.ones(len(pos))
        open_ = np.ones(len(pos), dtype=bool)
        for k in range(m, -1, -1):  # history length
            ctx = ranks[k][pos - 1]
            e = np.flatnonzero(open_ & self._tables[k].is_context[ctx])  # stored histories
            prob = self._tables[k + 1].prob[ranks[k + 1][pos[e]]]
            hit = ~np.isnan(prob)
            probs[e[hit]] = factor[e[hit]] * prob[hit]
            # a stored history without a backoff weight passes nan down the chain,
            # and the test below gives such an event the floor, as a weight of 0.0 would
            factor[e[~hit]] *= self._tables[k].bow[ctx[e[~hit]]]
            open_[e[hit]] = False
        return np.where(probs > 0.0, probs, UNK_FLOOR)

    def stored_contexts(self):
        contexts, tuples = [], [()]
        for k, t in enumerate(self._tables[: self.order]):
            if k:  # a key is (prefix rank, last id)
                keys = map(divmod, t.keys[:-1].tolist(), repeat(len(self.vocab)))
                tuples = [tuples[a] + (b,) for a, b in keys]
            contexts += compress(tuples, t.is_context.tolist())
        return contexts

    def context_history(self, ctx):
        """Render a stored context's ids back to symbol strings."""
        return list(map(list(self.vocab._ids).__getitem__, ctx))


# Sentences encoded at a time when a whole corpus is scored: bounds the ids,
# rank arrays and probability lists to one slice.
_SCORE_CHUNK = 1024


def sentence_probs(models, sentences):
    """For each sentence (a Sentence, word sequence or text), in order, a tuple
    of each model's event probabilities: the sentence's words, then EOS.  The
    sentences are read _SCORE_CHUNK at a time, and each slice is encoded once
    per vocabulary its models use (see slice_probs)."""
    sentences = map(words_of, sentences)
    while part := list(islice(sentences, _SCORE_CHUNK)):
        stops = list(accumulate(len(words) + 1 for words in part))  # after each EOS
        cuts = list(map(slice, [0] + stops[:-1], stops))
        encoded = cache(partial(_encoded, part))  # once per vocabulary
        columns = [model.slice_probs(encoded) for model in models]
        yield from zip(*(map(probs.__getitem__, cuts) for probs in columns))


def _estimate_discounts(coc):
    """Modified Kneser-Ney discounts D1/D2/D3+ from one order's
    counts-of-counts (n1, n2, n3, n4).

    Returns None when the counts-of-counts degenerate (n1 or n2 empty)."""
    n1, n2, n3, n4 = coc
    if n1 == 0 or n2 == 0:
        return None
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * (n2 / n1)
    d2 = 2.0 - 3.0 * y * (n3 / n2)
    d3 = 3.0 - 4.0 * y * (n4 / n3) if n3 > 0 else d2
    return (max(d1, 0.0), max(d2, 0.0), max(d3, 0.0))


def check_options(order=4, smoothing="modified-kneser-ney"):
    """The smoothing mode's full name, once it and the order are valid (the
    defaults are train's)."""
    smoothing = _SMOOTHING_ALIASES.get(smoothing, smoothing)
    if smoothing not in SMOOTHING_MODES:
        raise ToolkitError("unknown smoothing mode %r" % smoothing)
    if order < 1:
        raise ToolkitError("order must be >= 1")
    if order > 10:  # a model grows with the square of its order (BOS padding)
        raise ToolkitError("order must be <= 10")
    return smoothing


def train(corpus, order=4, smoothing="modified-kneser-ney", vocab=None):
    """Train an n-gram model.

    smoothing: 'mle', 'witten-bell' or 'modified-kneser-ney'.  When a shared
    vocabulary is supplied, out-of-vocabulary training words map to the UNK
    symbol.  MLE assigns unseen events a floor of 1e-10 at query time (no
    renormalization, so stored probabilities stay exact count ratios).

    The others interpolate p(w|h) = num/denom + gamma * p(w|h[1:]), with
    1/|events| below the unigrams, which span every event; gamma is h's
    backoff weight.  Witten-Bell: num = c, denom = total + T, gamma = T/denom
    for the T words seen after h.  Modified Kneser-Ney: num = max(c - D_c, 0),
    denom = total, gamma = (total - sum(num))/total summed in the order h's
    words first occur; below the top order c counts distinct preceding words
    unless the n-gram starts with BOS.
    """
    import numpy as np

    smoothing = check_options(order, smoothing)
    vocab, ids, ends = _encoded(corpus, vocab)
    if not ends:
        raise ToolkitError("cannot train a model on an empty corpus")
    seq, pos = _events(ids, ends, order - 1)
    del ids, ends  # freed before the tables, which set train's peak
    size = len(vocab)
    # at[n - 1]: the slot of the n-gram at each event; ahead: the distinct
    # n-grams' slots, first events and counts, one order ahead of the loop
    tables, at = _tables(size, [seq[(pos - n + 1)[:, None] + np.arange(n)] for n in range(1, order + 1)])
    ahead = np.unique(at[0], return_index=True, return_counts=True)
    for n, t in enumerate(tables[1:], 1):
        grams, first, c = ahead
        if n < order:
            ahead = np.unique(at[n], return_index=True, return_counts=True)
        hist = t.keys[grams] // size  # the histories' slots in the order n-1 table
        starts = np.flatnonzero(np.diff(hist, prepend=-1))
        width = np.diff(np.append(starts, len(hist)))
        row = np.repeat(np.arange(len(starts)), width)
        if smoothing == "modified-kneser-ney" and n < order:  # continuation counts
            preceded = np.unique(at[n - 1][ahead[1]], return_counts=True)[1]
            c = np.where(seq[pos[first] - n + 1] == _BOS_ID, c, preceded) if n > 1 else preceded
        total = np.add.reduceat(c, starts)
        discounts = None
        if smoothing == "modified-kneser-ney":
            discounts = _estimate_discounts(np.bincount(c, minlength=5)[1:5].tolist())
            if discounts is None:
                import logging
                logging.getLogger("corpusmine.lm").warning(
                    "modified Kneser-Ney counts-of-counts degenerate at order %d; "
                    "falling back to Witten-Bell for that order", n)
        if smoothing == "mle":  # exact count ratios of seen words, no backoff weights
            num, denom, gamma = c, total, np.zeros(len(starts))
        elif discounts is None:
            num, denom = c, total + width
            gamma = width / denom
        else:
            num = np.maximum(c - np.select([c == 1, c == 2], discounts[:2], discounts[2]), 0.0)
            denom = total
            by_first = num[np.lexsort((first, row))]
            sums = by_first[starts]  # sum([x]) is x: only longer rows need adding up
            wide = width > 1
            values = iter(by_first[np.repeat(wide, width)].tolist())
            sums[wide] = [sum(islice(values, w)) for w in width[wide].tolist()]
            gamma = (total - sums) / total
        if n == 1 and smoothing != "mle":  # unigrams span every symbol but BOS
            x = np.zeros(size)
            x[grams] = num
            t.prob[1:size] = x[1:] / denom + gamma * (1.0 / (size - 1))
            continue
        lower = tables[n - 1].prob[at[n - 2][first]] if n > 1 else 0.0
        t.prob[grams] = num / denom[row] + gamma[row] * lower
        if n > 1 and smoothing != "mle":
            tables[n - 1].bow[hist[starts]] = gamma
    return NGramModel(order, smoothing, vocab, tables)


def sentence_events(sentence):
    """Yield (word, history) for each scored event of a sentence."""
    hist = []
    for w in words_of(sentence):
        yield w, tuple(hist)
        hist.append(w)
    yield EOS, tuple(hist)


def cross_entropy(model, corpus):
    """Bits per event over word+EOS events of the corpus, the logs summed one
    at a time in event order."""
    total, events = 0.0, 0
    for (probs,) in sentence_probs([model], corpus):
        for lp in map(math.log2, probs):
            total += lp
        events += len(probs)
    if not events:
        raise ToolkitError("cannot compute cross-entropy of an empty corpus")
    return -total / events


def perplexity(model, corpus):
    return 2.0 ** cross_entropy(model, corpus)


class MixtureModel:
    """Linear interpolation of n-gram models at the event level."""

    def __init__(self, components, weights, dev_loglik_history=None):
        self.components = components
        self.weights = weights
        self.dev_loglik_history = [] if dev_loglik_history is None else dev_loglik_history
        if len(self.components) < 1:
            raise ToolkitError("mixture needs at least one component")
        if len(self.weights) != len(self.components):
            raise ToolkitError("weight count does not match component count")
        if any(w < 0 for w in self.weights):
            raise ToolkitError("mixture weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ToolkitError("mixture weights must sum to 1")

    def prob(self, word, history=()):
        return sum(
            w * c.prob(word, history) for w, c in zip(self.weights, self.components)
        )

    def slice_probs(self, encoded):
        """The mixture's prob(w, h) of every event of a slice of sentences."""
        columns = zip(*(c.slice_probs(encoded) for c in self.components))
        return [sum(w * p for w, p in zip(self.weights, probs)) for probs in columns]


_EM_TOL, _EM_MAX_ITER = 1e-6, 100


def interpolate(models, dev_corpus):
    """Fit mixture weights by EM to maximize dev-corpus likelihood.

    Starts from uniform weights; stops when the relative change of the dev
    log-likelihood is at most _EM_TOL, or after _EM_MAX_ITER iterations.
    """
    import numpy as np

    if not models:
        raise ToolkitError("need at least one model to interpolate")
    columns = [array("d") for _ in models]
    for probs in sentence_probs(models, dev_corpus):
        for column, events in zip(columns, probs):
            column.extend(events)
    if not columns[0]:
        raise ToolkitError("dev corpus is empty")
    p = np.stack([np.frombuffer(column) for column in columns], axis=1)  # (events, models)
    k = len(models)
    weights = np.full(k, 1.0 / k)
    history = []
    prev = None
    for _ in range(_EM_MAX_ITER):
        mix = p @ weights
        ll = float(np.log(mix).sum())
        history.append(ll)
        if prev is not None and abs(ll - prev) <= _EM_TOL * abs(prev):
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
# Backoff weights are written as linear values in [0, 1].  Lines whose
# probability field is -99 carry only a backoff weight (history-only entries),
# or, for a 1-gram, nothing: a vocabulary type the model gives no mass (MLE).
# An n-gram appears at most once in its section.

_BOW_ONLY = "-99"
# Rows of one order formatted at a time: bounds the writer's texts to one slice.
_WRITE_SLICE = 4096


def _texts(values, text):
    """text(x) for each float of an array, as an object array, each text made
    once per distinct bit pattern (so -0.0 stays apart from 0.0)."""
    import numpy as np

    bits, inv = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([text(x) for x in bits.view(np.float64).tolist()], dtype=object)[inv]


def write_model(model, path):
    """Write the model file a line at a time."""
    import numpy as np

    keeps = [~(np.isnan(t.prob) & np.isnan(t.bow)) for t in model._tables[1:]]
    # every type, so that a zero-count MLE type is read back as itself, not <unk>
    keeps[0][len(_RESERVED) : len(model.vocab)] = True
    header = ["\\smoothing: %s" % model.smoothing, "", "\\data\\"]
    header += ["ngram %d=%d" % (n, keep.sum()) for n, keep in enumerate(keeps, 1)]
    write_text(path, chain(["\n".join(header)], _sections(model, keeps), ["\n\n\\end\\\n"]))


def _sections(model, keeps):
    """Each n-gram section's head, then its lines, each from the newline before it."""
    import numpy as np

    size = len(model.vocab)
    symbols = np.array(list(model.vocab._ids), dtype=object)
    place = np.empty(size, dtype=np.int64)  # each tuple's rank in symbol-string order
    place[np.argsort(symbols)] = np.arange(size)
    by_symbol, ids = place, []
    for n, (t, keep) in enumerate(zip(model._tables[1:], keeps), 1):
        hist, last = np.divmod(t.keys[:-1], size)
        perm = np.lexsort((by_symbol[last], place[hist]))
        place = np.empty(len(perm), dtype=np.int64)
        place[perm] = np.arange(len(perm))
        ids = [column[hist] for column in ids] + [last]  # each tuple's ids, first to last
        kept = perm[keep[perm]]
        yield "\n\n\\%d-grams:" % n
        for rows in (kept[i : i + _WRITE_SLICE] for i in range(0, len(kept), _WRITE_SLICE)):
            probs = np.full(len(rows), _BOW_ONLY, dtype=object)
            bows = np.full(len(rows), "", dtype=object)
            has = ~np.isnan(t.prob[rows])
            # a model read from a file writes back the log10 values it was read with
            probs[has] = (_texts(t.prob[rows[has]], lambda p: repr(math.log10(p)))
                          if model._log10 is None else _texts(model._log10[n][rows[has]], repr))
            has = ~np.isnan(t.bow[rows])
            bows[has] = _texts(t.bow[rows[has]], "\t%r".__mod__)
            grams = map(" ".join, zip(*(symbols[column[rows]] for column in ids)))
            yield from map("\n%s\t%s%s".__mod__, zip(probs, grams, bows))


def read_model(path):
    """The model of a file, parsed in one pass over its streamed lines."""
    import numpy as np

    lines, smoothing = read_lines(path), "unknown"
    for lineno, line in lines:
        if line == "\\data\\":
            break
        if line.startswith("\\smoothing:"):
            smoothing = line.split(":", 1)[1].strip()
    else:
        raise FormatError("%s: missing \\data\\ header" % path)
    sizes, first = [], []  # sizes[n - 1]: order n's n-gram count and its line
    for lineno, line in lines:
        if not line.startswith("ngram "):
            first = [(lineno, line)]
            break
        n, _, size = line[len("ngram ") :].partition("=")
        # orders 1..N, each with an n-gram: a declared empty order N costs _tables N^2 work
        if parse_field(int, n, "n-gram order", path, lineno) != len(sizes) + 1:
            raise FormatError("%s line %d: %s out of order" % (path, lineno, line))
        sizes.append((parse_field(int, size, "n-gram count", path, lineno), lineno))
        if sizes[-1][0] < 1:
            raise FormatError("%s line %d: %s declares no n-grams" % (path, lineno, line))
    order = len(sizes)
    if order < 1:
        raise FormatError("%s: no n-gram sections declared" % path)
    lines, n, vocab, unigrams = chain(first, lines), 0, Vocabulary(), []
    blocks = [np.zeros((0, n), dtype=np.int64) for n in range(1, order + 1)]
    columns, where, weight = [(np.zeros(0),) * 3] * order, {}, {}  # where[n]: each row's line
    symbol_id = vocab._ids.__getitem__
    while True:  # section n runs to the next head; "section" 0 is what precedes the first
        # lps and weights hold nan where a line has no such field (finite() rejects a nan one)
        ids, lps, weights, at, head = array("i"), array("d"), array("d"), array("i"), None
        for lineno, line in lines:
            if line.startswith("\\") and line.endswith("-grams:"):
                head = lineno, line
                break
            if not line or line == "\\end\\":
                continue
            fields = line.split("\t")
            if not n or len(fields) < 2:
                raise FormatError("%s line %d: unexpected line %r" % (path, lineno, line))
            if fields[1].count(" ") != n - 1:
                raise FormatError("%s line %d: arity mismatch in %r" % (path, lineno, line))
            lps.append(math.nan if fields[0] == _BOW_ONLY
                       else parse_field(log10_prob, fields[0], "probability", path, lineno))
            if len(fields) > 2 and fields[2] not in weight:  # weights repeat: convert once
                weight[fields[2]] = parse_field(backoff_weight, fields[2], "backoff", path, lineno)
            weights.append(weight[fields[2]] if len(fields) > 2 else math.nan)
            if n > 1:
                try:
                    ids.extend(map(symbol_id, fields[1].split(" ")))
                except KeyError as e:
                    raise FormatError("%s line %d: word %r is not a 1-gram"
                                      % (path, lineno, e.args[0])) from None
            elif not fields[1]:
                raise FormatError("%s line %d: empty word type" % (path, lineno))
            else:
                unigrams.append(fields[1])
            at.append(lineno)
        if n == 1:  # the 1-grams come first: later symbols resolve
            ids = encode([unigrams], vocab._ids)[0]
        if n:
            where[n] = at
            blocks[n - 1] = np.frombuffer(ids, dtype=np.intc).reshape(-1, n)
            columns[n - 1] = (np.frombuffer(lps), np.fromiter(map(pow, repeat(10.0), lps), float,
                                                              len(lps)), np.frombuffer(weights))
        if not head:
            break
        n, (lineno, line) = n + 1, head
        if parse_field(int, line[1:].split("-")[0], "section order", path, lineno) != n:
            raise FormatError("%s line %d: section %s out of order" % (path, lineno, line))
        if n > order:
            raise FormatError("%s line %d: section %s above the declared order %d"
                              % (path, lineno, line, order))
    for n, (size, lineno) in enumerate(sizes, 1):
        if size != len(where.get(n, ())):
            raise FormatError("%s line %d: ngram %d=%d but its section holds %d n-grams"
                              % (path, lineno, n, size, len(where.get(n, ()))))
    tables, slots = _tables(len(vocab), blocks)
    for n, at in enumerate(slots, 1):
        slot, first = np.unique(at, return_index=True)
        if len(slot) < len(at):
            row = np.setdiff1d(np.arange(len(at)), first)[0]  # the earliest repeat
            gram = " ".join(map(vocab.symbol, blocks[n - 1][row]))
            raise FormatError("%s line %d: repeated %d-gram %r (first on line %d)" % (
                path, where[n][row], n, gram, where[n][first[np.searchsorted(slot, at[row])]]))
    log10 = [None]
    for t, at, (lps, probs, weights) in zip(tables[1:], slots, columns):
        log10.append(np.full(len(t.keys), np.nan))
        t.prob[at], t.bow[at], log10[-1][at] = probs, weights, lps
    return NGramModel(order, smoothing, vocab, tables, log10)
