"""Domain-relevance scoring of general-corpus sentences, ranking and selection.

Criteria: cosine tf-idf against the in-domain corpus, per-word cross-entropy
under an in-domain LM, cross-entropy difference between in-domain and
general-domain LMs (monolingual and bilingual), and averaged fuzzy matching
score (word edit distance).  All LM-based scores are length-normalized
(bits per event).

Every scorer accepts ``threads=`` and ignores it: scoring maps over the
sentences in order on one thread, because the scorers run in Python under
the interpreter lock and a thread pool measured slower than one thread.
"""

import math
import random
from collections import Counter

from .corpus import Corpus, encode, words_of
from .errors import FormatError, ToolkitError, finite, parse_field, read_lines, write_headed

HIGHER = "higher-is-better"
LOWER = "lower-is-better"

CRITERION_DIRECTIONS = {
    "cosine": HIGHER,
    "ce": LOWER,
    "ml": LOWER,
    "mml": LOWER,
    "fms": HIGHER,
}


class SelectionResult:
    def __init__(self, indices, criterion, direction):
        self.indices = indices
        self.criterion = criterion
        self.direction = direction


# --- cosine tf-idf ------------------------------------------------------------


def score_cosine(general, in_domain, threads=1):
    """Cosine between each general sentence's tf-idf vector and the tf-idf
    vector of the whole in-domain corpus taken as one pseudo-document.

    tf is the raw in-sentence count; idf = log(|D|/df) with |D| the number of
    general sentences and df clamped to >= 1.
    """
    gen_sents = [words_of(s) for s in general]
    if not gen_sents or len(in_domain) == 0:
        raise ToolkitError("both corpora must be non-empty")
    n_docs = len(gen_sents)
    df = Counter()
    for words in gen_sents:
        df.update(set(words))
    query_tf = Counter()
    for s in in_domain:
        query_tf.update(words_of(s))
    idf = {t: math.log(n_docs / max(df[t], 1)) for t in df.keys() | query_tf.keys()}
    query = {t: c * idf[t] for t, c in query_tf.items()}
    query_norm = math.sqrt(sum(v * v for v in query.values()))

    def one(words):
        tf = Counter(words)
        dot = 0.0
        norm = 0.0
        for t, c in tf.items():
            w = c * idf[t]
            norm += w * w
            qv = query.get(t)
            if qv is not None:
                dot += w * qv
        denom = math.sqrt(norm) * query_norm
        return dot / denom if denom > 0 and dot != 0.0 else 0.0

    return [one(words) for words in gen_sents]


# --- perplexity-based criteria ------------------------------------------------


def sentence_cross_entropies(models, sentences):
    """Per-event cross-entropy (bits) of each sentence, word events plus EOS,
    under each model."""
    from . import lm

    scores = [[] for _ in models]
    for probs in lm.sentence_probs(models, sentences):
        for out, p in zip(scores, probs):
            out.append(-sum(map(math.log2, p)) / len(p))
    return scores


def score_cross_entropy(general, in_lm, threads=1):
    return sentence_cross_entropies([in_lm], general)[0]


def score_moore_lewis(general, in_lm, out_lm, threads=1):
    """Cross-entropy difference H_in(x) - H_out(x); lower is more in-domain."""
    h_in, h_out = sentence_cross_entropies([in_lm, out_lm], general)
    return [a - b for a, b in zip(h_in, h_out)]


def score_bilingual_ml(general, in_src_lm, out_src_lm, in_tgt_lm, out_tgt_lm, threads=1):
    """Bilingual cross-entropy difference summed over both sides of each pair."""
    src = sentence_cross_entropies([in_src_lm, out_src_lm], [pair.source for pair in general])
    tgt = sentence_cross_entropies([in_tgt_lm, out_tgt_lm], [pair.target for pair in general])
    return [(a - b) + (c - d) for a, b, c, d in zip(*src, *tgt)]


def sample_out_subset(general, size, seed):
    """Seeded random general-corpus subset used to train the out-domain LM."""
    sentences = list(general)
    if size > len(sentences):
        raise ToolkitError("subset size exceeds corpus size")
    rng = random.Random(seed)
    picked = sorted(rng.sample(range(len(sentences)), size))
    return Corpus(tuple(sentences[i] for i in picked), id="out-subset-seed%d" % seed)


def train_selection_models(general, in_domain, order=4, seed=0,
                           smoothing="modified-kneser-ney"):
    """Train the in/out LM pair for cross-entropy-difference scoring.

    Both models share the in-domain vocabulary; the out-domain model is
    trained on a seeded random general subset equal in size to the in-domain
    corpus."""
    from . import lm

    in_lm = lm.train(in_domain, order=order, smoothing=smoothing)
    out_subset = sample_out_subset(general, len(in_domain), seed)
    out_lm = lm.train(out_subset, order=order, smoothing=smoothing, vocab=in_lm.vocab)
    return in_lm, out_lm


# --- fuzzy matching score -----------------------------------------------------


def edit_distance(a, b):
    """Word-level Levenshtein distance between two token sequences."""
    a = words_of(a)
    b = words_of(b)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, wa in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, wb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (wa != wb))
        prev = cur
    return prev[len(b)]


def fms(a, b):
    """Fuzzy matching score: 1 - edit_distance / max length, clamped to [0,1]."""
    a = words_of(a)
    b = words_of(b)
    score = 1.0 - edit_distance(a, b) / max(len(a), len(b))
    return min(max(score, 0.0), 1.0)


# General sentences per kernel pass: bounds the working set to a few
# (references x block) uint64 arrays per pattern word.  At 32 each column
# step's temporaries are 512 KiB at 2,000 references, and the allocator maps
# fresh pages for them; 16 halves them, which at 2,000 x 2,000 cut the minor
# page faults from 65k to 28k and the wall by about 7%.
_FMS_BLOCK = 16


def _set_bits(words):
    """Set bits per (text, pattern) of a (words, texts, patterns) uint64
    array, by a SWAR popcount: numpy before 2.0 has no bitwise_count."""
    import numpy as np

    m1, m2, m4, h01 = (np.uint64(c) for c in (0x5555555555555555, 0x3333333333333333,
                                               0x0F0F0F0F0F0F0F0F, 0x0101010101010101))
    x = words - ((words >> np.uint64(1)) & m1)
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    return ((x * h01) >> np.uint64(56)).sum(axis=0, dtype=np.int64)


def _length_bound(src_len, ref_lens):
    """The FMS no pair can exceed: 1 - |len difference| / max length."""
    import numpy as np

    with np.errstate(invalid="ignore"):  # two empty sentences: a nan bound, which no cutoff keeps
        return 1.0 - np.abs(ref_lens - src_len) / np.maximum(ref_lens, src_len)


def _edit_distance_blocks(pats, texts, n_symbols, cutoff):
    """Exact Levenshtein distance of every pattern against every text, by
    Myers' bit-vector algorithm (Myers 1999) in Hyyro's global-distance form
    (Hyyro 2003), vectorized over blocks of (pattern, text) pairs.

    Yields (pattern indices, distances) per block of patterns, distances of
    shape (len(indices), len(texts)) in text order.  Symbols are ids in
    [0, n_symbols).  Bit i of a pattern's vectors is row i + 1 of its DP
    column; a pattern of m symbols takes ceil(m/64) uint64 words, and a block
    pads every pattern to its widest, which is exact because carries only
    flow upward and so rows above m cannot change row m.  Texts are stepped
    column by column, longest first, and a pair's vectors are frozen when its
    text ends: D[m][n] = n + (+1 vertical deltas) - (-1 vertical deltas).
    A block decides each pair's length bound once: it steps only the texts
    from the longest to the shortest that some pattern's bound keeps, and every
    pair whose bound falls below the cutoff reads -1.
    """
    import numpy as np

    by_len = np.array(sorted(range(len(texts)), key=lambda t: -len(texts[t])), dtype=np.intp)
    lens = np.array([len(texts[t]) for t in by_len], dtype=np.intp)
    cols = np.full((lens[0] if len(texts) else 0, len(texts)), n_symbols, dtype=np.intp)
    for row, t in enumerate(by_len):
        cols[: lens[row], row] = texts[t]
    order = sorted(range(len(pats)), key=lambda g: len(pats[g]))
    for start in range(0, len(pats), _FMS_BLOCK):
        idx = order[start : start + _FMS_BLOCK]
        block = [pats[g] for g in idx]
        n_pats = len(block)
        out = np.full((n_pats, len(texts)), -1, dtype=np.int64)
        m = np.array([len(p) for p in block], dtype=np.intp)
        m_set, m_row = np.unique(m, return_inverse=True)
        keep = (_length_bound(m_set[:, None], lens) >= cutoff)[m_row]  # texts longest first
        reached = np.nonzero(keep.any(axis=0))[0]
        if reached.size == 0:
            yield idx, out
            continue
        first, stop = int(reached[0]), int(reached[-1]) + 1
        n_texts = stop - first
        t_lens = lens[first:stop]
        max_len = t_lens[0]
        n_words = max(1, -(-len(block[-1]) // 64))
        # Peq over the block's own symbols; every other symbol maps to row 0.
        # Position i of a pattern is bit i % 64 of word i // 64.
        syms, sym_row = np.unique(np.array([s for p in block for s in p], dtype=np.intp),
                                  return_inverse=True)
        local = np.zeros(n_symbols + 1, dtype=np.intp)
        local[syms] = np.arange(1, len(syms) + 1)
        i = np.arange(len(sym_row)) - np.repeat(np.cumsum(m) - m, m)
        peq = np.zeros((n_words, len(syms) + 1, n_pats), dtype=np.uint64)
        np.bitwise_or.at(peq, (i // 64, sym_row + 1, np.repeat(np.arange(n_pats), m)),
                         np.uint64(1) << (i % 64).astype(np.uint64))
        text_syms = local[cols[:max_len, first:stop]]
        pv = np.full((n_words, n_texts, n_pats), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        mv = np.zeros_like(pv)
        live = n_texts
        for j in range(max_len):
            while t_lens[live - 1] == j:  # this text ended: keep its vectors
                live -= 1
            p_v, m_v = pv[:, :live], mv[:, :live]
            eq = peq[:, text_syms[j, :live]]
            xv = eq | m_v
            xh = (eq & p_v) + p_v
            if n_words > 1:  # add the carry out of each word into the next
                carry = xh < p_v
                for w in range(1, n_words):
                    cin = carry[w - 1].astype(np.uint64)
                    xh[w] += cin
                    carry[w] |= xh[w] < cin
            xh ^= p_v
            xh |= eq
            ph = ~(xh | p_v)
            ph |= m_v
            mh = p_v & xh
            # shift both horizontal deltas up one row; row 0 gains +1 per column
            ph_top, mh_top = ph >> 63, mh >> 63
            ph <<= 1
            mh <<= 1
            ph[0] |= 1
            ph[1:] |= ph_top[:-1]
            mh[1:] |= mh_top[:-1]
            np.invert(xv | ph, out=p_v)
            p_v |= mh
            np.bitwise_and(ph, xv, out=m_v)
        # rows 1..m of each pattern hold its vertical deltas: its Peq rows' union
        low = np.bitwise_or.reduce(peq, axis=1, keepdims=True)
        dist = t_lens[:, None] + _set_bits(pv & low) - _set_bits(mv & low)
        out[:, by_len[first:stop]] = np.where(keep[:, first:stop], dist.T, -1)
        yield idx, out


def check_cutoff(cutoff):
    """Raise unless the FMS cutoff is None or lies in [0, 1]."""
    if cutoff is not None and not 0 <= cutoff <= 1:
        raise ToolkitError("cutoff must be in [0, 1]")


def score_fms(general, reference, cutoff=None, threads=1):
    """Mean FMS of each general sentence against every reference sentence.

    Exact bit-parallel edit distance.  Pairs whose length bound
    1 - |len difference| / max length falls below the cutoff contribute 0 to
    the average (approximate fast mode); the kernel drops them, and skips
    references outside each block's length window.  No cutoff is cutoff 0,
    which keeps every pair of non-empty sentences; a cutoff lies in [0, 1]."""
    import numpy as np

    check_cutoff(cutoff)
    table = {}  # general and reference sentences share one
    gen, refs = [[ids[a:b] for a, b in zip([0, *ends], ends)]
                 for ids, ends in (encode(general, table), encode(reference, table))]
    if not refs:
        raise ToolkitError("reference corpus must be non-empty")
    ref_lens = np.array([len(r) for r in refs])
    out = [0.0] * len(gen)
    for idx, led in _edit_distance_blocks(gen, refs, len(table), cutoff or 0.0):
        for g, row in zip(idx, led):
            kept = row >= 0
            maxes = np.maximum(ref_lens[kept], len(gen[g]))
            out[g] = float((1.0 - row[kept] / maxes).sum() / len(refs))
    return out


# --- one score per sentence under any criterion ------------------------------

# The model-file options of the LM criteria, in the order score() takes the models.
LM_FILES = {
    "ce": ("in_lm",),
    "ml": ("in_lm", "out_lm"),
    "mml": ("in_src_lm", "out_src_lm", "in_tgt_lm", "out_tgt_lm"),
}


def score(criterion, general, in_domain, models=None, order=4, seed=0,
          smoothing="modified-kneser-ney", cutoff=None):
    """The criterion's score of each general sentence (mml: of each pair).

    The LM criteria score with `models`, ordered as in LM_FILES, or else with
    models trained on in_domain: ml's pair by train_selection_models, and
    mml's by train_selection_models once per side.  cutoff is FMS's."""
    if criterion not in CRITERION_DIRECTIONS:
        raise ToolkitError("unknown criterion %r" % criterion)
    if criterion == "cosine":
        return score_cosine(general, in_domain)
    if criterion == "fms":
        return score_fms(general, in_domain, cutoff=cutoff)
    if models is None:
        from . import lm
        if criterion == "ce":
            models = [lm.train(in_domain, order=order, smoothing=smoothing)]
        elif criterion == "ml":
            models = train_selection_models(general, in_domain, order, seed, smoothing)
        else:
            models = (train_selection_models(general.source_corpus(), in_domain.source_corpus(),
                                             order, seed, smoothing)
                      + train_selection_models(general.target_corpus(),
                                               in_domain.target_corpus(), order, seed, smoothing))
    scorer = {"ce": score_cross_entropy, "ml": score_moore_lewis, "mml": score_bilingual_ml}
    return scorer[criterion](general, *models)


# --- ranking and selection ----------------------------------------------------


def _ranked_indices(scores, direction):
    sign = -1.0 if direction == HIGHER else 1.0
    return sorted(range(len(scores)), key=lambda i: (sign * scores[i], i))


def topk_count(k, n):
    """floor(k/100 * n) in exact rational arithmetic, with k read as the
    decimal it prints as: K=29 of 100 items keeps 29, not 28."""
    from fractions import Fraction  # here, not at the top: score steps need neither it nor decimal

    return Fraction(str(k)) * n // 100


def select_top(scores, k, direction, criterion=""):
    """Keep the best floor(k/100 * |corpus|) sentences; ties break by index."""
    if not 0 < k <= 100:
        raise ToolkitError("K must be in (0, 100]")
    n = topk_count(k, len(scores))
    if n == 0:
        raise ToolkitError("K=%g keeps zero sentences of %d" % (k, len(scores)))
    ranked = _ranked_indices(scores, direction)
    return SelectionResult(ranked[:n], criterion, direction)


def threshold_filter(scores, theta, direction, criterion=""):
    """Keep sentences scoring strictly better than theta."""
    if direction == HIGHER:
        keep = [i for i in _ranked_indices(scores, direction) if scores[i] > theta]
    else:
        keep = [i for i in _ranked_indices(scores, direction) if scores[i] < theta]
    return SelectionResult(keep, criterion, direction)


# --- score and selection files ------------------------------------------------


def index_rows(scores):
    """The index<TAB>score rows of a score file."""
    return ["%d\t%s" % (i, repr(float(s))) for i, s in enumerate(scores)]


def write_scores(path, scores, meta=None):
    write_headed(path, meta or {}, index_rows(scores))


def _read_annotated(path, parse_row):
    """The ``# key: value`` header and the rows, parsed by
    parse_row(line, path, lineno), of a score or selection file."""
    meta = {}
    rows = []
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line.lstrip("# ")
            if ":" in body:
                key, value = body.split(":", 1)
                meta[key.strip()] = value.strip()
            continue
        rows.append(parse_row(line, path, lineno))
    return meta, rows


def _index(text):
    """A sentence index: a non-negative integer."""
    i = int(text)
    if i < 0:
        raise ValueError(text)
    return i


def _score_row(line, path, lineno):
    fields = line.split("\t")
    if len(fields) != 2:
        raise FormatError("%s line %d: expected index<TAB>score" % (path, lineno))
    return (parse_field(_index, fields[0], "index", path, lineno),
            parse_field(finite, fields[1], "score", path, lineno), lineno)


def read_scores(path):
    meta, rows = _read_annotated(path, _score_row)
    scores = {}
    for i, score, lineno in rows:
        if i in scores:
            raise FormatError("%s line %d: repeated index %d" % (path, lineno, i))
        scores[i] = score
    if scores and max(scores) >= len(scores):  # distinct indices: one is missing below it
        raise FormatError("%s: missing score indices" % path)
    return [scores[i] for i in range(len(scores))], meta


def write_selection(path, result, meta=None):
    header = {"criterion": result.criterion, "direction": result.direction, **(meta or {})}
    write_headed(path, header, map(str, result.indices))


def _selection_row(line, path, lineno):
    return parse_field(_index, line, "index", path, lineno)


def read_selection(path):
    meta, indices = _read_annotated(path, _selection_row)
    return SelectionResult(indices, meta.get("criterion", ""), meta.get("direction", HIGHER))
