"""Independent plain-Python references for the benchmark's output checks.

Nothing here calls the program's scoring code.  The only exception is the
``ml`` reference, which the benchmark computes through ``NGramModel.prob``
on purpose: that per-event path is the reference any faster LM scorer must
reproduce to 1e-12 relative.
"""

import math
import re
from collections import Counter
from fractions import Fraction

_DIGIT_RUN = re.compile(r"[0-9]+")

LOCATION_WEIGHTS = {"title": 10.0, "headings": 4.0, "metadata": 2.0, "body": 1.0}


class Checks:
    """Named pass/fail outcomes; each one is an attempted operation."""

    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    def close(self, name, got, want, rel):
        """got and want agree to ``rel`` relative (absolute near zero)."""
        ok = abs(got - want) <= rel * max(abs(want), 1.0)
        return self.add(name, ok, "" if ok else "got %r want %r" % (got, want))

    @property
    def failed(self):
        return [r for r in self.results if not r[1]]


def read_lines(path):
    return open(path, encoding="utf-8").read().split("\n")[:-1]


def body_lines(path):
    """Lines of an output file without its ``#`` header."""
    return [l for l in read_lines(path) if not l.startswith("#")]


def header(path):
    out = {}
    for line in read_lines(path):
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            out[key] = value
    return out


def read_score_file(path):
    scores = []
    for line in body_lines(path):
        idx, value = line.split("\t")
        if int(idx) != len(scores):
            raise ValueError("%s: score index %s out of order" % (path, idx))
        scores.append(float(value))
    return scores


def topk_floor(k, n):
    """The exact number of items a top-K% selection keeps."""
    return Fraction(str(k)) * n // 100


def ranked(scores, higher_better):
    sign = -1.0 if higher_better else 1.0
    return sorted(range(len(scores)), key=lambda i: (sign * scores[i], i))


def auc(scores, labels, higher_better):
    """Mann-Whitney ROC-AUC with average ranks for ties (label 1 = in-domain)."""
    sign = 1.0 if higher_better else -1.0
    order = sorted(range(len(scores)), key=lambda i: sign * scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    rank_sum = sum(r for r, l in zip(ranks, labels) if l)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# --- corpus --------------------------------------------------------------------


def normalize_dedup(lines):
    """Digit runs to @num@, then keep the first occurrence of each line.
    Returns the kept lines and the raw index of each."""
    seen = set()
    kept, origin = [], []
    for i, line in enumerate(lines):
        norm = " ".join(_DIGIT_RUN.sub("@num@", w) for w in line.split())
        if norm not in seen:
            seen.add(norm)
            kept.append(norm)
            origin.append(i)
    return kept, origin


# --- select --------------------------------------------------------------------


def cosine_scores(general, in_domain, indices):
    """tf-idf cosine of general sentences against the in-domain pseudo-document."""
    gen = [l.split() for l in general]
    df = Counter()
    for words in gen:
        df.update(set(words))
    n = len(gen)

    def idf(t):
        return math.log(n / max(df[t], 1))

    q = Counter()
    for line in in_domain:
        q.update(line.split())
    query = {t: c * idf(t) for t, c in q.items()}
    qnorm = math.sqrt(sum(v * v for v in query.values()))
    out = {}
    for i in indices:
        tf = Counter(gen[i])
        weights = [(c * idf(t), query.get(t, 0.0)) for t, c in tf.items()]
        dot = sum(w * qv for w, qv in weights)
        denom = math.sqrt(sum(w * w for w, _ in weights)) * qnorm
        out[i] = dot / denom if denom > 0 and dot != 0.0 else 0.0
    return out


def edit_distance(a, b):
    d = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        prev, d[0] = d[0], i
        for j in range(1, len(b) + 1):
            cur = min(d[j] + 1, d[j - 1] + 1, prev + (a[i - 1] != b[j - 1]))
            prev, d[j] = d[j], cur
    return d[len(b)]


def fms_mean(src, refs):
    """Mean of 1 - ED / max length over all references, clamped to [0, 1]."""
    total = 0.0
    for ref in refs:
        total += min(max(1.0 - edit_distance(src, ref) / max(len(src), len(ref)), 0.0), 1.0)
    return total / len(refs)


def ml_score(in_lm, out_lm, words):
    """Cross-entropy difference through the per-event NGramModel.prob path."""

    def h(model):
        total = 0.0
        hist = []
        for w in list(words) + ["</s>"]:
            total += math.log2(model.prob(w, tuple(hist)))
            hist.append(w)
        return -total / (len(words) + 1)

    return h(in_lm) - h(out_lm)


# --- combine -------------------------------------------------------------------


def naive_rank(lists, target):
    seen, out = set(), []
    for rank in range(max(len(l) for l in lists)):
        for l in lists:
            if rank < len(l) and l[rank] not in seen:
                seen.add(l[rank])
                out.append(l[rank])
                if len(out) == target:
                    return out
    return out


# --- webfilter -----------------------------------------------------------------


def read_page(path):
    sections, current = {}, None
    for line in read_lines(path):
        if line.startswith("#"):
            current = line[1:]
            sections[current] = []
        elif line.strip():
            sections[current].append(line)
    return sections


def topic_relevance(sections, terms):
    """Weighted count of every topic term occurrence, found by a dict lookup
    of each token window (the program loops over terms instead)."""
    weight = Counter()
    for tokens, w in terms:
        weight[tuple(tokens)] += w
    longest = max(len(t) for t, _ in terms)
    score = 0.0
    for loc, lines in sections.items():
        for line in lines:
            toks = line.split()
            for i in range(len(toks)):
                for n in range(1, longest + 1):
                    w = weight.get(tuple(toks[i:i + n])) if i + n <= len(toks) else None
                    if w:
                        score += w * LOCATION_WEIGHTS[loc]
    return score


def read_topic(path):
    terms = []
    for line in read_lines(path):
        text, weight, _ = line.split("\t")
        tokens = text.split()
        terms.append((tokens, float(weight) if weight.strip() else float(len(tokens))))
    return terms


def ppl1(model, words):
    total = 0.0
    hist = []
    for w in list(words) + ["</s>"]:
        total += math.log10(model.prob(w, tuple(hist)))
        hist.append(w)
    return 10.0 ** (-total / len(words))


# --- retrieve ------------------------------------------------------------------


def read_docs(path):
    docs = {}
    for line in read_lines(path):
        doc_id, text = line.split("\t", 1)
        docs[doc_id] = text.split()
    return docs


def mean_delta(parallel_path):
    devs = []
    for line in read_lines(parallel_path):
        src, tgt = line.split("\t")
        ls, lt = len(src.split()), len(tgt.split())
        devs.append(abs(lt - ls) / ls)
    return sum(devs) / len(devs)


class Retrieval:
    """Query generation and coord/tf/idf/length-norm scoring, re-derived."""

    def __init__(self, docs):
        self.docs = docs
        self.tf = {d: Counter(t) for d, t in docs.items()}
        self.df = Counter()
        for t in docs.values():
            self.df.update(set(t))
        self.n = len(docs)

    def query(self, tokens, lam):
        counts = Counter(tokens)
        weighted = sorted(
            ((t, f * math.log(self.n / self.df[t]) if self.df[t] else float(f))
             for t, f in counts.items()),
            key=lambda tw: (-tw[1], tw[0]))
        return [t for t, _ in weighted[:max(1, math.ceil(lam * len(tokens)))]]

    def score(self, terms, doc_id):
        tf = self.tf[doc_id]
        norm = 1.0 / math.sqrt(len(self.docs[doc_id]))
        matched, total = 0, 0.0
        for t in terms:
            f = tf.get(t, 0)
            if f > 0:
                matched += 1
                total += math.sqrt(f) * (1.0 + math.log(self.n / (self.df[t] + 1.0))) * norm
        return matched / len(terms) * total

    def candidates(self, length, delta, multiplier=4.0):
        if delta is None:
            return list(self.docs)
        lo, hi = length * (1.0 - multiplier * delta), length * (1.0 + multiplier * delta)
        return [d for d, t in self.docs.items() if lo <= len(t) <= hi]


def read_hits(path):
    hits = {}
    for line in body_lines(path):
        src, rank, doc_id, score = line.split("\t")
        hits.setdefault(src, []).append((doc_id, float(score)))
    return hits


def f1(hits, gold):
    retrieved = sum(len(v) for v in hits.values())
    correct = sum(1 for q, v in hits.items() for d, _ in v if d == gold.get(q))
    p = correct / retrieved if retrieved else 0.0
    r = correct / len(gold)
    return 2 * p * r / (p + r) if p + r > 0 else 0.0
