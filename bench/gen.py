"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes the seed and an output directory, writes the files the
CLI reads, and returns a dict with the paths plus the truth it planted
(domain labels, gold pairs, on-topic pages).  The same seed gives the same
bytes.

Word types are spelled with letters only.  Digits appear only in the number
tokens the ``ml`` generator plants on purpose, so that
``preprocess --normalize-numbers`` rewrites exactly those tokens.

Sizes and length schedules are fixed, and only the content depends on the
seed.  So the counts the benchmark checks (sentences, tokens, events, FMS
pairs and cells, candidates, pages and sentences ranked) are equal for every
seed; only content-dependent counts such as distinct n-grams vary.
"""

import itertools
import random
import string
from pathlib import Path

# ml
ML_UNIQUE = 10200
ML_DUPLICATES = 1800
ML_DIGIT_LINES = 1020
# sim
SIM_GENERAL = 10000
FMS_SLICE = 300
FMS_REFS = 500
FMS_LONG = 6
# shared by ml, sim and web
IN_DOMAIN = 2000
IN_DOMAIN_SHARE = 0.3
# web
PAGES = 600
ON_TOPIC_PAGES = 300
PAGE_LAYOUT = (("title", 1), ("headings", 2), ("metadata", 1), ("body", 8))
BOILERPLATE_LINES = 720  # 15% of the 600 * 8 body lines
BOILERPLATE_POOL = 40
TOPIC_TERMS = 150
# retrieve
COLLECTION = 2000
QUERIES = 500
DELTA_PAIRS = 500
NEAR_DUPLICATE_DOCS = 400

MIN_LEN, MAX_LEN = 5, 30
LONG_LENGTHS = tuple(65 + 11 * i for i in range(FMS_LONG))  # 65 .. 120


def spell(i, prefix):
    """A letters-only word type: prefix plus i written in base 26."""
    letters = []
    while True:
        i, r = divmod(i, 26)
        letters.append(string.ascii_lowercase[r])
        if i == 0:
            return prefix + "".join(reversed(letters))


def _zipf(n, a):
    return [1.0 / (i + 1) ** a for i in range(n)]


class Domains:
    """Two labelled domains over ~5k types: 2000 content types each plus
    1000 shared function words.  A domain's sentences draw 62% own content,
    35% shared and 3% the other domain's content, each part Zipf-like."""

    def __init__(self, rng):
        own_a = [spell(i, "ka") for i in range(2000)]
        own_b = [spell(i, "mo") for i in range(2000)]
        shared = [spell(i, "ze") for i in range(1000)]
        for part in (own_a, own_b, shared):
            rng.shuffle(part)
        self.content_a = own_a
        zc, zs = _zipf(2000, 1.05), _zipf(1000, 1.2)
        sc, ss = sum(zc), sum(zs)
        self.types = own_a + own_b + shared

        def cum(w_a, w_b):
            weights = ([w_a * z / sc for z in zc] + [w_b * z / sc for z in zc]
                       + [0.35 * z / ss for z in zs])
            return list(itertools.accumulate(weights))

        self._cum = {1: cum(0.62, 0.03), 0: cum(0.03, 0.62)}

    def sentence(self, rng, label, length):
        return rng.choices(self.types, cum_weights=self._cum[label], k=length)


def length_schedule(n):
    return [MIN_LEN + i % (MAX_LEN - MIN_LEN + 1) for i in range(n)]


def _unique_sentences(rng, dom, labels, lengths, seen):
    """One sentence per (label, length), none of them already in ``seen``."""
    out = []
    for label, length in zip(labels, lengths):
        while True:
            words = dom.sentence(rng, label, length)
            key = " ".join(words)
            if key not in seen:
                seen.add(key)
                out.append(words)
                break
    return out


def _labelled(rng, n):
    n_in = round(n * IN_DOMAIN_SHARE)
    labels = [1] * n_in + [0] * (n - n_in)
    rng.shuffle(labels)
    return labels


def _write_lines(path, lines):
    Path(path).write_text("".join(l + "\n" for l in lines), encoding="utf-8", newline="\n")


def _shuffled_schedule(rng, *block_sizes):
    """Length schedule shuffled within each block, so every block (such as
    the FMS references at the head of the in-domain corpus) has a fixed
    token count."""
    out = []
    for n in block_sizes:
        block = length_schedule(n)
        rng.shuffle(block)
        out += block
    return out


def _in_domain(rng, dom, seen):
    lengths = _shuffled_schedule(rng, FMS_REFS, IN_DOMAIN - FMS_REFS)
    return [" ".join(w) for w in _unique_sentences(rng, dom, [1] * IN_DOMAIN, lengths, seen)]


def gen_ml(seed, out):
    """Raw general corpus with planted duplicates and number tokens."""
    rng = random.Random("ml-%d" % seed)
    dom = Domains(rng)
    labels = _labelled(rng, ML_UNIQUE)
    lengths = length_schedule(ML_UNIQUE)
    rng.shuffle(lengths)
    digit_lines = set(rng.sample(range(ML_UNIQUE), ML_DIGIT_LINES))
    seen = set()
    unique = []
    for i, (label, length) in enumerate(zip(labels, lengths)):
        while True:
            words = dom.sentence(rng, label, length)
            if i in digit_lines:
                words[rng.randrange(length)] = "@num@"
            key = " ".join(words)
            if key not in seen:
                seen.add(key)
                break
        if i in digit_lines:
            words = [str(rng.randint(0, 99999)) if w == "@num@" else w for w in words]
        unique.append(" ".join(words))
    # duplicates follow the same length schedule, so raw token counts are fixed
    by_length = {}
    for i, length in enumerate(lengths):
        by_length.setdefault(length, []).append(i)
    dup_src = [rng.choice(by_length[n]) for n in length_schedule(ML_DUPLICATES)]
    rows = [(unique[i], labels[i]) for i in range(ML_UNIQUE)]
    rows += [(unique[i], labels[i]) for i in dup_src]
    rng.shuffle(rows)
    in_lines = _in_domain(rng, dom, seen)
    out = Path(out)
    _write_lines(out / "general.raw.txt", [r for r, _ in rows])
    _write_lines(out / "indomain.txt", in_lines)
    return {
        "general_raw": out / "general.raw.txt",
        "in_domain": out / "indomain.txt",
        "raw_labels": [l for _, l in rows],
        "items": len(rows),
    }


def gen_sim(seed, out):
    """General corpus whose first lines form the FMS slice, with a long tail."""
    rng = random.Random("sim-%d" % seed)
    dom = Domains(rng)
    labels = _labelled(rng, SIM_GENERAL)
    lengths = _shuffled_schedule(rng, FMS_SLICE - FMS_LONG, SIM_GENERAL - FMS_SLICE)
    long_at = set(rng.sample(range(FMS_SLICE), FMS_LONG))
    it_short = iter(lengths)
    it_long = iter(LONG_LENGTHS)
    full_lengths = [next(it_long) if i in long_at else next(it_short)
                    for i in range(SIM_GENERAL)]
    seen = set()
    general = [" ".join(w) for w in _unique_sentences(rng, dom, labels, full_lengths, seen)]
    in_lines = _in_domain(rng, dom, seen)
    out = Path(out)
    _write_lines(out / "general.txt", general)
    _write_lines(out / "slice.txt", general[:FMS_SLICE])
    _write_lines(out / "indomain.txt", in_lines)
    _write_lines(out / "refs.txt", in_lines[:FMS_REFS])
    return {
        "general": out / "general.txt",
        "slice": out / "slice.txt",
        "in_domain": out / "indomain.txt",
        "refs": out / "refs.txt",
        "labels": labels,
        "items": SIM_GENERAL,
    }


def gen_web(seed, out):
    """Sectioned pages, half on-topic, with boilerplate repeated across pages."""
    rng = random.Random("web-%d" % seed)
    dom = Domains(rng)
    seen = set()
    in_lines = _in_domain(rng, dom, seen)
    # topic terms: mid-frequency topic-domain content types, 1-3 tokens
    pool = dom.content_a[20:400]
    topic = []
    for i in range(TOPIC_TERMS):
        tokens = rng.sample(pool, 1 + i % 3)
        weight = "" if i % 4 == 0 else str(rng.randint(1, 5))
        topic.append("%s\t%s\ttopic" % (" ".join(tokens), weight))
    boiler = [" ".join(dom.sentence(rng, i % 2, 4 + i % 6)) for i in range(BOILERPLATE_POOL)]
    body_lines = PAGES * dict(PAGE_LAYOUT)["body"]
    boiler_slots = set(rng.sample(range(body_lines), BOILERPLATE_LINES))
    on_topic = set(rng.sample(range(PAGES), ON_TOPIC_PAGES))
    page_lines = PAGES * sum(n for _, n in PAGE_LAYOUT)
    lengths = iter(_shuffled_schedule(rng, page_lines - BOILERPLATE_LINES))
    pages_dir = Path(out) / "pages"
    pages_dir.mkdir()
    page_ids = []
    slot = n_boiler = 0
    for p in range(PAGES):
        label = 1 if p in on_topic else 0
        text = []
        for loc, n in PAGE_LAYOUT:
            text.append("#" + loc)
            for _ in range(n):
                if loc == "body" and slot in boiler_slots:
                    # cycling through the pool keeps boilerplate token counts fixed
                    text.append(boiler[n_boiler % BOILERPLATE_POOL])
                    n_boiler += 1
                else:
                    text.append(" ".join(dom.sentence(rng, label, next(lengths))))
                slot += loc == "body"
        page_id = "page%04d" % p
        page_ids.append(page_id)
        (pages_dir / page_id).write_text("\n".join(text) + "\n", encoding="utf-8", newline="\n")
    out = Path(out)
    _write_lines(out / "topic-text.txt", in_lines)
    _write_lines(out / "topic.tsv", topic)
    return {
        "topic_text": out / "topic-text.txt",
        "topic": out / "topic.tsv",
        "pages": pages_dir,
        "on_topic": {page_ids[p] for p in on_topic},
        "items": PAGES,
    }


def _noisy_copy(rng, tokens, vocab, cum):
    """Heavy noise: 60% substitutions, then up to 8% deletions and insertions."""
    noisy = [rng.choices(vocab, cum_weights=cum)[0] if rng.random() < 0.6 else t
             for t in tokens]
    for _ in range(rng.randint(0, len(noisy) * 8 // 100)):
        noisy.pop(rng.randrange(len(noisy)))
    for _ in range(rng.randint(0, len(tokens) * 8 // 100)):
        noisy.insert(rng.randrange(len(noisy) + 1), rng.choices(vocab, cum_weights=cum)[0])
    return noisy


def gen_retrieve(seed, out):
    """A collection with near-duplicate distractors and noisy query copies."""
    rng = random.Random("retrieve-%d" % seed)
    vocab = [spell(i, "vo") for i in range(2000)]
    rng.shuffle(vocab)
    cum = list(itertools.accumulate(_zipf(2000, 1.1)))
    lengths = [60 + i % 41 for i in range(COLLECTION)]
    rng.shuffle(lengths)
    docs = [rng.choices(vocab, cum_weights=cum, k=n) for n in lengths]
    # distractors: documents that share 60% of their tokens with another one
    for i in rng.sample(range(COLLECTION), NEAR_DUPLICATE_DOCS):
        src = docs[rng.randrange(COLLECTION)]
        docs[i] = [src[j % len(src)] if rng.random() < 0.6 else t
                   for j, t in enumerate(docs[i])]
    doc_ids = ["doc%04d" % i for i in range(COLLECTION)]
    targets = rng.sample(range(COLLECTION), QUERIES + DELTA_PAIRS)
    queries = []
    gold = []
    for q, d in enumerate(targets[:QUERIES]):
        queries.append("query%04d\t%s" % (q, " ".join(_noisy_copy(rng, docs[d], vocab, cum))))
        gold.append("query%04d\t%s" % (q, doc_ids[d]))
    parallel = [" ".join(_noisy_copy(rng, docs[d], vocab, cum)) + "\t" + " ".join(docs[d])
                for d in targets[QUERIES:]]
    out = Path(out)
    _write_lines(out / "collection.tsv",
                 ["%s\t%s" % (i, " ".join(d)) for i, d in zip(doc_ids, docs)])
    _write_lines(out / "queries.tsv", queries)
    _write_lines(out / "gold.tsv", gold)
    _write_lines(out / "parallel.tsv", parallel)
    return {
        "collection": out / "collection.tsv",
        "queries": out / "queries.tsv",
        "gold": out / "gold.tsv",
        "parallel": out / "parallel.tsv",
        "items": QUERIES,
    }


GENERATORS = {"ml": gen_ml, "sim": gen_sim, "web": gen_web, "retrieve": gen_retrieve}
