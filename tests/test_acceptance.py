"""Acceptance suite: formula oracles, invariants and desk-scale benchmarks.

Every test prints one pass line; run with `pytest -s tests/test_acceptance.py`
to see them.  Benchmarks are fully synthetic and seeded.
"""

import logging
import math
import random
import time
from collections import Counter, defaultdict

import pytest

from corpusmine import cli, combine, corpus, lm, metrics, retrieve, select, webfilter

@pytest.fixture(autouse=True)
def _quiet_smoothing_fallback_warnings():
    logger = logging.getLogger("corpusmine.lm")
    old_level = logger.level
    logger.setLevel(logging.ERROR)
    yield
    logger.setLevel(old_level)


def _passed(msg):
    print("PASS: %s" % msg)


# --- helpers -------------------------------------------------------------------


def _zipf_weights(n, a=1.3):
    return [1.0 / (i + 1) ** a for i in range(n)]


def _auc(scores, labels, direction):
    """Mann-Whitney ROC-AUC with average ranks for ties (1 = in-domain)."""
    sign = 1.0 if direction == select.HIGHER else -1.0
    order = sorted(range(len(scores)), key=lambda i: sign * scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    rank_sum = sum(r for r, l in zip(ranks, labels) if l)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _oracle_edit_distance(a, b):
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        for j in range(len(b) + 1):
            if i == 0:
                d[i][j] = j
            elif j == 0:
                d[i][j] = i
            else:
                d[i][j] = min(
                    d[i - 1][j] + 1,
                    d[i][j - 1] + 1,
                    d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                )
    return d[len(a)][len(b)]


def _oracle_ngram_rows(lines, order):
    """Independent count table: rows[context strings][word] = count."""
    rows = defaultdict(Counter)
    for line in lines:
        words = ["<s>"] * (order - 1) + line.split() + ["</s>"]
        for end in range(order - 1, len(words)):
            for n in range(1, order + 1):
                g = words[end - n + 1 : end + 1]
                rows[tuple(g[:-1])][g[-1]] += 1
    return rows


# --- 1: LM correctness ------------------------------------------------------------


def test_acceptance_1_lm_correctness():
    start = time.monotonic()
    rng = random.Random(101)
    vocab = ["a", "b", "c", "d", "e", "f"]
    for case in range(200):
        order = rng.randint(1, 3)
        lines = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(2, 12))
        ]
        data = corpus.Corpus.from_lines(lines)
        for smoothing in lm.SMOOTHING_MODES:
            model = lm.train(data, order=order, smoothing=smoothing)
            for ctx in model.stored_contexts():
                total = sum(
                    model.conditional_ids(w, ctx) for w in model.vocab.event_ids()
                )
                assert abs(total - 1.0) < 1e-6, (case, smoothing, order, total)
        # MLE probabilities equal brute-force count ratios exactly
        mle = lm.train(data, order=order, smoothing="mle")
        oracle = _oracle_ngram_rows(lines, order)
        for ctx in mle.stored_contexts():
            row = oracle[tuple(mle.context_history(ctx))]
            total = sum(row.values())
            for word, count in row.items():
                assert mle.conditional_ids(mle.vocab.id(word), ctx) == count / total
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passed(
        "LM correctness: 200 corpora x 3 smoothings normalize to 1 +- 1e-6; "
        "MLE equals count ratios exactly (%.1f s)" % elapsed
    )


# --- 2: perplexity identities ------------------------------------------------------


def test_acceptance_2_perplexity_identities():
    # a single sentence over 3 distinct words gives 4 equally frequent event
    # types (3 words + end of sentence): the uniform model
    model = lm.train(corpus.Corpus.from_lines(["a b c"]), order=1, smoothing="mle")
    v = 4
    test = corpus.Corpus.from_lines(["c a b", "b b a c"])
    assert abs(lm.perplexity(model, test) - v) <= 1e-9 * v
    # pp = 2^H on every test corpus and smoothing mode
    rng = random.Random(202)
    words = ["a", "b", "c", "d"]
    train = corpus.Corpus.from_lines(
        [" ".join(rng.choice(words) for _ in range(rng.randint(2, 7))) for _ in range(30)]
    )
    for smoothing in lm.SMOOTHING_MODES:
        m = lm.train(train, order=2, smoothing=smoothing)
        for _ in range(5):
            t = corpus.Corpus.from_lines(
                [" ".join(rng.choice(words) for _ in range(rng.randint(1, 7)))
                 for _ in range(rng.randint(1, 8))]
            )
            assert math.isclose(lm.perplexity(m, t), 2.0 ** lm.cross_entropy(m, t),
                                rel_tol=1e-12)
    _passed("perplexity identities: uniform model = V; pp = 2^H on all test corpora")


# --- 3: mixture EM ------------------------------------------------------------------


def test_acceptance_3_mixture_em():
    rng = random.Random(303)
    for case in range(5):
        vocab_a = ["a%d" % i for i in range(6)]
        vocab_b = ["b%d" % i for i in range(6)]
        lines_a = [" ".join(rng.choice(vocab_a) for _ in range(rng.randint(2, 6)))
                   for _ in range(20)]
        lines_b = [" ".join(rng.choice(vocab_b) for _ in range(rng.randint(2, 6)))
                   for _ in range(20)]
        model_a = lm.train(corpus.Corpus.from_lines(lines_a), order=1, smoothing="witten-bell")
        model_b = lm.train(corpus.Corpus.from_lines(lines_b), order=1,
                           smoothing="witten-bell", vocab=model_a.vocab)
        # dev mixes both domains so the optimum is interior
        share = rng.randint(3, 7)
        dev_lines = ([" ".join(rng.choice(vocab_a) for _ in range(3)) for _ in range(share)]
                     + [" ".join(rng.choice(vocab_b) for _ in range(3)) for _ in range(10 - share)])
        dev = corpus.Corpus.from_lines(dev_lines)
        mix = lm.interpolate([model_a, model_b], dev)
        history = mix.dev_loglik_history
        assert all(history[i + 1] >= history[i] - 1e-9 for i in range(len(history) - 1))
        component_ppl = [lm.perplexity(m, dev) for m in (model_a, model_b)]
        assert lm.perplexity(mix, dev) <= min(component_ppl) + 1e-6
        # 0.01-step grid-search oracle on the first component's weight
        events = [ev for s in dev for ev in lm.sentence_events(s)]
        probs = [(model_a.prob(w, h), model_b.prob(w, h)) for w, h in events]

        def loglik(w):
            return sum(math.log(w * pa + (1 - w) * pb) for pa, pb in probs)

        best = max((i / 100.0 for i in range(101)), key=loglik)
        assert abs(mix.weights[0] - best) < 0.02, (case, mix.weights[0], best)
    _passed("mixture EM: monotone dev log-likelihood, beats components, "
            "weights within 0.02 of grid search")


# --- 4: criterion separation on the two-domain benchmark -----------------------------


def _benchmark(rng):
    """Two synthetic domains; the general corpus is a labeled 50/50 mix."""
    content_a = ["fin%d" % i for i in range(150)]
    content_b = ["med%d" % i for i in range(150)]
    shared = ["fw%d" % i for i in range(20)]
    weights = _zipf_weights(150)
    shared_weights = _zipf_weights(20)

    def sentence(content):
        words = []
        for _ in range(rng.randint(6, 12)):
            if rng.random() < 0.15:
                words.append(rng.choices(shared, weights=shared_weights)[0])
            else:
                words.append(rng.choices(content, weights=weights)[0])
        return " ".join(words)

    domain_a = [sentence(content_a) for _ in range(5000)]
    domain_b = [sentence(content_b) for _ in range(5000)]
    # general corpus: a 50/50 mix of each domain's first half; the held-out
    # second half of domain A is the in-domain corpus
    mix = [(s, 1) for s in domain_a[:2500]] + [(s, 0) for s in domain_b[:2500]]
    rng.shuffle(mix)
    general_lines = [s for s, _ in mix]
    labels = [l for _, l in mix]
    return domain_a[2500:], general_lines, labels


def test_acceptance_4_criterion_separation():
    start = time.monotonic()
    rng = random.Random(404)
    in_lines, general_lines, labels = _benchmark(rng)
    in_domain = corpus.Corpus.from_lines(in_lines, id="in")
    general = corpus.Corpus.from_lines(general_lines, id="gen")

    aucs = {}
    aucs["cosine"] = _auc(select.score_cosine(general, in_domain), labels, select.HIGHER)

    in_model, out_model = select.train_selection_models(general, in_domain, order=4, seed=0)
    aucs["ce"] = _auc(select.score_cross_entropy(general, in_model), labels, select.LOWER)
    aucs["ml"] = _auc(
        select.score_moore_lewis(general, in_model, out_model), labels, select.LOWER
    )

    # bilingual side: the target language mirrors the source word for word
    def mirror(line):
        return " ".join(w + "_t" for w in line.split())

    general_pairs = corpus.ParallelCorpus(
        tuple(
            corpus.SentencePair(corpus.Sentence.from_plain(s),
                                corpus.Sentence.from_plain(mirror(s)))
            for s in general_lines
        )
    )
    in_tgt = corpus.Corpus.from_lines([mirror(s) for s in in_lines])
    in_tgt_lm, out_tgt_lm = select.train_selection_models(
        general_pairs.target_corpus(), in_tgt, order=4, seed=0
    )
    aucs["mml"] = _auc(
        select.score_bilingual_ml(general_pairs, in_model, out_model, in_tgt_lm, out_tgt_lm),
        labels,
        select.LOWER,
    )

    reference = corpus.Corpus.from_lines(in_lines[:500], id="ref")
    aucs["fms"] = _auc(select.score_fms(general, reference, threads=4), labels, select.HIGHER)

    elapsed = time.monotonic() - start
    for crit in ("cosine", "ce", "ml", "mml"):
        assert aucs[crit] >= 0.9, (crit, aucs[crit])
    assert aucs["fms"] >= 0.8, aucs["fms"]
    assert elapsed < 120.0
    _passed(
        "criterion separation: AUC cosine=%.3f ce=%.3f ml=%.3f mml=%.3f fms=%.3f (%.1f s)"
        % (aucs["cosine"], aucs["ce"], aucs["ml"], aucs["mml"], aucs["fms"], elapsed)
    )


# --- 5: Moore-Lewis degeneracy -------------------------------------------------------


def test_acceptance_5_moore_lewis_degeneracy():
    rng = random.Random(505)
    words = ["a", "b", "c", "d", "e"]
    train = corpus.Corpus.from_lines(
        [" ".join(rng.choice(words) for _ in range(rng.randint(2, 8))) for _ in range(25)]
    )
    model = lm.train(train, order=2, smoothing="witten-bell")
    general = corpus.Corpus.from_lines(
        [" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))) for _ in range(40)]
    )
    assert select.score_moore_lewis(general, model, model) == [0.0] * len(general)

    tgt_train = corpus.Corpus.from_lines(
        [" ".join(rng.choice(["x", "y", "z"]) for _ in range(rng.randint(2, 8)))
         for _ in range(25)]
    )
    in_tgt = lm.train(tgt_train, order=2, smoothing="witten-bell")
    out_src = lm.train(general, order=2, smoothing="witten-bell", vocab=model.vocab)
    out_tgt = lm.train(
        corpus.Corpus.from_lines([" ".join(rng.choice(["x", "y", "z"]) for _ in range(4))
                                  for _ in range(25)]),
        order=2, smoothing="witten-bell", vocab=in_tgt.vocab,
    )
    pairs = corpus.ParallelCorpus(
        tuple(
            corpus.SentencePair(
                corpus.Sentence.from_plain(" ".join(rng.choice(words) for _ in range(5))),
                corpus.Sentence.from_plain(" ".join(rng.choice(["x", "y", "z"]) for _ in range(5))),
            )
            for _ in range(30)
        )
    )
    both = select.score_bilingual_ml(pairs, model, out_src, in_tgt, out_tgt)
    src_scores = select.score_moore_lewis(pairs.source_corpus(), model, out_src)
    tgt_scores = select.score_moore_lewis(pairs.target_corpus(), in_tgt, out_tgt)
    for b, s, t in zip(both, src_scores, tgt_scores):
        assert abs(b - (s + t)) <= 1e-12
    _passed("Moore-Lewis degeneracy: equal models give all-zero scores; "
            "bilingual = source + target to 1e-12")


# --- 6: FMS oracle -------------------------------------------------------------------


def test_acceptance_6_fms_oracle():
    rng = random.Random(606)
    alphabet = ["w%d" % i for i in range(15)]
    for _ in range(1000):
        a = [rng.choice(alphabet) for _ in range(rng.randint(1, 14))]
        b = [rng.choice(alphabet) for _ in range(rng.randint(1, 14))]
        want = 1.0 - _oracle_edit_distance(a, b) / max(len(a), len(b))
        want = min(max(want, 0.0), 1.0)
        assert select.fms(a, b) == want
        # the vectorized scorer agrees exactly on the same pair
        batch = select.score_fms(
            corpus.Corpus.from_lines([" ".join(a)]),
            corpus.Corpus.from_lines([" ".join(b)]),
        )
        assert batch[0] == want
    _passed("FMS oracle: 1000 random pairs match the independent DP exactly "
            "(scalar and vectorized paths)")


# --- 7: retrieval benchmark ----------------------------------------------------------


def test_acceptance_7_retrieval_benchmark():
    start = time.monotonic()
    rng = random.Random(707)
    vocab = ["v%d" % i for i in range(2000)]
    weights = _zipf_weights(2000, a=1.1)
    docs = []
    for i in range(500):
        tokens = tuple(
            rng.choices(vocab, weights=weights)[0] for _ in range(rng.randint(60, 100))
        )
        docs.append(retrieve.Document("doc%03d" % i, tokens))
    index = retrieve.DocumentIndex(docs)

    # sources: noisy copies with 20% token substitutions and <= 4% length jitter
    sources = []
    for d in docs:
        tokens = [
            ("n%d" % rng.randint(0, 10 ** 6)) if rng.random() < 0.2 else t
            for t in d.tokens
        ]
        for _ in range(rng.randint(0, max(1, len(tokens) // 25))):
            tokens.pop(rng.randrange(len(tokens)))
        sources.append(retrieve.Document(d.id, tuple(tokens)))

    delta = sum(
        abs(len(d.tokens) - len(s.tokens)) / len(s.tokens)
        for d, s in zip(docs, sources)
    ) / len(docs)
    params = retrieve.LengthFilterParams(delta, multiplier=4.0)

    unfiltered = {}
    filtered = {}
    for s in sources:
        unfiltered[s.id] = [doc_id for doc_id, _ in retrieve.retrieve(s, index, 0.18, 1)]
        filtered[s.id] = [
            doc_id for doc_id, _ in retrieve.retrieve(s, index, 0.18, 1, params=params)
        ]
    gold = {d.id: {d.id} for d in docs}
    hits = sum(1 for s in sources if unfiltered[s.id] == [s.id])
    precision_at_1 = hits / len(sources)
    _, _, f1_plain = retrieve.evaluate_retrieval(unfiltered, gold)
    _, _, f1_filtered = retrieve.evaluate_retrieval(filtered, gold)
    elapsed = time.monotonic() - start

    assert precision_at_1 >= 0.95, precision_at_1
    assert f1_filtered >= f1_plain, (f1_filtered, f1_plain)
    assert elapsed < 60.0
    _passed(
        "retrieval benchmark: precision@1=%.3f, F1 filtered %.3f >= unfiltered %.3f (%.1f s)"
        % (precision_at_1, f1_filtered, f1_plain, elapsed)
    )


# --- 8: topic relevance ---------------------------------------------------------------


def test_acceptance_8_topic_relevance():
    rng = random.Random(808)
    vocab = ["t%d" % i for i in range(25)]
    topic = [
        (tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3))), float(rng.randint(1, 6)))
        for _ in range(8)
    ]
    loc_weights = webfilter.LocationWeights()
    docs = []
    for i in range(100):
        sections = {}
        for loc in webfilter.LOCATIONS:
            if rng.random() < 0.8:
                sections[loc] = [
                    " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 12)))
                    for _ in range(rng.randint(1, 3))
                ]
        if not sections:
            sections["body"] = ["t0"]
        docs.append(webfilter.LocatedDocument("doc%03d" % i, sections))

    scores = []
    for doc in docs:
        got = webfilter.topic_relevance(doc, topic, loc_weights)
        want = 0.0
        for loc in webfilter.LOCATIONS:
            for line in doc.lines(loc):
                tokens = line.split()
                for term, weight in topic:
                    want += (
                        webfilter.count_occurrences(term, tokens)
                        * weight
                        * loc_weights.get(loc)
                    )
        assert got == want  # exact double-sum equality
        scores.append(got)

    # ranking invariant under positive scaling of all weights
    scaled_topic = [(term, 7.0 * weight) for term, weight in topic]
    scaled_locs = webfilter.LocationWeights(30.0, 12.0, 6.0, 3.0)
    scaled = [webfilter.topic_relevance(d, scaled_topic, scaled_locs) for d in docs]
    base_rank = sorted(range(100), key=lambda i: (-scores[i], docs[i].id))
    scaled_rank = sorted(range(100), key=lambda i: (-scaled[i], docs[i].id))
    assert base_rank == scaled_rank

    # K = 100 combined filter reduces to pure perplexity selection
    model = lm.train(
        corpus.Corpus.from_lines(["t0 t1 t2", "t1 t2 t0"]), order=2, smoothing="witten-bell"
    )
    kept = webfilter.combined_filter(docs, topic, k=100, n=40, in_lm=model)
    sentences = [s for d in docs for s in d.all_lines()]
    ranked = sorted(
        range(len(sentences)), key=lambda i: (webfilter.ppl1(model, sentences[i]), i)
    )
    want_sents = [sentences[i] for i in ranked[: int(0.4 * len(sentences))]]
    assert [s for _, s in kept] == want_sents
    _passed("topic relevance: 100-document double-sum oracle exact; ranking "
            "scale-invariant; K=100 equals pure ppl1 selection")


# --- 9: BLEU ---------------------------------------------------------------------------


def test_acceptance_9_bleu():
    same = ["the market fell sharply today", "a dog barked at the mailman"]
    assert metrics.bleu(same, same).score == 1.0

    hyps = ["the the cat sat on mat".split(), "a dog barked".split()]
    refs = ["the cat sat on the mat".split(), "the dog barked loudly".split()]
    matched = [0] * 5
    total = [0] * 5
    for h, r in zip(hyps, refs):
        for n in range(1, 5):
            hc = Counter(tuple(h[i : i + n]) for i in range(len(h) - n + 1))
            rc = Counter(tuple(r[i : i + n]) for i in range(len(r) - n + 1))
            for g, c in hc.items():
                total[n] += c
                matched[n] += min(c, rc[g])
    ps = [matched[n] / total[n] if total[n] else 0.0 for n in range(1, 5)]
    bp = min(1.0, math.exp(1.0 - 10.0 / 9.0))
    want = (
        bp * math.exp(sum(math.log(p) for p in ps) / 4.0) if all(ps) else 0.0
    )
    report = metrics.bleu(hyps, refs)
    for got, expected in zip(report.precisions, ps):
        assert abs(got - expected) <= 1e-12
    assert abs(report.brevity_penalty - bp) <= 1e-12
    assert abs(report.score - want) <= 1e-12

    rng = random.Random(909)
    order = list(range(len(hyps)))
    for _ in range(5):
        rng.shuffle(order)
        shuffled = metrics.bleu([hyps[i] for i in order], [refs[i] for i in order])
        assert abs(shuffled.score - report.score) <= 1e-15
    _passed("BLEU: identity = 1.0; hand case matches the clip-count oracle to "
            "1e-12; permutation invariant")


# --- 10: selection and diagnostic properties --------------------------------------------


def test_acceptance_10_selection_properties():
    rng = random.Random(1010)
    vocab = ["w%d" % i for i in range(40)]
    lines = [
        " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 9))) for _ in range(120)
    ]
    data = corpus.Corpus.from_lines(lines)
    scores = [rng.random() for _ in range(len(lines))]

    previous = []
    for k in (5, 10, 20, 40, 60, 80, 100):
        kept = select.select_top(scores, k, select.HIGHER).indices
        assert kept[: len(previous)] == previous  # prefix nesting over K
        previous = kept

    def vocab_of(indices):
        return {w for i in indices for w in lines[i].split()}

    full_vocab = vocab_of(range(len(lines)))
    for k in (5, 20, 50, 99):
        assert vocab_of(select.select_top(scores, k, select.HIGHER).indices) <= full_vocab

    for _ in range(20):
        subsets = [
            set(rng.sample(range(120), rng.randint(5, 60))) for _ in range(rng.randint(2, 4))
        ]
        overlap, uniques = metrics.overlap_stats(subsets)
        union = set().union(*subsets)
        inter = subsets[0].intersection(*subsets[1:])
        assert overlap == len(inter) / len(union)
        for i, s in enumerate(subsets):
            rest = set().union(*(t for j, t in enumerate(subsets) if j != i))
            assert uniques[i] == len(s - rest) / len(s)
    _passed("selection properties: top-K prefix nesting, vocabulary containment, "
            "overlap stats match set arithmetic")


# --- 11: determinism across thread counts -----------------------------------------------


def _strip_durations(text):
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("duration_s=")
    )


def test_acceptance_11_thread_determinism(tmp_path, monkeypatch):
    rng = random.Random(1111)
    vocab_a = ["fin%d" % i for i in range(30)]
    vocab_b = ["med%d" % i for i in range(30)]
    general_lines = [
        " ".join(rng.choice(vocab_a if i % 2 else vocab_b) for _ in range(rng.randint(3, 9)))
        for i in range(200)
    ]
    in_lines = [" ".join(rng.choice(vocab_a) for _ in range(rng.randint(3, 9)))
                for _ in range(40)]
    general = tmp_path / "general.txt"
    general.write_text("\n".join(general_lines) + "\n", encoding="utf-8")
    in_domain = tmp_path / "in.txt"
    in_domain.write_text("\n".join(in_lines) + "\n", encoding="utf-8")

    outputs = {}
    for threads in (1, 8):
        d = tmp_path / ("t%d" % threads)
        d.mkdir()
        # run from inside the directory so manifests record identical paths
        monkeypatch.chdir(d)
        for criterion in ("cosine", "ml", "fms"):
            flag = "--reference" if criterion == "fms" else "--in-domain"
            assert cli.run([
                "score", "--criterion", criterion,
                "--general", "../general.txt", flag, "../in.txt",
                "--order", "3", "--seed", "7",
                "--threads", str(threads), "--output", "%s.tsv" % criterion,
            ]) == 0
            assert cli.run([
                "select", "--scores", "%s.tsv" % criterion, "--k", "25",
                "--output", "%s.sel" % criterion,
            ]) == 0
        assert cli.run([
            "combine", "--mode", "naive-rank",
            "--selection", "cosine.sel", "--selection", "ml.sel",
            "--selection", "fms.sel",
            "--target-size", "60", "--output", "merged.txt",
        ]) == 0
        record = {}
        for f in sorted(d.iterdir()):
            text = f.read_text(encoding="utf-8")
            if f.name.endswith(".manifest"):
                text = _strip_durations(text)
            record[f.name] = text
        outputs[threads] = record

    assert outputs[1].keys() == outputs[8].keys()
    for name in outputs[1]:
        assert outputs[1][name] == outputs[8][name], name
    _passed("determinism: 1-thread and 8-thread pipelines byte-identical "
            "(manifests compared without duration)")
