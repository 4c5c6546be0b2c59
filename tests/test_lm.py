"""N-gram model estimation, smoothing, perplexity, EM mixtures and model files."""

import math
import random
import tempfile
from collections import Counter
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusmine import corpus, lm, select
from corpusmine.errors import ToolkitError


def _random_corpus(rng, vocab, n_sents=None, max_len=8):
    n = n_sents or rng.randint(2, 12)
    return corpus.Corpus.from_lines(
        [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, max_len)))
            for _ in range(n)
        ]
    )


def _brute_force_counts(lines, order):
    """Independent n-gram counter: BOS padding, one EOS per sentence."""
    grams = Counter()
    for line in lines:
        words = [lm.BOS] * (order - 1) + line.split() + [lm.EOS]
        for n in range(1, order + 1):
            for i in range(len(words) - n + 1):
                g = tuple(words[i : i + n])
                if g == (lm.BOS,) * n:
                    continue
                grams[g] += 1
    return grams


def test_vocabulary_reserved_symbols():
    v = lm.Vocabulary.from_corpus([["b", "a", "b"]])
    assert v.symbol(0) == lm.BOS and v.symbol(1) == lm.EOS and v.symbol(2) == lm.UNK
    assert v.id("b") == 3 and v.id("a") == 4
    assert v.id("never-seen") == v.id(lm.UNK)
    assert list(v.event_ids()) == [1, 2, 3, 4]  # everything but BOS
    with pytest.raises(ToolkitError):
        lm.Vocabulary.from_corpus(corpus.Corpus.from_lines(["a <unk> b"]))


def test_scored_sentence_may_hold_unk_but_no_marker():
    model = lm.train(corpus.Corpus.from_lines(["a b", "b a"]), order=2)
    (probs,) = next(lm.sentence_probs([model], [["a", lm.UNK]]))
    assert probs[1] == model.prob(lm.UNK, ["a"])
    for marker in (lm.BOS, lm.EOS):
        with pytest.raises(ToolkitError, match="reserved symbol '%s'" % marker):
            next(lm.sentence_probs([model], [["a", marker]]))


def test_mle_matches_count_ratios():
    lines = ["a b a", "b a", "a a b"]
    model = lm.train(corpus.Corpus.from_lines(lines), order=2, smoothing="mle")
    grams = _brute_force_counts(lines, 2)
    ctx_totals = Counter()
    for g, c in grams.items():
        if len(g) == 2:
            ctx_totals[g[:1]] += c
    for g, c in grams.items():
        if len(g) == 2:
            assert model.prob(g[1], g[:1]) == c / ctx_totals[g[:1]]
    # unseen-in-context event hits the floor, not zero
    assert model.prob("a", ("zzz",)) >= lm.UNK_FLOOR


def test_distributions_normalize():
    rng = random.Random(11)
    vocab = ["a", "b", "c", "d", "e"]
    for smoothing in lm.SMOOTHING_MODES:
        for _ in range(10):
            order = rng.randint(1, 3)
            model = lm.train(_random_corpus(rng, vocab), order=order, smoothing=smoothing)
            for ctx in model.stored_contexts():
                total = sum(
                    model.conditional_ids(w, ctx) for w in model.vocab.event_ids()
                )
                assert abs(total - 1.0) < 1e-6, (smoothing, order, ctx, total)


def test_uniform_perplexity_equals_vocab_size():
    # 5 event types (3 words + EOS + UNK), every unigram equally frequent
    train = corpus.Corpus.from_lines(["a b c"])
    model = lm.train(train, order=1, smoothing="mle")
    test = corpus.Corpus.from_lines(["a c b", "b"])
    assert abs(lm.perplexity(model, test) - 4.0) < 1e-9 * 4.0  # EOS is the 4th event
    # with UNK occupying probability mass: witten-bell spreads to 5 events
    assert model.prob("a") == 0.25


def test_perplexity_is_two_to_the_entropy():
    rng = random.Random(3)
    vocab = ["a", "b", "c", "d"]
    for smoothing in lm.SMOOTHING_MODES:
        model = lm.train(_random_corpus(rng, vocab, n_sents=20), order=2, smoothing=smoothing)
        test = _random_corpus(rng, vocab, n_sents=5)
        h = lm.cross_entropy(model, test)
        assert math.isclose(lm.perplexity(model, test), 2.0 ** h, rel_tol=1e-12)


def test_witten_bell_hand_case():
    # context (a): counts b:2, c:1 -> T=2, total=3, gamma=2/5
    model = lm.train(
        corpus.Corpus.from_lines(["a b", "a b", "a c"]), order=2, smoothing="witten-bell"
    )
    def unigram(w):
        return model.conditional_ids(model.vocab.id(w), ())

    assert math.isclose(model.prob("b", ("a",)), 2.0 / 5.0 + 2.0 / 5.0 * unigram("b"))
    assert math.isclose(model.prob("c", ("a",)), 1.0 / 5.0 + 2.0 / 5.0 * unigram("c"))


def test_kneser_ney_prefers_diverse_histories():
    # "c" follows many histories, "d" always follows the same one, with equal
    # unigram frequency -> continuation probability of c must win
    lines = ["a c", "b c", "e c", "g c", "f d", "f d", "f d", "f d"]
    model = lm.train(corpus.Corpus.from_lines(lines), order=2, smoothing="modified-kneser-ney")
    uni_c = model.conditional_ids(model.vocab.id("c"), ())
    uni_d = model.conditional_ids(model.vocab.id("d"), ())
    assert uni_c > uni_d


def test_kneser_ney_fallback_warning(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="corpusmine.lm"):
        lm.train(corpus.Corpus.from_lines(["a b"]), order=2, smoothing="modified-kneser-ney")
    assert any("falling back" in r.message for r in caplog.records)


def test_bos_never_predicted():
    rng = random.Random(5)
    model = lm.train(_random_corpus(rng, ["a", "b", "c"], n_sents=10), order=2)
    assert lm.BOS not in list(model.vocab.event_symbols())
    assert model.prob("a", (lm.BOS,)) > 0  # but BOS is a valid history


def test_mixture_em_interior_optimum():
    a = lm.train(corpus.Corpus.from_lines(["a a b", "a b a", "b a a"]), order=1, smoothing="witten-bell")
    b = lm.train(corpus.Corpus.from_lines(["c c d", "c d c", "d c c"]), order=1,
                 smoothing="witten-bell", vocab=a.vocab)
    dev = corpus.Corpus.from_lines(["a a", "c c", "a c"])
    mix = lm.interpolate([a, b], dev)
    assert abs(sum(mix.weights) - 1.0) < 1e-9
    history = mix.dev_loglik_history
    assert all(history[i + 1] >= history[i] - 1e-12 for i in range(len(history) - 1))
    # grid-search oracle over w in [0, 1]
    events = [list(lm.sentence_events(s)) for s in dev]

    def loglik(w):
        total = 0.0
        for evs in events:
            for word, hist in evs:
                total += math.log(w * a.prob(word, hist) + (1 - w) * b.prob(word, hist))
        return total

    grid = [i / 100 for i in range(101)]
    best = max(grid, key=loglik)
    assert abs(mix.weights[0] - best) < 0.02
    # mixture must not lose to either component on dev
    ppl = [lm.perplexity(m, dev) for m in (a, b)]
    assert lm.perplexity(mix, dev) <= min(ppl) + 1e-6


def _event_probs(model, sentences):
    """The model's probability of every event of the sentences, in order,
    scored as one encoded slice."""
    return model.slice_probs(lambda vocab: lm._encoded(sentences, vocab))


_TRAIN_LINES = st.lists(
    st.lists(st.sampled_from("a b c d".split()), min_size=1, max_size=6).map(" ".join),
    min_size=1, max_size=8,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    order=st.integers(1, 4),
    smoothing=st.sampled_from(lm.SMOOTHING_MODES),
    lines=_TRAIN_LINES,
    other_lines=_TRAIN_LINES,
    mixture=st.booleans(),
    # "x" and "y" are never trained on, so they score as OOV
    words=st.lists(st.sampled_from("a b c d x y".split()), max_size=9),
)
def test_event_probs_equal_prob_over_sentence_events(order, smoothing, lines, other_lines,
                                                     mixture, words):
    model = lm.train(corpus.Corpus.from_lines(lines), order=order, smoothing=smoothing)
    if mixture:
        other = lm.train(corpus.Corpus.from_lines(other_lines), order=max(1, order - 1),
                         smoothing=smoothing, vocab=model.vocab)
        model = lm.MixtureModel([model, other], [1 / 3, 2 / 3])
    want = [model.prob(w, h) for w, h in lm.sentence_events(words)]
    assert _event_probs(model, [words]) == want


def _formula_model(lines, order, smoothing, vocab):
    """Conditional tables {context: {word id: p}} and backoff weights
    {context: gamma}, written out from Chen & Goodman's interpolated forms.

    Rows and the words in them follow first occurrence in the corpus, the
    order in which the estimator sums its discounted counts."""
    bos = vocab.id(lm.BOS)
    counts = [{} for _ in range(order + 1)]  # counts[n][id n-gram], OOV words as UNK
    for line in lines:
        seq = [bos] * (order - 1) + [vocab.id(w) for w in line.split()] + [vocab.id(lm.EOS)]
        for i in range(order - 1, len(seq)):
            for n in range(1, order + 1):
                g = tuple(seq[i - n + 1 : i + 1])
                counts[n][g] = counts[n].get(g, 0) + 1
    n_events = len(vocab.event_ids())
    probs, bows = {}, {}
    for n in range(1, order + 1):
        adjusted = dict(counts[n])
        if smoothing == "modified-kneser-ney" and n < order:
            # continuation count N1+(. g): distinct words seen before g;
            # a history starting with BOS has no word before it
            for g in adjusted:
                if g[0] != bos:
                    adjusted[g] = len({h[0] for h in counts[n + 1] if h[1:] == g})
        rows = {}
        for g, c in adjusted.items():
            rows.setdefault(g[:-1], {})[g[-1]] = c
        discounts = None
        if smoothing == "modified-kneser-ney":
            coc = Counter(adjusted.values())
            n1, n2, n3, n4 = coc[1], coc[2], coc[3], coc[4]
            if n1 and n2:  # otherwise Witten-Bell for this order
                y = n1 / (n1 + 2.0 * n2)
                d1 = 1.0 - 2.0 * y * (n2 / n1)
                d2 = 2.0 - 3.0 * y * (n3 / n2)
                d3 = 3.0 - 4.0 * y * (n4 / n3) if n3 else d2
                discounts = {1: max(d1, 0.0), 2: max(d2, 0.0), 3: max(d3, 0.0)}
        for ctx, row in rows.items():
            total = sum(row.values())
            if smoothing == "mle":
                probs[ctx] = {w: c / total for w, c in row.items()}
                continue
            if discounts is None:  # Witten-Bell
                num = row
                denom = total + len(row)
                gamma = len(row) / denom
            else:
                num = {w: max(c - discounts[min(c, 3)], 0.0) for w, c in row.items()}
                denom = total
                gamma = (total - sum(num.values())) / total
            if n == 1:
                probs[ctx] = {w: num.get(w, 0) / denom + gamma * (1.0 / n_events)
                              for w in vocab.event_ids()}
            else:
                probs[ctx] = {w: x / denom + gamma * probs[ctx[1:]][w] for w, x in num.items()}
                bows[ctx] = gamma
    return probs, bows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    order=st.integers(1, 4),
    smoothing=st.sampled_from(lm.SMOOTHING_MODES),
    lines=_TRAIN_LINES,
    other_lines=_TRAIN_LINES.map(lambda ls: ls + ["b x"]),
    shared=st.booleans(),
)
def test_train_equals_written_out_formulas(order, smoothing, lines, other_lines, shared):
    vocab = lm.Vocabulary.from_corpus(corpus.Corpus.from_lines(other_lines)) if shared else None
    model = lm.train(corpus.Corpus.from_lines(lines), order=order, smoothing=smoothing,
                     vocab=vocab)
    probs, bows = _formula_model(lines, order, smoothing, model.vocab)
    assert sorted(model.stored_contexts()) == sorted(probs)
    for ctx in model.stored_contexts():
        for w in model.vocab.event_ids():
            weight, lower = 1.0, ctx
            while w not in probs[lower] and lower:
                weight *= bows.get(lower, 0.0)
                lower = lower[1:]
            p = weight * probs[lower].get(w, 0.0)
            assert model.conditional_ids(w, ctx) == (p if p > 0.0 else lm.UNK_FLOOR)


def _walk(probs, bows, word, ctx):
    """The backoff chain over dict tables: the first stored history, longest
    first, that holds the word gives its probability, times the backoff
    weights of the stored histories above it."""
    factor = 1.0
    while True:
        row = probs.get(ctx)
        if row is not None:
            if word in row:
                p = factor * row[word]
                return p if p > 0.0 else lm.UNK_FLOOR
            factor *= bows.get(ctx, 0.0)
        if not ctx:
            return lm.UNK_FLOOR
        ctx = ctx[1:]


def _file_tables(text, vocab):
    """Dict tables parsed from model file text, each probability 10 ** log10."""
    probs, bows = {}, {}
    for line in text.split("\n"):
        fields = line.split("\t")
        if len(fields) < 2:
            continue
        g = tuple(vocab.id(w) for w in fields[1].split(" "))
        if fields[0] != "-99":
            probs.setdefault(g[:-1], {})[g[-1]] = 10.0 ** float(fields[0])
        if len(fields) > 2:
            bows[g] = float(fields[2])
    return probs, bows


def _oracle_events(tables, order, vocab, sentences):
    """Per sentence, the walked probability of each event of the sentence."""
    bos, eos = vocab.id(lm.BOS), vocab.id(lm.EOS)
    out = []
    for words in sentences:
        seq = [bos] * (order - 1) + [vocab.id(w) for w in words] + [eos]
        out.append([_walk(*tables, seq[i], tuple(seq[i - order + 1 : i]))
                    for i in range(order - 1, len(seq))])
    return out


def _flat(per_sentence):
    return [p for probs in per_sentence for p in probs]


def _padded(model, history):
    """The ids of the last order - 1 history words, padded with BOS."""
    m = model.order - 1
    ctx = [model.vocab.id(w) for w in history][-m:] if m else []
    return [model.vocab.id(lm.BOS)] * (m - len(ctx)) + ctx


_SENTENCES = st.lists(
    st.one_of(st.lists(st.sampled_from("a b c d x".split()), min_size=1, max_size=1),
              st.lists(st.sampled_from("a b c d x y".split()), max_size=30)),
    min_size=1, max_size=6,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    order=st.integers(1, 4),
    smoothing=st.sampled_from(lm.SMOOTHING_MODES),
    lines=_TRAIN_LINES,
    other_lines=_TRAIN_LINES.map(lambda ls: ls + ["b x"]),
    shared=st.booleans(),
    # a mixture weight, or no mixture
    weight=st.one_of(st.none(), st.integers(1, 999_999).map(lambda k: k / 1e6)),
    # "y" is never trained on; "x" only through the shared vocabulary
    sentences=_SENTENCES,
    # for probabilities near 1, where log2 implementations round differently
    rng=st.randoms(use_true_random=False),
)
def test_batch_scores_equal_backoff_walk(order, smoothing, lines, other_lines, shared, weight,
                                        sentences, rng):
    vocab = lm.Vocabulary.from_corpus(corpus.Corpus.from_lines(other_lines)) if shared else None
    model = lm.train(corpus.Corpus.from_lines(lines), order=order, smoothing=smoothing,
                     vocab=vocab)
    want = _oracle_events(_formula_model(lines, order, smoothing, model.vocab), order,
                          model.vocab, sentences)
    assert _event_probs(model, sentences) == _flat(want)
    assert want == [[model.conditional_ids(model.vocab.id(w), _padded(model, h))
                      for w, h in lm.sentence_events(words)] for words in sentences]
    scored = model
    if weight is not None:
        other_order = max(1, order - 1)
        other = lm.train(corpus.Corpus.from_lines(other_lines), order=other_order,
                         smoothing=smoothing, vocab=model.vocab)
        scored = lm.MixtureModel([model, other], [weight, 1 - weight])
        other_want = _oracle_events(
            _formula_model(other_lines, other_order, smoothing, model.vocab), other_order,
            model.vocab, sentences)
        want = [[weight * p + (1 - weight) * q for p, q in zip(ps, qs)]
                for ps, qs in zip(want, other_want)]
        assert _event_probs(scored, sentences) == _flat(want)
    # cross-entropies take math.log2 of each event and sum in event order
    assert select.score_cross_entropy(sentences, scored) == [
        -sum(math.log2(p) for p in ps) / len(ps) for ps in want]
    total = 0.0
    for p in (p for ps in want for p in ps):
        total += math.log2(p)
    assert lm.cross_entropy(scored, sentences) == -total / sum(map(len, want))
    for p in [rng.uniform(0.5, 1.0) for _ in range(20)]:  # one event: no sum hides a last bit
        fixed = SimpleNamespace(slice_probs=lambda *_: [p])
        assert select.score_cross_entropy([[]], fixed) == [-math.log2(p)]
        assert lm.cross_entropy(fixed, [[]]) == -math.log2(p)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "m1.lm"), Path(tmp, "m2.lm")
        lm.write_model(model, first)
        loaded = lm.read_model(first)
        lm.write_model(loaded, second)
        text = first.read_text(encoding="utf-8")
        assert second.read_text(encoding="utf-8") == text
    assert _event_probs(loaded, sentences) == _flat(_oracle_events(
        _file_tables(text, loaded.vocab), order, loaded.vocab, sentences))


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_cross_entropy_is_equal_for_any_slice_size(monkeypatch, chunk):
    # the running sum carries across slices, one event at a time
    rng = random.Random(chunk)
    words = ["a", "b", "c", "d"]
    model = lm.train(_random_corpus(rng, words, n_sents=12), order=3)
    other = lm.train(_random_corpus(rng, words, n_sents=12), order=2, smoothing="witten-bell")
    mixture = lm.MixtureModel([model, other], [0.3, 0.7])
    test = _random_corpus(rng, words + ["zzz"], n_sents=7)

    def scores():
        fit = lm.interpolate([model, other, mixture], test)
        return [lm.cross_entropy(m, test) for m in (model, mixture)], fit.weights, \
            fit.dev_loglik_history

    monkeypatch.setattr(lm, "_SCORE_CHUNK", len(test))
    whole = scores()
    monkeypatch.setattr(lm, "_SCORE_CHUNK", chunk)
    assert scores() == whole


def test_sentence_probs_reads_a_stream_one_slice_ahead(monkeypatch):
    rng = random.Random(3)
    words = ["a", "b", "c", "d"]
    model = lm.train(_random_corpus(rng, words, n_sents=12), order=3)
    other = lm.train(_random_corpus(rng, words, n_sents=12), order=2, smoothing="witten-bell",
                     vocab=model.vocab)
    mixture = lm.MixtureModel([model, other], [0.3, 0.7])
    test = list(_random_corpus(rng, words + ["zzz"], n_sents=7))
    read = []

    def stream():
        for sentence in test:
            read.append(sentence)
            yield sentence

    monkeypatch.setattr(lm, "_SCORE_CHUNK", 3)
    rows = lm.sentence_probs([model, mixture], stream())
    first = next(rows)
    assert len(read) <= lm._SCORE_CHUNK
    rows = [first, *rows]
    assert len(read) == len(rows) == len(test)
    sentences = [corpus.words_of(s) for s in test]
    ends = list(accumulate(len(w) + 1 for w in sentences))
    for k, m in enumerate((model, mixture)):
        flat = _event_probs(m, sentences)
        assert [row[k] for row in rows] == [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]


@pytest.mark.parametrize("chunk", [1, 2, None])
def test_one_sentence_probs_call_scores_each_model_over_its_own_vocabulary(monkeypatch, chunk):
    # one encoding of each slice serves models of different vocabularies and orders
    rng = random.Random(25)
    mkn = lm.train(_random_corpus(rng, ["a", "b", "c", "d"], n_sents=12), order=3)
    wb = lm.train(_random_corpus(rng, ["c", "d", "e", "f"], n_sents=12), order=2,
                  smoothing="witten-bell")
    mixture = lm.MixtureModel([mkn, wb], [0.4, 0.6])
    assert mkn.smoothing == "modified-kneser-ney"
    assert mkn.vocab.event_symbols() != wb.vocab.event_symbols()
    test = list(_random_corpus(rng, ["a", "b", "c", "d", "e", "f", "zzz"], n_sents=7))
    models = [mkn, wb, mixture]
    alone = [[probs for (probs,) in lm.sentence_probs([m], test)] for m in models]
    assert alone == [[[m.prob(w, h) for w, h in lm.sentence_events(s)] for s in test]
                     for m in models]
    monkeypatch.setattr(lm, "_SCORE_CHUNK", chunk or len(test))
    assert list(map(list, zip(*lm.sentence_probs(models, test)))) == alone


def test_mixture_validation():
    model = lm.train(corpus.Corpus.from_lines(["a b"]), order=1, smoothing="witten-bell")
    with pytest.raises(ToolkitError):
        lm.MixtureModel([model], [0.5])
    with pytest.raises(ToolkitError):
        lm.interpolate([model], corpus.Corpus.from_lines([]))  # empty dev


@pytest.mark.parametrize("order", [1, 2, 3])
def test_mle_zero_count_types_survive_write_and_read(tmp_path, order):
    # "rallied" is in the shared vocabulary but not in the training corpus
    vocab = lm.Vocabulary.from_corpus(corpus.Corpus.from_lines(["the market rallied"]))
    model = lm.train(corpus.Corpus.from_lines(["the market fell", "the dog barked"]),
                     order=order, smoothing="mle", vocab=vocab)
    path = tmp_path / "m.lm"
    lm.write_model(model, path)
    assert "-99\trallied" in path.read_text(encoding="utf-8").split("\n")
    loaded = lm.read_model(path)
    test = corpus.Corpus.from_lines(["the market rallied", "rallied dog"])
    assert lm.cross_entropy(loaded, test) == lm.cross_entropy(model, test)


def test_model_file_round_trip(tmp_path):
    rng = random.Random(9)
    models = [lm.train(_random_corpus(rng, ["a", "b", "c", "d"], n_sents=15),
                       order=order, smoothing=smoothing)
              for order in (1, 2, 3, 4) for smoothing in lm.SMOOTHING_MODES]
    # an MLE model over a shared vocabulary (--vocab-from): "e" has no count
    vocab = lm.Vocabulary.from_corpus(corpus.Corpus.from_lines(["e d c b a"]))
    models.append(lm.train(corpus.Corpus.from_lines(["a b c d", "d c b"]), order=3,
                           smoothing="mle", vocab=vocab))
    for i, model in enumerate(models):
        p1 = tmp_path / ("m1.%d" % i)
        lm.write_model(model, p1)
        loaded = lm.read_model(p1)
        assert loaded.order == model.order and loaded.smoothing == model.smoothing
        # identical queries
        for _ in range(50):
            w = rng.choice(["a", "b", "c", "d", "zzz"])
            hist = tuple(rng.choice(["a", "b"]) for _ in range(rng.randint(0, 3)))
            assert math.isclose(loaded.prob(w, hist), model.prob(w, hist), rel_tol=1e-9)
        # write(read(file)) is byte-identical
        p2 = tmp_path / ("m2.%d" % i)
        lm.write_model(loaded, p2)
        assert p2.read_bytes() == p1.read_bytes()


def test_model_file_header(tmp_path):
    model = lm.train(corpus.Corpus.from_lines(["a b c"]), order=2, smoothing="witten-bell")
    path = tmp_path / "m.lm"
    lm.write_model(model, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("\\smoothing: witten-bell\n")
    assert "\\data\\" in text and "\\1-grams:" in text and "\\2-grams:" in text


@pytest.mark.parametrize("size", [1, 2, 3])
def test_model_files_are_equal_for_any_write_slice_size(tmp_path, monkeypatch, size):
    rng = random.Random(size)
    words = ["a", "b", "c", "d"]
    trained = lm.train(_random_corpus(rng, words, n_sents=12), order=3)
    # an MLE model over a shared vocabulary: "e" has no count
    vocab = lm.Vocabulary.from_corpus(corpus.Corpus.from_lines(["e d c b a"]))
    mle = lm.train(_random_corpus(rng, words, n_sents=12), order=3, smoothing="mle", vocab=vocab)
    lm.write_model(trained, tmp_path / "trained.lm")
    read = lm.read_model(tmp_path / "trained.lm")  # writes the log10 values it was read with
    for i, model in enumerate((trained, mle, read)):
        lm.write_model(model, tmp_path / "whole.lm")
        monkeypatch.setattr(lm, "_WRITE_SLICE", size)
        lm.write_model(model, tmp_path / "sliced.lm")
        monkeypatch.undo()
        assert (tmp_path / "sliced.lm").read_bytes() == (tmp_path / "whole.lm").read_bytes(), i


def test_read_model_scores_a_hand_written_file_as_the_backoff_walk(tmp_path):
    # "<s> a" and "b" are stored histories without a backoff weight, and "zz" is
    # no 1-gram, so it reaches the 3-gram "a b <unk>"
    text = ("\\data\\\nngram 1=5\nngram 2=3\nngram 3=2\n\n\\1-grams:\n"
            "-99\t<s>\t0.5\n-0.5\ta\t0.4\n-0.6\tb\n-0.7\t</s>\n-1.2\t<unk>\n\n\\2-grams:\n"
            "-0.2\t<s> a\n-0.3\ta b\t0.25\n-0.4\tb </s>\n\n\\3-grams:\n"
            "-0.1\t<s> a b\n-0.15\ta b <unk>\n\n\\end\\\n")
    (tmp_path / "m.lm").write_text(text, encoding="utf-8")
    model = lm.read_model(tmp_path / "m.lm")
    sentences = [s.split() for s in ("a b a", "a a b zz", "b", "zz a b b", "b a b </x>")]
    want = _oracle_events(_file_tables(text, model.vocab), 3, model.vocab, sentences)
    assert _event_probs(model, sentences) == _flat(want)
    assert lm.UNK_FLOOR in _flat(want) and 10.0 ** -0.15 in _flat(want)


def test_lm_temporaries_stay_within_a_heap_budget(tmp_path):
    # tracemalloc peaks, numpy's buffers included, in units of the model's own
    # table bytes; each budget sits between the peak of code that holds whole
    # orders as Python lists and scores 2,048 sentences in one slice (about
    # 7.1, 5.2, 6.2 and 7.8) and the lean code's (about 4.1, 2.5, 4.3 and 5.3)
    import tracemalloc

    import numpy  # noqa: F401  (loaded before tracing, as in every LM step)

    rng = random.Random(18)
    words = ["w%d" % i for i in range(800)]
    zipf = [1.0 / (i + 1) for i in range(800)]
    lines = [" ".join(rng.choices(words, zipf, k=rng.randint(3, 30))) for _ in range(2548)]
    data, test = corpus.Corpus.from_lines(lines[:500]), corpus.Corpus.from_lines(lines[500:])
    # a small run first, so that no lazy import lands inside a measured peak
    lm.write_model(lm.train(_random_corpus(rng, words[:5], n_sents=20), order=2), tmp_path / "w.lm")

    def peak(f, *args):
        tracemalloc.start()
        try:
            return f(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    model, train_peak = peak(lm.train, data, 4)
    size = sum(a.nbytes for t in model._tables for a in t)
    write_peak = peak(lm.write_model, model, tmp_path / "m.lm")[1]
    read_peak = peak(lm.read_model, tmp_path / "m.lm")[1]
    score_peak = peak(lambda: sum(1 for _ in lm.sentence_probs([model], test)))[1]
    ratios = {"train": train_peak / size, "write_model": write_peak / size,
              "read_model": read_peak / size, "sentence_probs": score_peak / size}
    budget = {"train": 5.5, "write_model": 4.5, "read_model": 5.3, "sentence_probs": 6.3}
    assert all(ratios[k] <= budget[k] for k in budget), ratios
