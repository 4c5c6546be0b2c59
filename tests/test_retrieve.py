"""Cross-language retrieval: query generation, scoring, length filter, P/R/F1."""

import gc
import math
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusmine import corpus, retrieve
from corpusmine.errors import ToolkitError


def _docs(texts):
    return [retrieve.Document("d%d" % i, tuple(t.split())) for i, t in enumerate(texts)]


def _df(texts):
    """Document frequency counted from the texts, not read from an index."""
    return Counter(w for t in texts for w in set(t.split()))


def test_document_invariants():
    with pytest.raises(ToolkitError):
        retrieve.Document("empty", ())
    with pytest.raises(ToolkitError):
        retrieve.DocumentIndex(_docs(["a"]) + [retrieve.Document("d0", ("b",))])


def test_index_statistics():
    idx = retrieve.DocumentIndex(_docs(["a b a", "b c", "c c c"]))
    assert idx.n_docs == 3
    # a term's document frequency is the length of its postings
    assert {t: len(ranks) for t, (ranks, _) in idx.postings.items()} == {"a": 1, "b": 2, "c": 2}
    assert idx.sorted_lengths[idx.by_length.index("d0")] == 3


def test_estimate_delta():
    pairs = corpus.ParallelCorpus(
        tuple(
            corpus.SentencePair(
                corpus.Sentence.from_plain(" ".join(["s"] * ls)),
                corpus.Sentence.from_plain(" ".join(["t"] * lt)),
            )
            for ls, lt in ((10, 12), (10, 8), (5, 5))
        )
    )
    # mean of |12-10|/10, |8-10|/10, 0 = (0.2 + 0.2 + 0) / 3
    assert retrieve.estimate_delta(pairs) == pytest.approx(0.4 / 3)
    with pytest.raises(ToolkitError):
        retrieve.estimate_delta(corpus.ParallelCorpus(()))


def test_query_generation():
    idx = retrieve.DocumentIndex(_docs(["a b c", "a a x", "y z w q"]))
    src = retrieve.Document("q", ("a", "b", "b", "c", "the"))
    q = retrieve.generate_query(src, 0.5, idx, stopwords=frozenset(["the"]))
    assert len(q) == 3  # ceil(0.5 * 5)
    terms = dict(q)
    # tf * log(|D|/df): b appears twice in the source, a is too common
    assert terms["b"] == pytest.approx(2 * math.log(3 / 1))
    assert terms["a"] == pytest.approx(1 * math.log(3 / 2))
    assert "the" not in terms
    weights = [w for _, w in q]
    assert weights == sorted(weights, reverse=True)
    # a term absent from the collection takes idf factor 1
    src2 = retrieve.Document("q2", ("novel",))
    q2 = retrieve.generate_query(src2, 1.0, idx)
    assert dict(q2)["novel"] == pytest.approx(1.0)
    assert len(retrieve.generate_query(retrieve.Document("q3", ("a",)), 0.01, idx)) == 1


def test_score_document_oracle():
    texts = ["a b c", "a a x", "y z w q"]
    idx = retrieve.DocumentIndex(_docs(texts))
    q = [("a", 2.0), ("b", 1.0)]
    df = _df(texts)
    scores, _ = retrieve._accumulate_scores(q, range(idx.n_docs), idx)
    for doc_id, text in zip(("d0", "d1", "d2"), texts):
        tf = Counter(text.split())
        present = sum(1 for t, _ in q if tf[t] > 0)
        want = 0.0
        for term, _ in q:
            if tf[term]:
                want += math.sqrt(tf[term]) * (1.0 + math.log(idx.n_docs / (df[term] + 1)))
        want *= (present / len(q)) / math.sqrt(len(text.split()))
        assert scores.get(idx.by_length.index(doc_id), 0.0) == pytest.approx(want)


def test_length_filter_candidates():
    docs = [retrieve.Document("d%d" % n, ("w",) * n) for n in (5, 8, 10, 12, 20)]
    idx = retrieve.DocumentIndex(docs)
    params = retrieve.LengthFilterParams(0.05, multiplier=4.0)  # window = len * (1 +- 0.2)
    kept = retrieve.length_filter_candidates(10, idx, params)
    assert sorted(idx.by_length[r] for r in kept) == ["d10", "d12", "d8"]
    with pytest.raises(ToolkitError):
        retrieve.LengthFilterParams(-0.1)


def test_length_filter_rejects_a_negative_multiplier():
    # a negative window would drop every candidate
    with pytest.raises(ToolkitError, match="multiplier"):
        retrieve.LengthFilterParams(0.5, multiplier=-1.0)
    assert retrieve.LengthFilterParams(0.5, multiplier=0.0).multiplier == 0.0


def test_retrieve_ranks_the_source_copy_first():
    texts = ["a b c d e", "f g h i j", "k l m n o"]
    idx = retrieve.DocumentIndex(_docs(texts))
    src = retrieve.Document("src", ("a", "b", "c", "d", "x"))
    results = retrieve.retrieve(src, idx, 0.5, 3)
    assert results[0][0] == "d0"
    assert [r[1] for r in results] == sorted((r[1] for r in results), reverse=True)


def test_evaluate_retrieval_micro_averages():
    results = {"q1": ["d0", "d1"], "q2": ["d5"]}
    gold = {"q1": {"d0", "d2"}, "q2": {"d5"}}
    p, r, f = retrieve.evaluate_retrieval(results, gold)
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(2 / 3)
    assert f == pytest.approx(2 / 3)


def test_collection_io(tmp_path):
    tsv = tmp_path / "coll.tsv"
    tsv.write_text("doc1\ta b c\ndoc2\tx y\n", encoding="utf-8")
    docs = retrieve.load_collection(tsv)
    assert [d.id for d in docs] == ["doc1", "doc2"]
    assert docs[1].tokens == ("x", "y")

    d = tmp_path / "coll"
    d.mkdir()
    (d / "b.txt").write_text("x y\n", encoding="utf-8")
    (d / "a.txt").write_text("a b c\n", encoding="utf-8")
    from_dir = retrieve.load_collection(d)
    assert [x.id for x in from_dir] == ["a.txt", "b.txt"]  # sorted by name

    gold = tmp_path / "gold.tsv"
    gold.write_text("q1\td0\nq1\td2\nq2\td5\n", encoding="utf-8")
    assert retrieve.load_gold(gold) == {"q1": {"d0", "d2"}, "q2": {"d5"}}


def test_load_collection_interns_tokens(tmp_path):
    tsv = tmp_path / "coll.tsv"
    tsv.write_text("doc1\tthe market fell\ndoc2\tmarket rallied\n", encoding="utf-8")
    docs = retrieve.load_collection(tsv)
    assert docs[0].tokens[1] is docs[1].tokens[0]


def test_index_keeps_no_document():
    docs = _docs(["market fell", "market rallied today", "rain"])
    refs = [weakref.ref(d) for d in docs]
    tokens = [d.tokens for d in docs]
    idx = retrieve.DocumentIndex(docs)
    del docs
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    held, stack = set(), [vars(idx)]
    while stack:  # every object inside the index's dicts, lists and tuples
        obj = stack.pop()
        held.add(id(obj))
        if isinstance(obj, (dict, list, tuple)):
            stack += gc.get_referents(obj)
    assert not held & set(map(id, tokens))  # and no token tuple
    assert idx.by_length == ["d2", "d0", "d1"] and idx.postings["market"][0] == [1, 2]


def test_random_retrieval_self_consistency():
    rng = random.Random(29)
    vocab = ["w%d" % i for i in range(60)]
    texts = [" ".join(rng.choice(vocab) for _ in range(rng.randint(8, 16))) for _ in range(30)]
    idx = retrieve.DocumentIndex(_docs(texts))
    for i in (0, 7, 19):
        src = retrieve.Document("src", tuple(texts[i].split()))
        best = retrieve.retrieve(src, idx, 0.5, 1)[0][0]
        assert best == "d%d" % i  # an exact copy must win


def _reference_score(query, tokens, n_docs, df):
    """The per-document formula, written out in the order retrieve must keep."""
    if not query:
        return 0.0
    tf = Counter(tokens)
    norm = 1.0 / math.sqrt(len(tokens))
    matched = 0
    total = 0.0
    for term, _ in query:
        if tf[term] > 0:
            matched += 1
            idf = 1.0 + math.log(n_docs / (df[term] + 1.0))
            total += math.sqrt(tf[term]) * idf * norm
    return (matched / len(query)) * total


def _check_against_brute_force(texts, source, stopwords, lambda_percent, n_best, delta):
    docs = _docs(texts)
    tokens = {d.id: d.tokens for d in docs}
    idx = retrieve.DocumentIndex(docs)
    src = retrieve.Document("src", tuple(source.split()))
    params = None if delta is None else retrieve.LengthFilterParams(delta)
    candidates = (set(tokens) if params is None else {
        idx.by_length[r] for r in retrieve.length_filter_candidates(len(src), idx, params)})
    query = retrieve.generate_query(src, lambda_percent, idx, stopwords)
    stats = Counter()  # one call whose n-best covers every candidate
    every = retrieve.retrieve(src, idx, lambda_percent, max(n_best, len(candidates)), params,
                              stopwords, stats)
    scores = dict(every)
    assert scores.keys() == candidates
    df = _df(texts)
    for d in candidates:
        assert scores[d] == _reference_score(query, tokens[d], len(texts), df)
    brute = sorted((-_reference_score(query, tokens[d], len(texts), df), d)
                   for d in candidates)[:n_best]
    got = every[:n_best]
    assert [d for d, _ in got] == [d for _, d in brute]
    assert [s for _, s in got] == [-neg for neg, _ in brute]
    assert all(math.copysign(1.0, s) == 1.0 for _, s in every)  # no -0.0 in the output
    assert stats["postings_base"] == len(query) * len(candidates)
    assert stats["postings"] == sum(
        1 for t, _ in query for d in candidates if t in tokens[d])
    return query, got


_WORDS = st.sampled_from("a b c d e f g h".split())
_TEXT = st.lists(_WORDS, min_size=1, max_size=10).map(" ".join)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    texts=st.lists(_TEXT, min_size=1, max_size=8),
    source=st.lists(st.sampled_from("a b c d e f g h x y".split()), min_size=1,
                    max_size=10).map(" ".join),
    stopwords=st.frozensets(st.sampled_from("a b c x".split())),
    lambda_percent=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
    n_best=st.integers(1, 10),
    delta=st.one_of(st.none(), st.sampled_from([0.0, 0.05, 0.1, 0.25])),
)
def test_retrieve_equals_brute_force(texts, source, stopwords, lambda_percent, n_best, delta):
    _check_against_brute_force(texts, source, stopwords, lambda_percent, n_best, delta)


def test_retrieve_brute_force_edge_cases():
    texts = ["a b c", "b c d d", "e f", "a a a g h", "c"]
    # every source term is a stopword: empty query, zero scores in id order
    query, got = _check_against_brute_force(texts, "a b a", frozenset("ab"), 1.0, 3, None)
    assert query == [] and got == [("d0", 0.0), ("d1", 0.0), ("d2", 0.0)]
    # terms absent from the collection, n_best above the number of matches
    query, got = _check_against_brute_force(texts, "x y e", frozenset(), 1.0, 4, None)
    assert [d for d, _ in got] == ["d2", "d0", "d1", "d3"] and got[1][1] == 0.0
    # length filter with stopwords, n_best above the number of candidates
    query, got = _check_against_brute_force(texts, "a b c", frozenset("a"), 1.0, 5, 0.1)
    assert len(got) == 3
    # lengths 3, 4, 2, 5, 1; a source of 4 with spread 4 * 0.0625 keeps [3.0, 5.0], both ends
    query, got = _check_against_brute_force(texts, "a b c d", frozenset(), 1.0, 5, 0.0625)
    assert sorted(d for d, _ in got) == ["d0", "d1", "d3"]
    idx = retrieve.DocumentIndex(_docs(texts))
    for source_len, delta, multiplier, kept in [
            (3, 0.5, 0.0, {"d0"}),  # multiplier 0: the source length alone
            (2, 0.25, 4.0, {"d0", "d1", "d2", "d4"}),  # spread 1: lo is 0, hi is 4
            (2, 0.5, 4.0, {"d0", "d1", "d2", "d3", "d4"}),  # spread 2: lo is below 0
            (7, 1.0, 0.0, set())]:
        params = retrieve.LengthFilterParams(delta, multiplier=multiplier)
        window = retrieve.length_filter_candidates(source_len, idx, params)
        assert {idx.by_length[r] for r in window} == kept
    for bad in (math.nan, -0.0625):
        with pytest.raises(ToolkitError):
            retrieve.LengthFilterParams(bad)
        with pytest.raises(ToolkitError):
            retrieve.LengthFilterParams(0.1, multiplier=bad)


def test_write_results_of_no_sources_is_an_empty_file(tmp_path):
    path = tmp_path / "hits.tsv"
    retrieve.write_results({}, path)
    assert path.read_bytes() == b""
