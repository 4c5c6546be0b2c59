"""Topic relevance and the combined topic/perplexity web-text filter."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusmine import corpus, lm, webfilter
from corpusmine.errors import ToolkitError


def _doc(doc_id, title="", body=(), headings=(), metadata=()):
    sections = {}
    if title:
        sections["title"] = [title]
    if headings:
        sections["headings"] = list(headings)
    if metadata:
        sections["metadata"] = list(metadata)
    if body:
        sections["body"] = list(body)
    return webfilter.LocatedDocument(doc_id, sections)


def test_count_occurrences_overlapping():
    assert webfilter.count_occurrences(("a",), "a b a a".split()) == 3
    assert webfilter.count_occurrences(("a", "a"), "a a a".split()) == 2  # overlap counts
    assert webfilter.count_occurrences(("a", "b"), "b a".split()) == 0


def test_topic_relevance_hand_case():
    doc = _doc(
        "d1",
        title="insulin pump therapy",
        headings=["insulin dosing"],
        metadata=["diabetes care"],
        body=["insulin helps", "no match here"],
    )
    topic = [(("insulin",), 1.0), (("diabetes",), 2.0)]
    # insulin: title 1x10 + headings 1x4 + body 1x1 = 15; diabetes: metadata 2x2 = 4
    assert webfilter.topic_relevance(doc, topic) == pytest.approx(19.0)
    # ranking is invariant under positive scaling of term weights
    scaled = [(tokens, 10 * weight) for tokens, weight in topic]
    assert webfilter.topic_relevance(doc, scaled) == pytest.approx(190.0)


def test_topic_relevance_brute_force_oracle():
    rng = random.Random(19)
    vocab = ["t%d" % i for i in range(12)]
    topic = [(tuple(rng.choice(vocab) for _ in range(rng.randint(1, 2))), rng.randint(1, 5) * 1.0)
             for _ in range(6)]
    weights = webfilter.LocationWeights()
    for _ in range(50):
        doc = _doc(
            "d",
            title=" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6))),
            headings=[" ".join(rng.choice(vocab) for _ in range(4))],
            metadata=[" ".join(rng.choice(vocab) for _ in range(3))],
            body=[" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10)))
                  for _ in range(rng.randint(1, 4))],
        )
        want = 0.0
        for loc in webfilter.LOCATIONS:
            for line in doc.lines(loc):
                tokens = line.split()
                for term, weight in topic:
                    want += (
                        webfilter.count_occurrences(term, tokens)
                        * weight
                        * weights.get(loc)
                    )
        assert webfilter.topic_relevance(doc, topic) == pytest.approx(want, abs=1e-12)


def _per_location_formula(doc, topic, weights):
    """topic_relevance as sum(count_occurrences over lines) * weight * wl,
    added per location, then per entry in file order."""
    score = 0.0
    for loc in webfilter.LOCATIONS:
        wl = weights.get(loc)
        if wl == 0:
            continue
        line_tokens = [line.split() for line in doc.lines(loc)]
        for term, weight in topic:
            n = sum(webfilter.count_occurrences(term, toks) for toks in line_tokens)
            score += n * weight * wl
    return score


_TOKENS = st.sampled_from("a b c".split())
_LINE = st.lists(_TOKENS, min_size=1, max_size=7).map(" ".join)
_SECTION = st.lists(_LINE, max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    sections=st.fixed_dictionaries({loc: _SECTION for loc in webfilter.LOCATIONS}),
    terms=st.lists(
        st.tuples(st.lists(_TOKENS, min_size=1, max_size=9).map(tuple),
                  st.sampled_from([0.1, 1 / 3, 1.0, 2.5]) | st.floats(0.01, 100.0)),
        max_size=6,
    ),
    loc_weights=st.lists(st.sampled_from([0.0, 0.1, 1 / 3, 4.0, 10.0]),
                         min_size=4, max_size=4),
)
def test_topic_relevance_equals_per_location_formula(sections, terms, loc_weights):
    # terms draw from 3 types so they overlap; lengths up to 9 exceed every line
    sections = {loc: lines for loc, lines in sections.items() if lines}
    if not sections:
        sections = {"body": ["a"]}
    doc = webfilter.LocatedDocument("d", sections)
    weights = webfilter.LocationWeights(*loc_weights)
    assert webfilter.topic_relevance(doc, terms, weights) == _per_location_formula(
        doc, terms, weights
    )


def test_topic_relevance_edge_cases_equal_formula():
    doc = _doc("d", title="a a a", headings=["a b a a"], metadata=["b"],
               body=["a a", "b a a a b"])
    topic = [
        (("a", "a"), 0.1),       # overlapping matches
        (("a", "a"), 1 / 3),     # duplicate entry
        (("a",) * 6, 0.1),       # longer than every line
        (("b", "a"), 1 / 3),
    ]
    weights = webfilter.LocationWeights(title=1 / 3, headings=0.0, metadata=0.1, body=0.1)
    got = webfilter.topic_relevance(doc, topic, weights)
    assert got == _per_location_formula(doc, topic, weights)
    # title: 2 x (0.1 + 1/3) x 1/3; body: 3 x (0.1 + 1/3) x 0.1 + 1 x 1/3 x 0.1
    assert got == pytest.approx(2 * (0.1 + 1 / 3) / 3 + 3 * (0.1 + 1 / 3) * 0.1 + 0.1 / 3)


def test_location_weights_reject_nan():
    # nan fails every comparison, so a `< 0` check lets it through
    with pytest.raises(ToolkitError, match="location weights must be >= 0"):
        webfilter.LocationWeights(body=float("nan"))


def test_filter_documents_topk():
    scored = [("a", 5.0), ("b", 1.0), ("c", 3.0), ("d", 3.0)]
    # floor(2) kept, ties by id, each with its score
    assert webfilter.filter_documents_topk(scored, 50) == [("a", 5.0), ("c", 3.0)]
    assert webfilter.filter_documents_topk(scored, 100) == [
        ("a", 5.0), ("c", 3.0), ("d", 3.0), ("b", 1.0)]
    assert webfilter.filter_documents_topk(scored, 10) == []  # floor(0.4) -> none kept
    hundred = [("d%03d" % i, float(i)) for i in range(100)]
    assert len(webfilter.filter_documents_topk(hundred, 29)) == 29  # not int(28.999...)
    with pytest.raises(ToolkitError):
        webfilter.filter_documents_topk(scored, 0)
    with pytest.raises(ToolkitError):
        webfilter.filter_documents_topk(scored, 101)


def test_ppl1_excludes_eos_from_word_count():
    model = lm.train(corpus.Corpus.from_lines(["a b c d"]), order=1, smoothing="mle")
    # 5 events at p=0.2 each; 1-word sentence: P = 0.2^2, W = 1 -> 25
    assert webfilter.ppl1(model, "a") == pytest.approx(25.0)
    # 2-word sentence: P = 0.2^3, W = 2 -> 125^(1/2)
    assert webfilter.ppl1(model, "a b") == pytest.approx(math.sqrt(125.0))


def test_ppl1_counts_words_from_its_probabilities():
    model = lm.train(corpus.Corpus.from_lines(["x y x y", "y x z"]), order=2)
    for empty in ("", " \t "):
        with pytest.raises(ToolkitError, match="ppl1 of an empty sentence is undefined"):
            webfilter.ppl1(model, empty)
    lines = ["x  y", "\ty x\t\tz ", " q \t x  ", "y"]
    for line, (probs,) in zip(lines, lm.sentence_probs([model], lines)):
        want = 10 ** (-sum(math.log10(p) for p in probs) / len(line.split()))
        assert webfilter.ppl1(model, line, probs) == webfilter.ppl1(model, line) == want


def test_combined_filter_orders_by_ppl1():
    model = lm.train(
        corpus.Corpus.from_lines(["x y x y", "y x y x"]), order=2, smoothing="witten-bell"
    )
    topic = [(("x",), 1.0)]
    docs = [
        _doc("rel", title="x", body=["x y x", "q q q q"]),
        _doc("off", body=["z z"]),
    ]
    kept = webfilter.combined_filter(docs, topic, k=50, n=50, in_lm=model)
    # only the relevant document survives K; its in-domain-looking sentence wins N
    assert kept == [("rel", "x y x")]
    # K = 100 with N = 100 keeps every sentence, ranked by ascending ppl1
    all_kept = webfilter.combined_filter(docs, topic, k=100, n=100, in_lm=model)
    ppls = [webfilter.ppl1(model, s) for _, s in all_kept]
    assert ppls == sorted(ppls)
    assert len(all_kept) == 4


@pytest.mark.parametrize("k, n, message", [(0, 50, "K"), (50, 101, "N")])
def test_combined_filter_checks_k_and_n_before_scoring_a_page(monkeypatch, k, n, message):
    def no_scoring(*args):
        raise AssertionError("a page was scored")

    monkeypatch.setattr(webfilter, "topic_relevance", no_scoring)
    with pytest.raises(ToolkitError, match=r"^%s must be in \(0, 100\]$" % message):
        webfilter.combined_filter([_doc("a", body=["x y"])], [], k=k, n=n, in_lm=None)


def test_combined_filter_k100_equals_pure_ppl_selection():
    model = lm.train(
        corpus.Corpus.from_lines(["x y x y", "y x y x"]), order=2, smoothing="witten-bell"
    )
    docs = [
        _doc("a", body=["x y", "z q"]),
        _doc("b", body=["y x y", "p p p"]),
    ]
    empty_topic = []
    kept = webfilter.combined_filter(docs, empty_topic, k=100, n=50, in_lm=model)
    sentences = [s for d in docs for s in d.all_lines()]
    ranked = sorted(range(len(sentences)), key=lambda i: (webfilter.ppl1(model, sentences[i]), i))
    want = [sentences[i] for i in ranked[: len(sentences) // 2]]
    assert [s for _, s in kept] == want
    many = [_doc("m", body=["x y"] * 100)]
    assert len(webfilter.combined_filter(many, empty_topic, k=100, n=29, in_lm=model)) == 29


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_combined_filter_is_equal_for_any_slice_size(monkeypatch, chunk):
    model = lm.train(corpus.Corpus.from_lines(["x y x y", "y x y x z"]), order=3)
    docs = [_doc("a", body=["x y", "z q", "y y x"]), _doc("b", body=["y x y", "p", "x"])]
    topic = []
    monkeypatch.setattr(lm, "_SCORE_CHUNK", 6)
    whole = webfilter.combined_filter(docs, topic, k=100, n=50, in_lm=model)
    monkeypatch.setattr(lm, "_SCORE_CHUNK", chunk)
    assert webfilter.combined_filter(docs, topic, k=100, n=50, in_lm=model) == whole


def test_topic_file_and_document_parsing(tmp_path):
    tf = tmp_path / "topic.tsv"
    tf.write_text("insulin\t\tMED\nblood sugar\t5\tMED\nblood sugar level\t \tLAB\n"
                  "insulin\t\tMED\n", encoding="utf-8")
    # a blank weight is the term's token count; a term listed twice stays two
    # entries, in file order; the class column is read but not kept
    assert webfilter.load_topic_file(tf) == [
        (("insulin",), 1.0), (("blood", "sugar"), 5.0), (("blood", "sugar", "level"), 3.0),
        (("insulin",), 1.0),
    ]

    doc = webfilter.parse_located_document(
        "d1", enumerate(["#title", "my page", "#body", "line one", "line two"], 1), "pages/d1"
    )
    assert doc.lines("title") == ["my page"]
    assert doc.lines("body") == ["line one", "line two"]
    bare = webfilter.parse_located_document("d2", [(1, "just text")], "pages/d2")
    assert bare.lines("body") == ["just text"]
    assert bare.lines("title") == []
