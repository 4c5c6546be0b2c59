"""Data-selection criteria, ranking, thresholds and score-file I/O."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusmine import corpus, lm, select
from corpusmine.errors import FormatError, ToolkitError


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


def test_edit_distance_against_oracle():
    rng = random.Random(17)
    alphabet = ["a", "b", "c", "d", "e"]
    for _ in range(300):
        a = [rng.choice(alphabet) for _ in range(rng.randint(1, 10))]
        b = [rng.choice(alphabet) for _ in range(rng.randint(1, 10))]
        assert select.edit_distance(a, b) == _oracle_edit_distance(a, b)


def test_fms_hand_cases():
    assert select.fms("a b c d".split(), "a b c d".split()) == 1.0
    assert select.fms("a b c d".split(), "a b x d".split()) == 0.75
    assert select.fms(["x"], "a b c d".split()) == 0.0  # clamped at 0


def test_score_fms_averages_over_references():
    general = corpus.Corpus.from_lines(["a b c d", "x y z"])
    reference = corpus.Corpus.from_lines(["a b c d", "a b x d"])
    scores = select.score_fms(general, reference)
    assert scores[0] == pytest.approx((1.0 + 0.75) / 2)
    assert scores[1] == 0.0


def test_score_fms_threads_and_cutoff():
    rng = random.Random(23)
    alphabet = ["a", "b", "c", "d", "e", "f"]
    general = corpus.Corpus.from_lines(
        [" ".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9))) for _ in range(40)]
    )
    reference = corpus.Corpus.from_lines(
        [" ".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9))) for _ in range(10)]
    )
    exact = select.score_fms(general, reference)
    assert select.score_fms(general, reference, threads=4) == exact
    # oracle for the exact scores
    for src, got in zip(general, exact):
        want = sum(select.fms(src.words, r.words) for r in reference) / len(reference)
        assert math.isclose(got, want, rel_tol=1e-12)
    # the cutoff only ever lowers a score (pruned pairs contribute 0)
    pruned = select.score_fms(general, reference, cutoff=0.8)
    assert all(p <= e + 1e-12 for p, e in zip(pruned, exact))


# pattern lengths around the 64-bit word boundaries of the bit-parallel kernel
_WORD_EDGES = (1, 63, 64, 65, 127, 128, 129, 130)
_sentence_spec = st.tuples(st.sampled_from(_WORD_EDGES) | st.integers(1, 12),
                           st.integers(0, 2 ** 32))


def _seeded_sentence(length, seed, symbols):
    rng = random.Random(seed)
    return [rng.choice(symbols) for _ in range(length)]


@st.composite
def _fms_cases(draw):
    alphabet = ["w%d" % i for i in range(draw(st.integers(1, 4)))]
    gen = [_seeded_sentence(*draw(_sentence_spec), alphabet)
           for _ in range(draw(st.integers(1, 3)))]
    refs = [_seeded_sentence(*draw(_sentence_spec), alphabet)
            for _ in range(draw(st.integers(0, 3)))]
    base = draw(st.sampled_from(gen))
    cut = draw(st.integers(1, len(base)))
    refs += [
        list(base),  # identical pair
        base[:cut],  # shorter, sharing a prefix
        base + _seeded_sentence(*draw(_sentence_spec), alphabet),  # longer
        _seeded_sentence(*draw(_sentence_spec), ["z"]),  # disjoint from every pattern
    ]
    # enough general sentences, now and then, to span several kernel blocks
    return gen * draw(st.sampled_from([1, 15])), refs


def _fms_formula(gen, refs, cutoff):
    """score_fms per general sentence from the scalar edit_distance, with
    the same numpy float operations in the same order."""
    ref_lens = np.array([len(r) for r in refs])
    memo = {}
    for src in gen:
        key = tuple(src)
        if key in memo:
            yield memo[key]
            continue
        led = np.array([select.edit_distance(src, r) for r in refs])
        maxes = np.maximum(ref_lens, len(src))
        if cutoff is None:
            score = float(np.clip(1.0 - led / maxes, 0.0, 1.0).mean())
        else:
            bound = 1.0 - np.abs(ref_lens - len(src)) / maxes
            live = np.nonzero(bound >= cutoff)[0]
            score = 0.0
            if live.size:
                score = float(np.clip(1.0 - led[live] / maxes[live], 0.0, 1.0).sum() / len(refs))
        memo[key] = score
        yield score


# A carry that runs through a whole word: the text's "a" matches row 1, no
# row of the middle word, and row 130, so word 0's carry must pass through
# word 1 into word 2.
_CARRY_THROUGH = ["a"] + ["b"] * 128 + ["a"]

# One general sentence past a kernel block of 16, of mixed lengths that span
# one, two and three pattern words, against references of mixed lengths.
_PAST_A_BLOCK = ([["abcd"[(i * j + j // 3) % 4] for j in range(n)]
                  for i, n in enumerate([3, 7, 1, 12, 65, 5, 9, 16, 2, 30, 17, 4, 64, 8, 33, 11,
                                         130])],
                 [["a", "b"], ["c"] * 10, list("abcdabcdabcd"), list("dcba" * 16), ["b"] * 70])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_fms_cases(), st.sampled_from([None, 0.0, 0.5, 0.9, 1.0]))
@example(_PAST_A_BLOCK, None)
@example(_PAST_A_BLOCK, 0.5)
@example(([_CARRY_THROUGH, _CARRY_THROUGH + ["b"]], [["a"], ["a", "b"], ["a"] * 3]), None)
@example(([["a"] * 40], [["a"], ["a", "b"]]), 0.9)  # a block no reference's bound reaches
def test_score_fms_equals_per_pair_edit_distance(case, cutoff):
    gen, refs = case
    assert select.score_fms(gen, refs, cutoff=cutoff) == list(_fms_formula(gen, refs, cutoff))


def test_score_fms_needs_no_numpy2_popcount(monkeypatch):
    # numpy before 2.0 has no bitwise_count; the kernel must run without it
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    gen = [_CARRY_THROUGH, ["a", "b"], ["b"] * 70]
    refs = [["a"], ["a", "b"], ["b"] * 65, _CARRY_THROUGH, []]
    for cutoff in (None, 0.5):
        assert select.score_fms(gen, refs, cutoff=cutoff) == list(_fms_formula(gen, refs, cutoff))


def test_score_fms_leaves_numpy_ma_unloaded():
    # a plain np.unique takes a hash path on numpy 2.3+ that imports numpy.ma
    src = Path(select.__file__).resolve().parents[1]
    probe = ("import sys; from corpusmine import select; select.score_fms(['a b'], ['a c']); "
             "sys.exit('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_score_fms_of_an_empty_pair_warns_nothing():
    # two empty sentences have no length bound; the pair is dropped without a warning
    assert select.score_fms([[], ["a"]], [[], ["a", "b"]]) == [0.0, 0.25]


@pytest.mark.parametrize("cutoff", [2.0, 1.0000001, -1.0, -1e-9, float("nan")])
def test_score_fms_rejects_a_cutoff_outside_the_unit_interval(cutoff):
    with pytest.raises(ToolkitError, match=r"cutoff must be in \[0, 1\]"):
        select.score_fms([["a"]], [["a"]], cutoff=cutoff)


def test_cosine_scores():
    general = corpus.Corpus.from_lines(["a b", "x y", "a a"])
    in_domain = corpus.Corpus.from_lines(["a b"])
    scores = select.score_cosine(general, in_domain)
    assert scores[0] == pytest.approx(1.0)
    assert scores[1] == 0.0
    assert 0.0 < scores[2] < 1.0


def test_cosine_scores_equal_the_written_out_formula():
    # 4 general sentences; df: a 2, b 2, c 1, d 1, and the in-domain e 0, clamped to 1
    general = corpus.Corpus.from_lines(["a b a", "b c", "d d", "a"])
    in_domain = corpus.Corpus.from_lines(["a e", "b a e"])
    half, quarter = math.log(4 / 2), math.log(4 / 1)  # idf at df 2, and at df 1 or 0
    qa, qe, qb = 2 * half, 2 * quarter, 1 * half  # the query's tf * idf, by first use
    qnorm = math.sqrt(sum([qa * qa, qe * qe, qb * qb]))

    def cos(dot, norm):  # dot and norm summed from 0.0 in the sentence's first-use order
        return dot / (math.sqrt(norm) * qnorm)

    wa = 2 * half
    assert select.score_cosine(general, in_domain) == [
        cos(0.0 + wa * qa + half * qb, 0.0 + wa * wa + half * half),  # "a b a"
        cos(0.0 + half * qb, 0.0 + half * half + quarter * quarter),  # "b c": c not in the query
        0.0,  # "d d" shares no term
        cos(0.0 + half * qa, 0.0 + half * half),  # "a"
    ]


def test_cross_entropy_is_length_normalized():
    model = lm.train(corpus.Corpus.from_lines(["a a a a", "a a"]), order=1, smoothing="witten-bell")
    [[short, long]] = select.sentence_cross_entropies(
        [model], [corpus.Sentence.from_plain("a a"), corpus.Sentence.from_plain("a a a a a a")])
    # same per-word cost regime: values stay comparable instead of scaling with length
    assert abs(short - long) < 1.0


def test_moore_lewis_zero_when_models_match():
    model = lm.train(corpus.Corpus.from_lines(["a b c", "b c a"]), order=2, smoothing="witten-bell")
    general = corpus.Corpus.from_lines(["a b", "c b a", "a c"])
    scores = select.score_moore_lewis(general, model, model)
    assert scores == [0.0, 0.0, 0.0]


def test_bilingual_ml_is_sum_of_sides():
    src_in = lm.train(corpus.Corpus.from_lines(["a b", "b a"]), order=1, smoothing="witten-bell")
    src_out = lm.train(corpus.Corpus.from_lines(["c d"]), order=1, smoothing="witten-bell",
                       vocab=src_in.vocab)
    tgt_in = lm.train(corpus.Corpus.from_lines(["x y", "y x"]), order=1, smoothing="witten-bell")
    tgt_out = lm.train(corpus.Corpus.from_lines(["w z"]), order=1, smoothing="witten-bell",
                       vocab=tgt_in.vocab)
    pairs = corpus.ParallelCorpus(
        tuple(
            corpus.SentencePair(corpus.Sentence.from_plain(s), corpus.Sentence.from_plain(t))
            for s, t in (("a b", "x y"), ("c d", "w z"))
        )
    )
    both = select.score_bilingual_ml(pairs, src_in, src_out, tgt_in, tgt_out)
    src_only = select.score_moore_lewis(pairs.source_corpus(), src_in, src_out)
    tgt_only = select.score_moore_lewis(pairs.target_corpus(), tgt_in, tgt_out)
    for b, s, t in zip(both, src_only, tgt_only):
        assert math.isclose(b, s + t, abs_tol=1e-12)


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_lm_scores_are_equal_for_any_slice_size(monkeypatch, chunk):
    src_in = lm.train(corpus.Corpus.from_lines(["a b c", "b c a b"]), order=3)
    src_out = lm.train(corpus.Corpus.from_lines(["c d", "d c a"]), order=3, vocab=src_in.vocab)
    tgt = lm.train(corpus.Corpus.from_lines(["x y", "y x z"]), order=2, smoothing="witten-bell")
    lines = ["a b", "c d a b", "a", "d d d", "b a c", "z a"]
    general = corpus.Corpus.from_lines(lines)
    pairs = corpus.ParallelCorpus(tuple(
        corpus.SentencePair(s, corpus.Sentence.from_plain(t))
        for s, t in zip(general, ["x", "y x", "z z", "x y z", "y", "q"])))

    def scores():
        return (select.sentence_cross_entropies([src_in, src_out, tgt], general),
                select.score_bilingual_ml(pairs, src_in, src_out, tgt, tgt))

    monkeypatch.setattr(lm, "_SCORE_CHUNK", len(lines))
    whole = scores()
    monkeypatch.setattr(lm, "_SCORE_CHUNK", chunk)
    assert scores() == whole


def test_sample_out_subset_is_seeded():
    general = corpus.Corpus.from_lines(["s%d" % i for i in range(50)])
    a = select.sample_out_subset(general, 10, seed=4)
    b = select.sample_out_subset(general, 10, seed=4)
    c = select.sample_out_subset(general, 10, seed=5)
    assert [s.text for s in a] == [s.text for s in b]
    assert [s.text for s in a] != [s.text for s in c]
    with pytest.raises(ToolkitError):
        select.sample_out_subset(general, 51, seed=0)


def test_select_top_floor_and_ties():
    scores = [0.5, 0.9, 0.5, 0.1, 0.9]
    res = select.select_top(scores, 60, select.HIGHER)
    assert res.indices == [1, 4, 0]  # floor(0.6*5)=3; ties keep input order
    res_low = select.select_top(scores, 40, select.LOWER)
    assert res_low.indices == [3, 0]
    with pytest.raises(ToolkitError):
        select.select_top(scores, 10, select.HIGHER)  # floor -> 0 kept
    with pytest.raises(ToolkitError):
        select.select_top(scores, 0, select.HIGHER)
    with pytest.raises(ToolkitError):
        select.select_top(scores, 101, select.HIGHER)


def test_topk_count_is_exact():
    # float arithmetic gives int(29 / 100.0 * 100) = 28 and int(0.3 / 100.0 * 1000) = 2
    assert select.topk_count(29, 100) == 29
    assert select.topk_count(0.3, 1000) == 3
    assert select.topk_count(29.0, 100) == 29
    assert len(select.select_top(list(range(100)), 29, select.HIGHER).indices) == 29


def test_select_top_prefix_nesting():
    rng = random.Random(31)
    scores = [rng.random() for _ in range(97)]
    previous = []
    for k in (10, 25, 50, 75, 100):
        kept = select.select_top(scores, k, select.LOWER).indices
        assert kept[: len(previous)] == previous
        previous = kept
    assert sorted(previous) == list(range(97))  # K=100 keeps everything


def test_threshold_filter_is_strict():
    scores = [0.2, 0.5, 0.8]
    assert select.threshold_filter(scores, 0.5, select.HIGHER).indices == [2]
    assert select.threshold_filter(scores, 0.5, select.LOWER).indices == [0]


def test_sharded_scoring_is_order_preserving():
    general = corpus.Corpus.from_lines(["a b", "x y", "a a", "b b", "y x", "a b a"])
    in_domain = corpus.Corpus.from_lines(["a b", "b a"])
    base = select.score_cosine(general, in_domain)
    for threads in (2, 3, 8):
        assert select.score_cosine(general, in_domain, threads=threads) == base


def test_score_file_round_trip(tmp_path):
    scores = [0.1, 0.25, 1e-17, 3.5]
    path = tmp_path / "scores.tsv"
    select.write_scores(path, scores, {"criterion": "cosine", "direction": select.HIGHER})
    loaded, meta = select.read_scores(path)
    assert loaded == scores
    assert meta["criterion"] == "cosine"
    assert meta["direction"] == select.HIGHER


def test_score_file_with_an_index_gap_is_an_error(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("0\t0.5\n2\t0.25\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        select.read_scores(path)
    assert str(exc.value) == "%s: missing score indices" % path


def test_selection_file_round_trip(tmp_path):
    res = select.select_top([0.4, 0.9, 0.1], 67, select.HIGHER, criterion="ce")
    path = tmp_path / "sel.txt"
    select.write_selection(path, res, {"k": 67, "seed": 0})
    loaded = select.read_selection(path)
    assert loaded.indices == res.indices
    assert loaded.criterion == "ce"
    assert loaded.direction == select.HIGHER
