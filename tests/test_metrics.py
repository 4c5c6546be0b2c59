"""BLEU and corpus diagnostics."""

import math
import random
from collections import Counter

import pytest

from corpusmine import metrics
from corpusmine.errors import ToolkitError


def _oracle_bleu(hyps, refs, max_n=4):
    matched = [0] * (max_n + 1)
    total = [0] * (max_n + 1)
    len_out = sum(len(h) for h in hyps)
    len_ref = sum(len(r) for r in refs)
    for h, r in zip(hyps, refs):
        for n in range(1, max_n + 1):
            hc = Counter(tuple(h[i : i + n]) for i in range(len(h) - n + 1))
            rc = Counter(tuple(r[i : i + n]) for i in range(len(r) - n + 1))
            for g, c in hc.items():
                total[n] += c
                matched[n] += min(c, rc[g])
    ps = [matched[n] / total[n] if total[n] else 0.0 for n in range(1, max_n + 1)]
    bp = min(1.0, math.exp(1.0 - len_ref / len_out))
    if any(p == 0 for p in ps):
        return ps, bp, 0.0
    return ps, bp, bp * math.exp(sum(math.log(p) for p in ps) / max_n)


def test_identical_corpora_score_one():
    rep = metrics.bleu(
        ["the cat sat on the mat", "a dog barked loudly"],
        ["the cat sat on the mat", "a dog barked loudly"],
    )
    assert rep.score == 1.0
    assert rep.precisions == (1.0, 1.0, 1.0, 1.0)
    assert rep.brevity_penalty == 1.0


def test_two_sentence_hand_case_matches_oracle():
    hyps = ["the the cat sat on mat".split(), "a dog barked".split()]
    refs = ["the cat sat on the mat".split(), "the dog barked loudly".split()]
    ps, bp, score = _oracle_bleu(hyps, refs)
    rep = metrics.bleu(hyps, refs)
    for got, want in zip(rep.precisions, ps):
        assert abs(got - want) < 1e-12
    assert abs(rep.brevity_penalty - bp) < 1e-12
    assert abs(rep.score - score) < 1e-12


def test_zero_precision_and_smoothing():
    rep = metrics.bleu(["a b"], ["c d"])
    assert rep.score == 0.0
    smoothed = metrics.bleu(["a b"], ["c d"], smooth=True)
    assert smoothed.score > 0.0


def test_brevity_penalty_direction():
    short = metrics.bleu(["the cat"], ["the cat sat on the mat"])
    assert short.brevity_penalty == pytest.approx(math.exp(1.0 - 6.0 / 2.0))
    longer = metrics.bleu(["the cat sat on the mat here now"], ["the cat sat on the mat"])
    assert longer.brevity_penalty == 1.0  # never rewards length


def test_bleu_permutation_invariance():
    rng = random.Random(37)
    vocab = ["w%d" % i for i in range(8)]
    hyps = [[rng.choice(vocab) for _ in range(rng.randint(4, 9))] for _ in range(6)]
    refs = [[rng.choice(vocab) for _ in range(rng.randint(4, 9))] for _ in range(6)]
    base = metrics.bleu(hyps, refs)
    order = list(range(6))
    rng.shuffle(order)
    shuffled = metrics.bleu([hyps[i] for i in order], [refs[i] for i in order])
    assert shuffled.score == pytest.approx(base.score, abs=1e-15)


def test_bleu_input_validation():
    with pytest.raises(ToolkitError):
        metrics.bleu(["a"], ["a", "b"])
    with pytest.raises(ToolkitError):
        metrics.bleu([], [])


def test_vocab_stats():
    tokens, types, ratio = metrics.vocab_stats(["a b a", "c a"])
    assert (tokens, types) == (5, 3)
    assert ratio == pytest.approx(0.6)
    with pytest.raises(ToolkitError):
        metrics.vocab_stats([])


def test_oov_ratio():
    assert metrics.oov_ratio(["a b"], ["a a c"]) == 1 / 3
    assert metrics.oov_ratio(["a b"], ["a a c"], by_type=True) == 1 / 2
    assert metrics.oov_ratio(["a"], ["a a a"]) == 0.0
    assert metrics.oov_ratio(["a b", "x"], ["c a d c", "b y"], by_type=True) == 3 / 5
    assert metrics.oov_ratio([], ["c a d c", "b y"]) == 6 / 6


@pytest.mark.parametrize("by_type", [False, True])
def test_oov_ratio_of_an_empty_test_corpus_is_an_error(by_type):
    with pytest.raises(ToolkitError, match="test corpus is empty"):
        metrics.oov_ratio(["a b"], [], by_type=by_type)


def test_overlap_stats_set_oracle():
    rng = random.Random(43)
    for _ in range(30):
        sets = [
            {rng.randint(0, 20) for _ in range(rng.randint(1, 12))}
            for _ in range(rng.randint(2, 4))
        ]
        overlap, uniques = metrics.overlap_stats(sets)
        union = set().union(*sets)
        inter = sets[0].intersection(*sets[1:])
        assert overlap == pytest.approx(len(inter) / len(union))
        for i, s in enumerate(sets):
            rest = set().union(*(t for j, t in enumerate(sets) if j != i))
            assert uniques[i] == pytest.approx(len(s - rest) / len(s))
    with pytest.raises(ToolkitError):
        metrics.overlap_stats([{1}])


def test_format_table_alignment():
    out = metrics.format_table(("metric", "value"), [("tokens", 123), ("oov", 0.5)])
    lines = out.splitlines()
    assert lines[0].startswith("metric")
    assert all(len(l.split()) == 2 for l in lines)
