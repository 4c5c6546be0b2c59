"""Hybrid combination: weighted unions, rank merges and table/LM interpolation."""

import math
import random

import pytest

from corpusmine import combine, corpus, lm, select
from corpusmine.errors import FormatError, ToolkitError


def _selection(indices, criterion):
    return select.SelectionResult(list(indices), criterion, select.HIGHER)


GENERAL = corpus.Corpus.from_lines(["s%d" % i for i in range(10)])


def test_weighted_union_sums_criterion_weights():
    sels = [_selection([0, 1], "cosine"), _selection([1, 2], "ce"), _selection([1], "fms")]
    wc = combine.combine_corpus_weighted(sels, GENERAL, [1.0, 1.0, 1.0])
    by_text = {e.item.text: e for e in wc.entries}
    assert by_text["s0"].weight == 1.0
    assert by_text["s1"].weight == 3.0
    assert set(by_text["s1"].provenance) == {"cosine", "ce", "fms"}
    assert by_text["s2"].weight == 1.0
    # entries come out in corpus order
    assert [e.item.text for e in wc.entries] == ["s0", "s1", "s2"]


def test_weighted_union_drops_zero_weight():
    sels = [_selection([0, 3], "cosine"), _selection([3], "ce")]
    wc = combine.combine_corpus_weighted(sels, GENERAL, [2.0, 0.0])
    weights = {e.item.text: e.weight for e in wc.entries}
    assert weights == {"s0": 2.0, "s3": 2.0}
    sels2 = [_selection([5], "ce")]
    assert combine.combine_corpus_weighted(sels2, GENERAL, [0.0]).entries == []
    with pytest.raises(ToolkitError):
        combine.combine_corpus_weighted(sels, GENERAL, [1.0])


def test_weighted_union_total_mass_on_disjoint_selections():
    rng = random.Random(13)
    for _ in range(20):
        indices = list(range(10))
        rng.shuffle(indices)
        parts = [indices[:3], indices[3:5], indices[5:9]]
        weights = [rng.randint(1, 4) * 1.0 for _ in parts]
        wc = combine.combine_corpus_weighted(
            [_selection(p, "c%d" % i) for i, p in enumerate(parts)], GENERAL, weights
        )
        mass = sum(e.weight for e in wc.entries)
        assert mass == sum(w * len(p) for w, p in zip(weights, parts))


def test_naive_rank_round_robin():
    assert combine.combine_naive_rank([["a", "b", "c"], ["b", "d", "c"]], 4) == ["a", "b", "d", "c"]
    assert combine.combine_naive_rank([["a", "b", "c"]], 2) == ["a", "b"]
    assert combine.combine_naive_rank([["a", "b"], ["a", "b"]], 2) == ["a", "b"]
    with pytest.raises(ToolkitError, match=r"target_size 3 exceeds the union of all lists \(2\)"):
        combine.combine_naive_rank([["a", "b"], ["b"]], 3)
    with pytest.raises(ToolkitError, match="target_size must be >= 1"):
        combine.combine_naive_rank([["a", "b"]], 0)


def test_naive_rank_preserves_per_list_order():
    rng = random.Random(41)
    items = list(range(30))
    for _ in range(25):
        pool = rng.sample(items, rng.randint(6, 24))
        cut1 = rng.randint(1, len(pool) - 2)
        cut2 = rng.randint(cut1 + 1, len(pool) - 1)
        lists = [pool[:cut1], pool[cut1:cut2], pool[cut2:]]  # disjoint lists
        union = {x for lst in lists for x in lst}
        size = rng.randint(1, len(union))
        merged = combine.combine_naive_rank(lists, size)
        assert len(merged) == size and len(set(merged)) == size
        for lst in lists:
            positions = [merged.index(x) for x in lst if x in merged]
            assert positions == sorted(positions)


def _table(rows):
    return {k: tuple(v) for k, v in rows.items()}


def test_interpolate_tables_mean_and_missing_rows():
    t1 = _table({("a", "x"): (0.4, 0.2), ("b", "y"): (1.0, 1.0)})
    t2 = _table({("a", "x"): (0.8, 0.6)})
    out = combine.interpolate_tables([t1, t2], [0.5, 0.5])
    assert out[("a", "x")] == pytest.approx((0.6, 0.4))
    assert out[("b", "y")] == pytest.approx((0.5, 0.5))  # missing row is 0
    # point mass reproduces the table on its own keys
    ident = combine.interpolate_tables([t1, t2], [1.0, 0.0])
    assert ident[("a", "x")] == pytest.approx(t1[("a", "x")])
    # weights normalize before use
    out2 = combine.interpolate_tables([t1, t2], [2.0, 2.0])
    assert out2[("a", "x")] == pytest.approx(out[("a", "x")])


def test_interpolate_tables_is_linear():
    t1 = _table({("a", "x"): (0.4,)})
    t2 = _table({("a", "x"): (0.8,)})
    t3 = _table({("a", "x"): (0.1,)})
    inner = combine.interpolate_tables([t1, t2], [0.25, 0.75])
    nested = combine.interpolate_tables([inner, t3], [0.6, 0.4])
    flat = combine.interpolate_tables([t1, t2, t3], [0.15, 0.45, 0.4])
    for k in flat:
        assert abs(nested[k][0] - flat[k][0]) < 1e-12


def test_interpolate_tables_adds_each_key_in_table_order():
    # a key's scores are summed from 0.0 in table order, as a walk over the
    # union of keys would sum them, so the written table keeps its bytes
    rng = random.Random(29)
    keys = [("s%d" % i, "t%d" % j) for i in range(8) for j in range(4)]
    tables = [_table({k: [rng.random() for _ in range(3)] for k in rng.sample(keys, 20)})
              for _ in range(4)]
    weights = [0.3, 1.7, 0.123, 2.0]
    out = combine.interpolate_tables(tables, weights)
    assert set(out) == set().union(*tables)
    for key, scores in out.items():
        expected = [0.0] * 3
        for t, w in zip(tables, weights):
            for i, s in enumerate(t.get(key, ())):
                expected[i] += w / sum(weights) * s
        assert scores == tuple(expected)


def test_interpolate_tables_rejects_a_negative_weight():
    t1 = _table({("a", "x"): (0.5, 0.4)})
    t2 = _table({("a", "x"): (0.2, 0.1)})
    for weights in ([2.0, -1.0], [-1.0, 2.0]):  # an extrapolation, or a negative row
        with pytest.raises(ToolkitError, match="non-negative"):
            combine.interpolate_tables([t1, t2], weights)


def test_interpolate_tables_arity_mismatch():
    with pytest.raises(FormatError):
        combine.interpolate_tables(
            [_table({("a", "x"): (0.4, 0.2)}), _table({("a", "x"): (0.8,)})], [0.5, 0.5]
        )
    with pytest.raises(FormatError, match=r"row \('a', 'y'\) has arity 1, expected 2"):
        combine.interpolate_tables([_table({("a", "x"): (0.4, 0.2), ("a", "y"): (0.1,)})], [1.0])
    with pytest.raises(FormatError, match=r"row \('a', 'x'\) has a negative score"):
        combine.interpolate_tables([_table({("a", "x"): (-0.1,)})], [1.0])


def test_table_file_round_trip(tmp_path):
    t = _table({("a b", "x"): (0.5, 0.25), ("c", "y z"): (1.0, 0.125)})
    path = tmp_path / "t.txt"
    combine.write_table(t, path)
    text = path.read_text(encoding="utf-8")
    assert "a b ||| x ||| 0.5 0.25" in text
    loaded = combine.read_table(path)
    assert loaded == t
    # rows are emitted sorted, so write(read(x)) is byte-identical
    path2 = tmp_path / "t2.txt"
    combine.write_table(loaded, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_write_weighted_corpus(tmp_path):
    wc = combine.combine_corpus_weighted(
        [_selection([0, 2], "cosine"), _selection([2], "ce")], GENERAL, [1.0, 1.0]
    )
    plain = tmp_path / "w.tsv"
    combine.write_weighted_corpus(wc, plain)
    lines = plain.read_text(encoding="utf-8").splitlines()
    assert lines == ["1.0\tcosine\ts0", "2.0\tcosine,ce\ts2"]
    repl = tmp_path / "r.txt"
    combine.write_weighted_corpus(wc, repl, replicate=True)
    assert repl.read_text(encoding="utf-8").splitlines() == ["s0", "s2", "s2"]


def test_combine_advanced_lm():
    set1 = corpus.Corpus.from_lines(["a b a b", "b a b a", "a a b b"])
    set2 = corpus.Corpus.from_lines(["c d c d", "d c d c", "c c d d"])
    dev = corpus.Corpus.from_lines(["a b a", "a b"])
    mix = combine.combine_advanced_lm([set1, set2], dev, order=2, smoothing="witten-bell")
    assert len(mix.components) == 2
    assert mix.weights[0] > mix.weights[1]
    assert math.isclose(sum(mix.weights), 1.0, abs_tol=1e-9)
    single = combine.combine_advanced_lm([set1], dev, order=2, smoothing="witten-bell")
    assert single.weights == [1.0]


def test_combine_advanced_lm_shares_one_vocabulary():
    set1 = corpus.Corpus.from_lines(["a b a b", "b a b a", "a a b b"])
    set2 = corpus.Corpus.from_lines(["c d c d", "d c d c", "c c d e"])
    dev = corpus.Corpus.from_lines(["a b c", "d a b"])
    for smoothing in ("witten-bell", "modified-kneser-ney"):
        mix = combine.combine_advanced_lm([set1, set2], dev, order=2, smoothing=smoothing)
        symbols = [c.vocab.event_symbols() for c in mix.components]
        assert symbols[0] == symbols[1]
        assert set(symbols[0]) >= {"a", "b", "c", "d", "e"}
        for history in ((), ("a",), ("c",), ("e",), ("zz",)):
            total = sum(mix.prob(w, history) for w in symbols[0])
            assert math.isclose(total, 1.0, rel_tol=1e-9), (smoothing, history, total)
