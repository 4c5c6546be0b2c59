"""Corpus model, I/O and preprocessing transforms."""

import ast
import os
import random
import re
import threading
from itertools import accumulate, chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusmine import combine, corpus, lm, retrieve, select, webfilter
from corpusmine.errors import (FormatError, MissingFactorError, ToolkitError, read_lines,
                               write_text)


def test_plain_round_trip(tmp_path):
    lines = ["a b c", "d e", "a b c"]
    p = tmp_path / "c.txt"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    c = corpus.load_corpus(p)
    assert [s.text for s in c] == lines
    out = tmp_path / "out.txt"
    corpus.save_corpus(c, out)
    assert out.read_bytes() == p.read_bytes()


def test_empty_line_rejected(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("a b\n\nc d\n", encoding="utf-8")
    with pytest.raises(FormatError):
        corpus.load_corpus(p)


def test_factored_round_trip(tmp_path):
    line = "John|john|NNP|NP00SP0 's|'s|POS runs|run|VBZ"
    p = tmp_path / "f.txt"
    p.write_text(line + "\n", encoding="utf-8")
    c = corpus.load_corpus(p, format="factored")
    s = c.sentences[0]
    assert s.ne[0] == "NP00SP0"
    assert s.pos[1] == "POS" and s.ne[1] is None
    assert s.factored_text() == line
    out = tmp_path / "out.txt"
    corpus.save_corpus(c, out, format="factored")
    assert out.read_text(encoding="utf-8") == line + "\n"


def test_too_many_factors_rejected():
    with pytest.raises(FormatError):
        corpus.Sentence.from_factored("a|b|c|d|e")


def test_token_validation():
    with pytest.raises(FormatError, match=r"may not contain whitespace or '\|': 'b\|c'"):
        corpus.Sentence.from_plain("a b|c d|e")
    with pytest.raises(FormatError, match="token surface must be non-empty"):
        corpus.Sentence.from_factored("a|a |x")
    with pytest.raises(FormatError, match="at least one token"):
        corpus.Sentence.from_factored("  ")


def test_tsv_parallel_and_two_file(tmp_path):
    tsv = tmp_path / "p.tsv"
    tsv.write_text("a b\tx y z\nc\tw\n", encoding="utf-8")
    pc = corpus.load_corpus(tsv, format="tsv-parallel")
    assert len(pc) == 2
    assert pc.pairs[0].target.text == "x y z"
    assert pc.pairs[0].text == "a b\tx y z"
    out = tmp_path / "out.tsv"
    corpus.save_corpus(pc, out)
    assert out.read_bytes() == tsv.read_bytes()

    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("a b\nc\n", encoding="utf-8")
    tgt.write_text("x y z\nw\n", encoding="utf-8")
    pc2 = corpus.load_parallel(src, tgt)
    assert pc2.pairs == pc.pairs

    tgt.write_text("x y z\n", encoding="utf-8")
    with pytest.raises(FormatError):
        corpus.load_parallel(src, tgt)


def test_token_errors_name_file_and_line(tmp_path):
    tsv = tmp_path / "p.tsv"
    tsv.write_text("a\tb\nc\t\n", encoding="utf-8")
    with pytest.raises(FormatError, match="p.tsv line 2: sentences must contain at least one token"):
        corpus.load_corpus(tsv, format="tsv-parallel")
    src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
    src.write_text("a\nb\n", encoding="utf-8")
    tgt.write_text("x\ny|z\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"t.txt line 2: token surface may not contain"):
        corpus.load_parallel(src, tgt)


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\r"])
def test_lines_end_at_newline_only(tmp_path, separator):
    p = tmp_path / "f.txt"
    p.write_bytes(("a%sb\nc\n" % separator).encode("utf-8"))
    # a text read turns a lone \r into \n, as for every reader
    want = [(1, "a"), (2, "b"), (3, "c")] if separator == "\r" else [(1, "a%sb" % separator), (2, "c")]
    assert list(read_lines(p)) == want
    assert len(corpus.load_corpus(p)) == len(want)
    (tmp_path / "pages").mkdir()
    (tmp_path / "pages" / "p1").write_bytes(b"#body\n" + p.read_bytes())
    page, = webfilter.load_located_collection(tmp_path / "pages")
    assert page.lines("body") == [line for _, line in want]
    # a model file whose lines end at the separator: one line, unless it is \r
    model = tmp_path / "m.lm"
    lm.write_model(lm.train(corpus.load_corpus(p), order=2, smoothing="witten-bell"), model)
    text = model.read_bytes()
    model.write_bytes(text.replace(b"\n", separator.encode("utf-8")))
    if separator != "\r":
        with pytest.raises(FormatError, match=r"missing \\data\\ header"):
            lm.read_model(model)
        return
    lm.write_model(lm.read_model(model), model)
    assert model.read_bytes() == text


def test_non_utf8_byte_past_the_first_block_names_its_position_in_the_file(tmp_path):
    p = tmp_path / "f.txt"
    p.write_bytes(b"good line\n" * 2000 + b"a \xff b\n")
    with pytest.raises(FormatError, match="f.txt line 2001: not valid UTF-8: byte 0xff, "):
        corpus.load_corpus(p)


def _bad_line(path):
    with pytest.raises(FormatError) as err:
        list(read_lines(path))
    return int(re.search(r" line (\d+): not valid UTF-8", str(err.value))[1])


def _pipe(data):
    """The read end of a pipe that a thread fills with data and then closes."""
    read, write = os.pipe()

    def fill():
        try:
            with open(write, "wb") as f:
                f.write(data)
        except BrokenPipeError:  # the reader stopped at the bad byte
            pass

    threading.Thread(target=fill, daemon=True).start()
    return read


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_non_utf8_byte_names_the_same_line_in_a_file_and_a_pipe(tmp_path, eol):
    # read_lines decodes 64 KiB blocks and holds back a \r that ends one; the
    # line breaks here fall on each side of that edge and of the 8 KiB one, a
    # character cut by the edge among them
    path = tmp_path / "f.txt"
    for edge in chain(range(8188, 8196), range(65532, 65540)):
        for after in (b"", b"x", b"\xc3\xa9", eol):
            head = b"".join(b"a" * (i % 7) + eol for i in range(edge // 8))
            head += b"b" * (edge - len(head) - len(eol)) + eol
            data = head + after + b"c \xff d" + eol + b"e" + eol
            want = 1 + len(re.findall(rb"\r\n|\r|\n", data[:data.index(b"\xff")]))
            path.write_bytes(data)
            read = _pipe(data)
            try:
                assert _bad_line(path) == _bad_line("/dev/fd/%d" % read) == want
            finally:
                os.close(read)


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_a_line_longer_than_a_block_is_read_whole(tmp_path, eol):
    # read_lines reads 64 KiB at a time; these lines span several reads
    long = "\u00e9" * 100_000 + "x"
    path = tmp_path / "f.txt"
    path.write_bytes(b"a" + eol + long.encode("utf-8") + eol + b"b" + eol + long.encode("utf-8"))
    assert list(read_lines(path)) == [(1, "a"), (2, long), (3, "b"), (4, long)]


def test_write_text_that_fails_partway_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")

    def sections():
        yield "new\n"
        raise FormatError("broken section")

    with pytest.raises(FormatError):
        write_text(path, sections())
    assert path.read_bytes() == b"old\n"
    assert not list(tmp_path.glob("*.tmp"))
    write_text(path, iter(["a\n", "b\n"]))
    assert path.read_bytes() == b"a\nb\n"


def test_loaded_tokens_are_interned(tmp_path):
    # a corpus holds one string object per type, whichever reader loaded it
    (tmp_path / "plain.txt").write_text("the market fell\nthe market rose\n", encoding="utf-8")
    (tmp_path / "factored.txt").write_text("the|the|DT market|market|NN\n"
                                           "market|market|NN\n", encoding="utf-8")
    (tmp_path / "pairs.tsv").write_text("the market\tle march\u00e9\n"
                                        "market\tmarch\u00e9\n", encoding="utf-8")
    plain = corpus.load_corpus(tmp_path / "plain.txt")
    factored = corpus.load_corpus(tmp_path / "factored.txt", format="factored")
    pairs = corpus.load_corpus(tmp_path / "pairs.tsv", format="tsv-parallel")
    two_file = corpus.load_parallel(tmp_path / "plain.txt", tmp_path / "plain.txt")
    tokens = [t for s in plain for t in s.surface]
    tokens += [t for s in factored for stream in (s.surface, s.lemma) for t in stream]
    tokens += [t for p in list(pairs) + list(two_file) for t in p.source.surface + p.target.surface]
    for word in ("the", "market"):
        same = [t for t in tokens if t == word]
        assert len(same) > 4 and all(t is same[0] for t in same)
    assert factored.sentences[0].pos[1] is factored.sentences[1].pos[0]
    # a sentence keeps its four streams in slots, with no dict per instance
    assert not any(hasattr(s, "__dict__") for s in plain.sentences + factored.sentences)
    # equality, hashing and dedup do not depend on object identity
    built = corpus.Sentence(tuple("".join(w) for w in (["t", "he"], ["mar", "ket"], ["fell"])))
    assert built == plain.sentences[0] and hash(built) == hash(plain.sentences[0])
    doubled = corpus.Corpus(plain.sentences + (built,) + two_file.source_corpus().sentences)
    assert corpus.dedup(doubled).sentences == plain.sentences


_WORD_LISTS = st.lists(st.lists(st.sampled_from("a b c d e".split()), max_size=5), max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seeded=st.lists(st.sampled_from("a c x".split()), unique=True), first=_WORD_LISTS,
       second=_WORD_LISTS)
def test_encode_numbers_words_by_first_use_over_one_table(seeded, first, second):
    table = {w: i for i, w in enumerate(seeded)}
    encoded = [corpus.encode(first, table)]
    ids_of_first = dict(table)
    encoded.append(corpus.encode(second, table))
    words = list(table)
    assert words == list(dict.fromkeys(chain(seeded, *first, *second)))
    assert table == {w: i for i, w in enumerate(words)}
    assert ids_of_first == {w: table[w] for w in ids_of_first}  # a second call renumbers nothing
    for sentences, (ids, ends) in zip((first, second), encoded):
        assert list(ends) == list(accumulate(map(len, sentences)))
        assert [[words[i] for i in ids[a:b]] for a, b in zip([0, *ends], ends)] == sentences
    seen = [{w: i for w, i in zip(chain(*s), ids)} for s, (ids, _) in zip((first, second), encoded)]
    assert all(seen[0][w] == seen[1][w] for w in seen[0].keys() & seen[1].keys())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seeded=st.lists(st.sampled_from("a c x".split()), unique=True), sentences=_WORD_LISTS)
def test_encode_over_a_fixed_table_gives_unk_to_the_words_it_lacks(seeded, sentences):
    table = {w: i for i, w in enumerate(seeded)}
    ids, ends = corpus.encode(sentences, table, unk=-1)
    assert table == {w: i for i, w in enumerate(seeded)}  # the table does not grow
    assert list(ends) == list(accumulate(map(len, sentences)))
    assert list(ids) == [table.get(w, -1) for w in chain(*sentences)]


def test_corpus_encode_is_the_only_word_id_encoder():
    # a d.setdefault(word, len(d)) call numbers words, as does a d[word] = len(...)
    # assignment (len of d or of a list kept in step with it): only corpus.encode may
    def is_len(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len"

    def encoders(node, module, where):  # module.function of each such call
        for child in ast.iter_child_nodes(node):
            func, args = getattr(child, "func", None), getattr(child, "args", None)
            if (isinstance(func, ast.Attribute) and func.attr == "setdefault" and len(args) == 2
                    and is_len(args[1])
                    and [ast.dump(a) for a in args[1].args] == [ast.dump(func.value)]):
                yield "%s.%s" % (module, where)
            if (isinstance(child, ast.Assign) and is_len(child.value)
                    and any(isinstance(t, ast.Subscript) for t in child.targets)):
                yield "%s.%s" % (module, where)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from encoders(child, module, child.name if named else where)

    src = Path(corpus.__file__).resolve().parent
    found = [caller for path in sorted(src.glob("*.py"))
             for caller in encoders(ast.parse(path.read_text(encoding="utf-8")), path.stem,
                                    "<module>")]
    assert found == ["corpus.encode"]


def test_dedup_keeps_first_occurrence():
    c = corpus.Corpus.from_lines(["a b", "c", "a b", "c", "d"])
    assert [s.text for s in corpus.dedup(c)] == ["a b", "c", "d"]


def test_dedup_parallel_compares_both_sides():
    pc = corpus.ParallelCorpus(
        (
            corpus.SentencePair(corpus.Sentence.from_plain("a"), corpus.Sentence.from_plain("x")),
            corpus.SentencePair(corpus.Sentence.from_plain("a"), corpus.Sentence.from_plain("y")),
            corpus.SentencePair(corpus.Sentence.from_plain("a"), corpus.Sentence.from_plain("x")),
        )
    )
    deduped = corpus.dedup(pc)
    assert len(deduped) == 2
    assert deduped.pairs[1].target.text == "y"


def test_length_filter_drops_either_side():
    def pair(ns, nt):
        return corpus.SentencePair(
            corpus.Sentence.from_plain(" ".join(["w"] * ns)),
            corpus.Sentence.from_plain(" ".join(["w"] * nt)),
        )

    pc = corpus.ParallelCorpus((pair(3, 3), pair(4, 3), pair(3, 4), pair(4, 4)))
    kept = corpus.length_filter(pc, max_len=3)
    assert len(kept) == 1
    # exactly max_len tokens survive
    assert len(corpus.length_filter(pc, max_len=4)) == 4


def test_normalize_numbers_digit_runs():
    s = corpus.Sentence.from_plain("Vitamin D 1,25-OH level 300")
    out = corpus.normalize_numbers(s)
    assert out.text == "Vitamin D @num@,@num@-OH level @num@"


def test_normalize_numbers_keeps_factors():
    s = corpus.Sentence.from_factored("12|twelve|CD")
    out = corpus.normalize_numbers(s)
    assert out.surface[0] == "@num@"
    assert out.lemma[0] == "twelve"
    same = corpus.Sentence.from_factored("twelve|12|CD")  # digits outside the surface
    assert corpus.normalize_numbers(same) is same


def test_normalize_apostrophes():
    s = corpus.Sentence.from_plain("country’s debt")
    assert corpus.normalize_apostrophes(s).text == "country's debt"
    # the factors are carried over as they are
    f = corpus.Sentence.from_factored("country’s|country|NN debt|debt|NN")
    got = corpus.normalize_apostrophes(f)
    assert got.factored_text() == "country's|country|NN debt|debt|NN"
    assert (got.lemma, got.pos, got.ne) == (f.lemma, f.pos, f.ne)


def test_hyphen_alt_markup():
    lex = {"slow": "lento", "growing": "creciente", "self": "auto"}
    s = corpus.Sentence.from_plain("a slow-growing economy")
    assert (
        corpus.hyphen_alt_markup(s, lex)
        == 'a <alt trans="lento creciente">slow-growing</alt> economy'
    )
    # any untranslatable part leaves the token unchanged
    s2 = corpus.Sentence.from_plain("fast-growing self-slow")
    assert corpus.hyphen_alt_markup(s2, lex) == 'fast-growing <alt trans="auto lento">self-slow</alt>'
    # leading/trailing hyphens are not split points
    s3 = corpus.Sentence.from_plain("-slow slow- --")
    assert corpus.hyphen_alt_markup(s3, lex) == "-slow slow- --"


def test_lexicon_first_translation_wins(tmp_path):
    p = tmp_path / "lex.tsv"
    p.write_text("slow\tlento\nslow\tdespacio\n", encoding="utf-8")
    assert corpus.load_lexicon(p)["slow"] == "lento"


FACTORED_LINES = [
    "America|america|NNP|NP00G00 's|'s|POS savings|saving|NNS rate|rate|NN .|.|Fp",
    "rates|rate|NNS fell|fall|VBD .|.|Fp",
]


def test_factor_views():
    c = corpus.Corpus(tuple(corpus.Sentence.from_factored(l) for l in FACTORED_LINES), id="x")
    assert corpus.factor_view(c, "f").sentences[0].text == "America 's savings rate ."
    assert corpus.factor_view(c, "fn").sentences[0].text == "NP00G00 's savings rate ."
    assert corpus.factor_view(c, "l").sentences[0].text == "america 's saving rate ."
    assert corpus.factor_view(c, "ln").sentences[0].text == "NP00G00 's saving rate ."
    assert corpus.factor_view(c, "t").sentences[0].text == "NNP POS NNS NN Fp"
    assert corpus.factor_view(c, "tn").sentences[0].text == "NP00G00 POS NNS NN Fp"
    # the non-NE sentence is identical under t and tn
    assert corpus.factor_view(c, "tn").sentences[1].text == "NNS VBD Fp"


def test_factor_view_missing_factors():
    plain = corpus.Corpus.from_lines(["a b"], id="plain")
    with pytest.raises(MissingFactorError):
        corpus.factor_view(plain, "l")
    with pytest.raises(MissingFactorError):
        corpus.factor_view(plain, "t")
    # *n views require at least one NE-bearing token
    no_ne = corpus.Corpus(
        (corpus.Sentence.from_factored("a|a|DT b|b|NN"),), id="no-ne"
    )
    with pytest.raises(MissingFactorError):
        corpus.factor_view(no_ne, "tn")
    with pytest.raises(MissingFactorError):
        corpus.factor_view(no_ne, "bogus")


def test_random_round_trips():
    rng = random.Random(7)
    vocab = ["alpha", "beta", "gamma", "x1", "y-2", "z'3"]
    for _ in range(50):
        lines = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 12)))
            for _ in range(rng.randint(1, 20))
        ]
        c = corpus.Corpus.from_lines(lines)
        assert [s.text for s in c] == lines
        assert [s.text for s in corpus.dedup(c)] == list(dict.fromkeys(lines))


# one factored token: surface, then lemma, POS and NE, each possibly absent
_TOKEN = st.tuples(
    st.sampled_from(["a", "b", "x1", "22", "c-3"]),
    st.sampled_from([None, "a", "b7"]),
    st.sampled_from([None, "NN", "CD"]),
    st.sampled_from([None, "PER", "LOC"]),
)
_SENTENCES = st.lists(st.lists(_TOKEN, min_size=1, max_size=5), min_size=1, max_size=4)


def _chunk(token):
    parts = [f or "" for f in token]
    while len(parts) > 1 and parts[-1] == "":
        parts.pop()  # trailing factors are omitted
    return "|".join(parts)


def _expected_view(sentences, view):
    """Per-token projection, or the MissingFactorError message it raises."""
    if view.endswith("n") and not any(t[3] for s in sentences for t in s):
        return "view %r requires NE factors but no token in 'c' carries one" % view
    base = "flt".index(view[0])
    out = []
    for s in sentences:
        words = []
        for t in s:
            w = t[3] if view.endswith("n") and t[3] else t[base]
            if w is None:
                return "token %r has no %s factor" % (t[0], ["", "lemma", "POS"][base])
            words.append(w)
        out.append(" ".join(words))
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sentences=_SENTENCES)
def test_factor_streams_match_per_token_model(sentences):
    lines = [" ".join(_chunk(t) for t in s) for s in sentences]
    parsed = [corpus.Sentence.from_factored(l) for l in lines]
    c = corpus.Corpus(tuple(parsed), id="c")
    assert [s.factored_text() for s in parsed] == lines
    for view in corpus.FACTOR_VIEWS:
        want = _expected_view(sentences, view)
        if isinstance(want, str):
            with pytest.raises(MissingFactorError) as err:
                corpus.factor_view(c, view)
            assert str(err.value) == want
        else:
            assert [s.text for s in corpus.factor_view(c, view)] == want
    for s, toks in zip(parsed, sentences):
        out = corpus.normalize_numbers(s)
        assert out.surface == tuple(re.sub("[0-9]+", "@num@", t[0]) for t in toks)
        assert (out.lemma, out.pos, out.ne) == (s.lemma, s.pos, s.ne)
        # a factored line without factors is the plain line
        text = " ".join(t[0] for t in toks)
        plain, bare = corpus.Sentence.from_plain(text), corpus.Sentence.from_factored(text)
        assert plain == bare and hash(plain) == hash(bare)
        assert len(corpus.dedup(corpus.Corpus((plain, bare)))) == 1


_DATA = corpus.Corpus.from_lines(["a b", "b c a"])


@pytest.mark.parametrize("call, message", [
    (lambda: combine.interpolate_tables([], []), "need at least one table"),
    (lambda: combine.combine_advanced_lm([], _DATA), "need at least one source set"),
    (lambda: corpus.load_corpus("c.txt", format="xml"), "unknown corpus format 'xml'"),
    (lambda: lm.MixtureModel([], []), "mixture needs at least one component"),
    (lambda: lm.MixtureModel([lm.train(_DATA, order=1)], [0.5, 0.5]),
     "weight count does not match component count"),
    (lambda: lm.MixtureModel([lm.train(_DATA, order=1)] * 2, [-0.5, 1.5]),
     "mixture weights must be non-negative"),
    (lambda: lm.interpolate([], _DATA), "need at least one model to interpolate"),
    (lambda: retrieve.length_filter_candidates(
        0, retrieve.DocumentIndex([retrieve.Document("d", ("a",))]),
        retrieve.LengthFilterParams(0.1)), "source length must be >= 1"),
    (lambda: select.score_cosine([], _DATA), "both corpora must be non-empty"),
    (lambda: select.score_fms(_DATA, []), "reference corpus must be non-empty"),
    (lambda: select.score("bleu", _DATA, _DATA), "unknown criterion 'bleu'"),
], ids=["no-table", "no-source-set", "corpus-format", "no-component", "weight-count",
        "negative-weight", "no-model", "source-length", "empty-cosine", "empty-fms",
        "criterion"])
def test_library_guards_name_the_fault(call, message):
    # each check that only a library caller can reach; a step checks its own
    with pytest.raises(ToolkitError) as fault:
        call()
    assert str(fault.value) == message


def test_records_are_not_equal_to_tuples():
    assert corpus.Sentence(("a",)) != ("a",)
    pair = corpus.SentencePair(corpus.Sentence(("a",)), corpus.Sentence(("b",)))
    assert pair != (pair.source, pair.target)
