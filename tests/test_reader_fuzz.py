"""Every input reader, fed mutated copies of a valid file through the CLI step
that reads it: a run may succeed or fail, but a failure is an `error:` line
and exit 1 (or 2 for usage), never an exception."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusmine import cli, corpus, lm

GENERAL = ("the market fell\nthe dog barked\nthe market rallied 12 points\n"
           "rain fell today\nthe market fell\n")
IN_DOMAIN = "the market fell\nthe market rallied\n"
FILES = {
    "general.txt": GENERAL,
    "in.txt": IN_DOMAIN,
    "factored.txt": "the|the|DT market|market|NN|O fell|fall|VBD\nrain|rain|NN fell|fall\n",
    "parallel.tsv": "the market fell\tle marché a chuté\nrain fell\til a plu\n",
    "scores.tsv": ("# criterion: cosine\n# direction: higher-is-better\n"
                   "0\t0.5\n1\t0.25\n2\t0.75\n3\t0.0\n4\t0.5\n"),
    "selection.txt": "# criterion: cosine\n# direction: higher-is-better\n2\n0\n4\n",
    "other.txt": "# criterion: ml\n1\n2\n",
    "table.txt": "a ||| b ||| 0.5 0.25\nc ||| d ||| 1.0 0.125\n",
    "table2.txt": "a ||| b ||| 0.25 0.5\n",
    "topic.tsv": "market\t3\tFIN\nrain fell\t\tWX\n# comment\n",
    "web.tsv": "d1\tthe market fell again\nd2\tdogs bark loudly\nd3\train fell today\n",
    "coll.tsv": "d1\tthe market fell sharply today\nd2\tdogs bark at night\n"
                "d3\train fell on the plain\n",
    "queries.tsv": "q1\tthe market fell\nq2\train fell\n",
    "gold.tsv": "q1\td1\nq2\td3\n",
    "stop.txt": "the\non\n",
    "lexicon.tsv": "market\tmarché\nfell\ttomba\n",
    "run.cfg": "# defaults\norder=2\nsmoothing=witten-bell\n",
    "pages/p1": "#title\nthe market\n#body\nthe market fell again\nrain fell today\n",
    "pages/p2": "dogs bark loudly\n",
}
# (the file to mutate, the step that reads it)
CASES = [
    ("general.txt", ["train-lm", "--input", "general.txt", "--order", "2", "--output", "o.lm"]),
    ("factored.txt", ["preprocess", "--format", "factored", "--input", "factored.txt",
                      "--output", "o.txt"]),
    ("parallel.tsv", ["estimate-delta", "--input", "parallel.tsv"]),
    ("model.lm", ["perplexity", "--lm", "model.lm", "--input", "general.txt"]),
    ("scores.tsv", ["select", "--scores", "scores.tsv", "--k", "50", "--output", "o.sel"]),
    ("selection.txt", ["combine", "--mode", "corpus", "--selection", "selection.txt",
                       "--selection", "other.txt", "--corpus", "general.txt",
                       "--output", "o.tsv"]),
    ("table.txt", ["combine", "--mode", "tables", "--table", "table.txt",
                   "--table", "table2.txt", "--output", "o.txt"]),
    ("topic.tsv", ["topic-filter", "--collection", "web.tsv", "--topic", "topic.tsv",
                   "--k", "50"]),
    ("web.tsv", ["ppl-filter", "--collection", "web.tsv", "--topic", "topic.tsv",
                 "--k", "50", "--n", "50", "--lm", "model.lm"]),
    ("pages/p1", ["ppl-filter", "--collection", "pages", "--topic", "topic.tsv",
                  "--k", "50", "--n", "50", "--lm", "model.lm"]),
    ("coll.tsv", ["retrieve", "--collection", "coll.tsv", "--queries", "queries.tsv",
                  "--lambda", "0.5", "--n-best", "2"]),
    ("gold.tsv", ["retrieve", "--collection", "coll.tsv", "--queries", "queries.tsv",
                  "--lambda", "0.5", "--n-best", "2", "--gold", "gold.tsv"]),
    ("stop.txt", ["retrieve", "--collection", "coll.tsv", "--queries", "queries.tsv",
                  "--lambda", "0.5", "--n-best", "2", "--stopwords", "stop.txt"]),
    ("lexicon.tsv", ["preprocess", "--input", "general.txt", "--output", "o.txt",
                     "--hyphen-alt", "lexicon.tsv"]),
    ("run.cfg", ["train-lm", "--config", "run.cfg", "--input", "in.txt", "--output", "o.lm"]),
]
NUMBER = re.compile(rb"-?[0-9]+(\.[0-9]+)?")


def _model_text():
    model = lm.train(corpus.Corpus.from_lines(IN_DOMAIN.splitlines()), order=2,
                     smoothing="witten-bell")
    with tempfile.TemporaryDirectory() as d:
        lm.write_model(model, Path(d, "m.lm"))
        return Path(d, "m.lm").read_text(encoding="utf-8")


FILES["model.lm"] = _model_text()


@st.composite
def mutations(draw, data):
    """data with one fault: a byte changed, a cut, a tab dropped or doubled,
    bytes that are not UTF-8, or a number turned into nan or inf."""
    at = draw(st.integers(0, len(data) - 1))
    tabs = [m.start() for m in re.finditer(rb"\t", data)]
    numbers = list(NUMBER.finditer(data))
    kinds = ["flip", "cut", "bytes"] + ["drop tab", "double tab"] * bool(tabs) + (
        ["nan"] * bool(numbers))
    kind = draw(st.sampled_from(kinds))
    if kind == "flip":
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if kind == "cut":
        return data[:at]
    if kind == "bytes":
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    if kind == "nan":
        m = draw(st.sampled_from(numbers))
        word = draw(st.sampled_from([b"nan", b"inf", b"-inf", b"NaN"]))
        return data[:m.start()] + word + data[m.end():]
    t = draw(st.sampled_from(tabs))
    return data[:t] + (b"" if kind == "drop tab" else b"\t") + data[t:]


@st.composite
def mutated_cases(draw):
    name, argv = draw(st.sampled_from(CASES))
    return name, argv, draw(mutations(FILES[name].encode("utf-8")))


def _run(name, argv, data):
    """cli.run(argv) over the files, with the file called name holding data:
    (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as d:
        Path(d, "pages").mkdir()
        for file, text in FILES.items():
            Path(d, file).write_text(text, encoding="utf-8")
        Path(d, name).write_bytes(data)
        argv = [str(Path(d, a)) if a in FILES or a.startswith("o.") or a == "pages" else a
                for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            return cli.run(argv), err.getvalue()


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_each_case_succeeds_on_its_unmutated_files(name, argv):
    # a case that fails on valid files would stop before the reader it fuzzes
    code, err = _run(name, argv, FILES[name].encode("utf-8"))
    assert code == 0, err


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutated_cases())
def test_mutated_inputs_end_in_error_or_success(case):
    code, err = _run(*case)
    assert code in (0, 1, 2)
    assert code == 0 or "error:" in err
