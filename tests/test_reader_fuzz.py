"""Every input reader, fed mutated copies of a valid file through the CLI step
that reads it: a run may succeed or fail, but a failure is an `error:` line
and exit 1 (or 2 for usage), never an exception."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
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
# numbers at the edges: zero, negative, past 2^53 and 2^63, the largest floats, not finite
EDGE_NUMBERS = ["0", "-1", "1000000000000000", "9223372036854775808", "1e308", "-1e308", "nan",
                "inf"]


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
    bytes that are not UTF-8, or a number turned into an edge number."""
    at = draw(st.integers(0, len(data) - 1))
    tabs = [m.start() for m in re.finditer(rb"\t", data)]
    numbers = list(NUMBER.finditer(data))
    kinds = ["flip", "cut", "bytes"] + ["drop tab", "double tab"] * bool(tabs) + (
        ["number"] * bool(numbers))
    kind = draw(st.sampled_from(kinds))
    if kind == "flip":
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if kind == "cut":
        return data[:at]
    if kind == "bytes":
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    if kind == "number":
        m = draw(st.sampled_from(numbers))
        word = draw(st.sampled_from([w.encode() for w in EDGE_NUMBERS] + [b"-inf", b"NaN"]))
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


# (option, a step that reads it over FILES, with VALUE where the option's value goes)
OPTION_CASES = [
    ("select --k", ["select", "--scores", "scores.tsv", "--k=VALUE", "--output", "o.sel"]),
    ("select --theta", ["select", "--scores", "scores.tsv", "--theta=VALUE", "--output", "o.sel"]),
    ("topic-filter --k", ["topic-filter", "--collection", "web.tsv", "--topic", "topic.tsv",
                          "--k=VALUE"]),
    ("ppl-filter --n", ["ppl-filter", "--collection", "web.tsv", "--topic", "topic.tsv",
                        "--k", "50", "--n=VALUE", "--lm", "model.lm"]),
    ("retrieve --n-best", ["retrieve", "--collection", "coll.tsv", "--queries", "queries.tsv",
                           "--lambda", "0.5", "--n-best=VALUE"]),
    ("retrieve --lambda", ["retrieve", "--collection", "coll.tsv", "--queries", "queries.tsv",
                           "--lambda=VALUE", "--n-best", "2"]),
    ("retrieve --delta", ["retrieve", "--collection", "coll.tsv", "--queries", "queries.tsv",
                          "--lambda", "0.5", "--n-best", "2", "--delta=VALUE"]),
    ("retrieve --multiplier", ["retrieve", "--collection", "coll.tsv", "--queries",
                               "queries.tsv", "--lambda", "0.5", "--n-best", "2",
                               "--delta", "0.2", "--multiplier=VALUE"]),
    ("combine --target-size", ["combine", "--mode", "naive-rank", "--selection", "selection.txt",
                               "--selection", "other.txt", "--target-size=VALUE",
                               "--output", "o.txt"]),
    ("combine --weights", ["combine", "--mode", "corpus", "--selection", "selection.txt",
                           "--corpus", "general.txt", "--weights=VALUE", "--output", "o.tsv"]),
    ("combine --weights --replicate", ["combine", "--mode", "corpus", "--selection",
                                       "selection.txt", "--corpus", "general.txt",
                                       "--weights=VALUE", "--replicate", "--output", "o.txt"]),
    ("combine --weights 1,VALUE", ["combine", "--mode", "tables", "--table", "table.txt",
                                   "--table", "table2.txt", "--weights=1,VALUE",
                                   "--output", "o.txt"]),
    ("lm-interp --order", ["combine", "--mode", "lm-interp", "--set", "general.txt", "--set",
                           "in.txt", "--dev", "in.txt", "--order=VALUE", "--output", "o.txt"]),
    ("train-lm --order", ["train-lm", "--input", "general.txt", "--order=VALUE",
                          "--output", "o.lm"]),
    ("score --fms-cutoff", ["score", "--criterion", "fms", "--general", "general.txt",
                            "--in-domain", "in.txt", "--fms-cutoff=VALUE", "--output", "o.tsv"]),
    ("score --seed", ["score", "--criterion", "ml", "--general", "general.txt", "--in-domain",
                      "in.txt", "--order", "2", "--seed=VALUE", "--output", "o.tsv"]),
    ("preprocess --max-len", ["preprocess", "--input", "parallel.tsv", "--format",
                              "tsv-parallel", "--max-len=VALUE", "--output", "o.txt"]),
]

# The child's budget for the whole sweep: memory, CPU seconds, and the size of any one file.
_SWEEP = """
import json, resource, signal, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
resource.setrlimit(resource.RLIMIT_CPU, (60, 60))
resource.setrlimit(resource.RLIMIT_FSIZE, (64 << 20, 64 << 20))
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG
import test_reader_fuzz
for name, argv in json.load(sys.stdin):
    try:  # every file as FILES holds it
        code, err = test_reader_fuzz._run("in.txt", argv, test_reader_fuzz.IN_DOMAIN.encode())
    except Exception as exc:
        code, err = None, repr(exc)
    print(json.dumps([name, code, err]), flush=True)
"""


def test_edge_numbers_in_each_numeric_option_end_within_a_budget():
    # each option takes each edge number; one child process runs them all
    # under its own rlimits, and a case passes on exit 0, or on exit 1 or 2
    # with an error line, within the budget
    cases = [("%s=%s" % (name, value), [a.replace("VALUE", value) for a in argv])
             for name, argv in OPTION_CASES for value in EDGE_NUMBERS]
    path = [Path(cli.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)), OPENBLAS_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-c", _SWEEP], input=json.dumps(cases), env=env,
                           capture_output=True, text=True, timeout=300)
    results = {name: (code, err) for name, code, err in map(json.loads, child.stdout.splitlines())}
    unfinished = [name for name, _ in cases if name not in results]
    assert not unfinished, "%s: %s" % (unfinished[0], child.stderr[-2000:])
    failed = {name: err for name, (code, err) in results.items()
              if not (code == 0 or code in (1, 2) and "error:" in err) or "File too large" in err}
    assert failed == {}
