"""End-to-end command-line interface behavior: exit codes, files, manifests."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from corpusmine import cli, corpus, lm, metrics, retrieve, select


def run_cli(*argv):
    return cli.run(list(argv))


@pytest.fixture
def work(tmp_path):
    (tmp_path / "general.txt").write_text(
        "the market fell\nthe dog barked\nthe market rallied\n"
        "rain fell today\nthe market fell\n",
        encoding="utf-8",
    )
    (tmp_path / "indomain.txt").write_text(
        "the market fell\nthe market rallied\n", encoding="utf-8"
    )
    return tmp_path


def test_version_and_usage_exit_codes(capsys):
    assert run_cli("--version") == 0
    assert run_cli("--help") == 0
    assert run_cli() == 2  # missing subcommand is a usage error
    assert run_cli("score", "--criterion", "bogus", "--general", "x") == 2
    capsys.readouterr()


def test_cli_import_leaves_numpy_unloaded(work):
    # numpy is imported by the steps that need it (FMS and the n-gram LM), and
    # the LM by the functions that run one; every other step should start
    # without paying for either import, and the steps of the match pipeline
    # that use neither should run without them (numpy alone is about 11 MiB)
    (work / "pairs.tsv").write_text("a b c\ta b\nd e\td e f\n", encoding="utf-8")
    (work / "coll.tsv").write_text("d1\tthe market fell\nd2\train fell today\n",
                                   encoding="utf-8")
    retrieve = ["retrieve", "--collection", "coll.tsv", "--queries", "coll.tsv",
                "--lambda", "0.5", "--n-best", "1", "--output"]
    steps = [
        ["score", "--criterion", "cosine", "--general", "general.txt", "--in-domain",
         "indomain.txt", "--output", "cos.tsv"],
        ["select", "--scores", "cos.tsv", "--k", "40", "--output", "top40.sel"],
        ["select", "--scores", "cos.tsv", "--k", "60", "--output", "top60.sel"],
        ["combine", "--mode", "naive-rank", "--selection", "top40.sel", "--selection",
         "top60.sel", "--target-size", "3", "--output", "ranked.txt"],
        ["combine", "--mode", "corpus", "--selection", "top40.sel", "--selection", "top60.sel",
         "--corpus", "general.txt", "--output", "weighted.tsv"],
        ["estimate-delta", "--input", "pairs.tsv", "--output", "delta.txt"],
        retrieve + ["hits.tsv"],
        retrieve + ["hits.delta.tsv", "--delta", "0.1"],
    ]
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import json, sys, corpusmine.cli, corpusmine.select, corpusmine.combine, "
             "corpusmine.retrieve, corpusmine.webfilter\n"
             "heavy = lambda: sorted({'numpy', 'corpusmine.lm'} & set(sys.modules))\n"
             "print(heavy())\n"
             "print([corpusmine.cli.run(argv) for argv in json.loads(sys.argv[1])], heavy())")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(steps)], env=env, cwd=work,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "%s []" % ([0] * len(steps))]


def test_steps_leave_openssl_and_fractions_unloaded(work):
    # manifest digests come from the interpreter's own SHA-256, so no step maps
    # OpenSSL's libcrypto (about 3.5 MiB) through hashlib; only select and
    # ppl-filter count with fractions, so the score steps leave it (and decimal) out;
    # and records are plain classes, so no step loads dataclasses (with inspect,
    # ast and dis, about 9 ms of start-up)
    (work / "pairs.tsv").write_text("a b c\ta b\nd e\td e f\n", encoding="utf-8")
    (work / "coll.tsv").write_text("d1\tthe market fell\nd2\train fell today\n",
                                   encoding="utf-8")
    (work / "topic.tsv").write_text("market\t3\tFIN\n", encoding="utf-8")
    general = ["--general", "general.txt", "--in-domain", "indomain.txt", "--output"]
    scores = [
        ["score", "--criterion", "cosine"] + general + ["cos.tsv"],
        ["score", "--criterion", "fms"] + general + ["fms.tsv"],
        ["score", "--criterion", "ml", "--order", "2"] + general + ["ml.tsv"],
    ]
    steps = [
        ["--version"],
        ["preprocess", "--input", "general.txt", "--output", "clean.txt", "--dedup"],
        ["select", "--scores", "cos.tsv", "--k", "40", "--output", "top40.sel"],
        ["combine", "--mode", "naive-rank", "--selection", "top40.sel", "--selection",
         "top40.sel", "--target-size", "2", "--output", "ranked.txt"],
        ["estimate-delta", "--input", "pairs.tsv", "--output", "delta.txt"],
        ["retrieve", "--collection", "coll.tsv", "--queries", "coll.tsv", "--lambda", "0.5",
         "--n-best", "1", "--output", "hits.tsv"],
        ["train-lm", "--input", "indomain.txt", "--order", "2", "--output", "in.lm"],
        ["perplexity", "--lm", "in.lm", "--input", "general.txt", "--output", "ppl.txt"],
        ["ppl-filter", "--collection", "coll.tsv", "--topic", "topic.tsv", "--k", "50",
         "--n", "100", "--lm", "in.lm", "--output", "sents.tsv"],
    ]
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import json, sys\n"
             "openssl = '_hashlib' in sys.modules\n"
             "import corpusmine.cli\n"
             "scores, steps = json.loads(sys.argv[1])\n"
             "codes = [corpusmine.cli.run(argv) for argv in scores]\n"
             "print(codes, 'fractions' in sys.modules, 'decimal' in sys.modules)\n"
             "codes = [corpusmine.cli.run(argv) for argv in steps]\n"
             "print(codes, openssl or '_hashlib' not in sys.modules, 'dataclasses' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe, json.dumps([scores, steps])],
                          env=env, cwd=work, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["%s False False" % ([0] * len(scores)), cli.__version__,
                                        "%s True False" % ([0] * len(steps))]


def test_manifest_digest_without_the_builtin_sha256_is_hashlibs(work):
    # an interpreter built without its own SHA-256 module falls back to hashlib
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import sys\n"
             "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
             "import corpusmine.cli\n"
             "print(corpusmine.cli.run(['preprocess', '--input', 'general.txt', "
             "'--output', 'clean.txt']))")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=work,
                          capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout == "0\n", done.stderr
    digest = hashlib.sha256((work / "general.txt").read_bytes()).hexdigest()
    assert _manifest(work / "clean.txt")["input.input"] == "general.txt sha256=%s" % digest


def test_cli_import_loads_no_step_module():
    # each step imports the modules it runs; the parser and --version need none
    src = Path(cli.__file__).resolve().parents[1]
    steps = ["corpusmine.%s" % m for m in
             ("lm", "select", "combine", "retrieve", "webfilter", "metrics")]
    probe = ("import sys, corpusmine.cli; corpusmine.cli.build_parser(); "
             "print(' '.join(sorted(set(%r) & set(sys.modules))))" % steps)
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.strip() == ""


def test_bench_modules_import_without_numpy():
    # bench/run.py imports these and starts each step through vfork, so a step's
    # peak RSS is at least the runner's: numpy at import time adds about 12 MiB,
    # and dataclasses (with inspect, ast and dis) about 0.9 MiB
    src = Path(cli.__file__).resolve().parents[1]
    modules = ", ".join("corpusmine.%s" % m for m in ("cli", "corpus", "lm", "select", "combine",
                                                      "retrieve", "webfilter", "metrics"))
    probe = "import sys, %s; print('numpy' in sys.modules, 'dataclasses' in sys.modules)" % modules
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout == "False False\n", done.stderr


def _callers(*names):
    """module.function (the innermost one) of each call in corpusmine to a
    function or method named in names."""
    def callers(node, module, where):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) in names:
                yield "%s.%s" % (module, where)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from callers(child, module, child.name if named else where)

    src = Path(cli.__file__).resolve().parent
    return {caller for path in src.glob("*.py")
            for caller in callers(ast.parse(path.read_text(encoding="utf-8")), path.stem,
                                  "<module>")}


def test_row_outputs_reach_write_text_through_write_headed():
    # every row output goes through errors.write_headed; the model writer's
    # sections are chunks of lines, not rows
    assert _callers("write_text") == {"errors.write_headed", "lm.write_model"}


def test_files_are_opened_only_by_the_line_reader_the_writer_and_the_digest():
    # every input is read through errors.read_lines and every output written
    # through errors.write_text; the manifest digest reads an input's bytes
    assert _callers("open", "read_bytes", "read_text") == {
        "errors.read_lines", "errors.write_text", "cli._sha256"}


def test_direction_choices_are_the_select_directions(capsys):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "subcommand")
    direction = next(a for a in sub.choices["select"]._actions if a.dest == "direction")
    assert direction.choices == [select.HIGHER, select.LOWER]
    assert run_cli("select", "--scores", "s", "--k", "1", "--output", "o",
                   "--direction", "up") == 2
    capsys.readouterr()


def test_missing_file_is_exit_1(tmp_path, capsys):
    code = run_cli("train-lm", "--input", str(tmp_path / "nope.txt"),
                   "--output", str(tmp_path / "m.lm"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_preprocess_dedup(work, capsys):
    out = work / "clean.txt"
    assert run_cli("preprocess", "--input", str(work / "general.txt"),
                   "--output", str(out), "--dedup") == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4 and lines[0] == "the market fell"
    manifest = (out.parent / (out.name + ".manifest")).read_text(encoding="utf-8")
    assert "subcommand=preprocess" in manifest
    assert "sha256=" in manifest
    capsys.readouterr()


def test_preprocess_pairs_dedup_then_max_len(work, capsys):
    pairs = work / "pairs.tsv"
    pairs.write_text("the cat\tle chat\nthe cat\tle chat\nthe cat\tle chat noir\n"
                     "a very long source line\tcourt\nshort\tune phrase trop longue\n"
                     "the dog\tle chien\n", encoding="utf-8")
    digest = hashlib.sha256(pairs.read_bytes()).hexdigest()
    out = work / "clean.tsv"
    assert run_cli("preprocess", "--input", str(pairs), "--format", "tsv-parallel",
                   "--dedup", "--max-len", "3", "--output", str(out)) == 0
    assert out.read_text(encoding="utf-8") == (
        "the cat\tle chat\nthe cat\tle chat noir\nthe dog\tle chien\n")
    manifest = _manifest(out)
    assert manifest["input.input"] == "%s sha256=%s" % (pairs, digest)
    assert (manifest["parameter.dedup"], manifest["parameter.max_len"]) == ("True", "3")
    capsys.readouterr()


def test_preprocess_two_files_normalized(work, capsys):
    src, tgt = work / "src.txt", work / "tgt.txt"
    src.write_text("it’s 42 cats\nroom 7b\n", encoding="utf-8")
    tgt.write_text("c’est 42 chats\nsalle 7b\n", encoding="utf-8")
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (src, tgt)]
    out_src, out_tgt = work / "out.src.txt", work / "out.tgt.txt"
    assert run_cli("preprocess", "--source", str(src), "--target", str(tgt),
                   "--output-source", str(out_src), "--output-target", str(out_tgt),
                   "--normalize-apostrophes", "--normalize-numbers") == 0
    assert out_src.read_text(encoding="utf-8") == "it's @num@ cats\nroom @num@b\n"
    assert out_tgt.read_text(encoding="utf-8") == "c'est @num@ chats\nsalle @num@b\n"
    for out in (out_src, out_tgt):
        manifest = _manifest(out)
        assert manifest["input.source"] == "%s sha256=%s" % (src, digests[0])
        assert manifest["input.target"] == "%s sha256=%s" % (tgt, digests[1])
    capsys.readouterr()


def test_preprocess_hyphen_alt_with_a_lexicon(work, capsys):
    src, lex, out = work / "hy.txt", work / "lex.tsv", work / "alt.txt"
    src.write_text("a cost-effective plan\nwell-known cost-free idea\na cost-effective plan\n",
                   encoding="utf-8")
    lex.write_text("cost\tcosto\neffective\tefectivo\ncost\tprecio\nwell\tbien\n",
                   encoding="utf-8")
    assert run_cli("preprocess", "--input", str(src), "--output", str(out), "--dedup",
                   "--hyphen-alt", str(lex)) == 0
    assert out.read_text(encoding="utf-8") == (
        'a <alt trans="costo efectivo">cost-effective</alt> plan\nwell-known cost-free idea\n')
    assert _manifest(out)["input.hyphen_alt"] == "%s sha256=%s" % (
        lex, hashlib.sha256(lex.read_bytes()).hexdigest())
    capsys.readouterr()


def test_preprocess_factored_normalized_then_dedup(work, capsys):
    src, out = work / "f.txt", work / "f.out.txt"
    src.write_text("room|room|NN 12|12|CD\nroom|room|NN 13|13|CD\nroom|room|NN 12|12|CD\n"
                   "the|the|DT 4|4|CD cats|cat|NNS|ANIMAL\ndozen|12|CD cats|cat|NNS|ANIMAL\n"
                   "the|the|DT cats|cat|NNS\n", encoding="utf-8")
    assert run_cli("preprocess", "--input", str(src), "--output", str(out), "--format",
                   "factored", "--normalize-numbers", "--dedup") == 0
    assert out.read_text(encoding="utf-8") == (
        "room|room|NN @num@|12|CD\nroom|room|NN @num@|13|CD\n"
        "the|the|DT @num@|4|CD cats|cat|NNS|ANIMAL\ndozen|12|CD cats|cat|NNS|ANIMAL\n"
        "the|the|DT cats|cat|NNS\n")
    capsys.readouterr()


def test_train_perplexity_pipeline(work, capsys):
    model_path = work / "in.lm"
    assert run_cli("train-lm", "--input", str(work / "indomain.txt"),
                   "--output", str(model_path), "--order", "2",
                   "--smoothing", "witten-bell") == 0
    model = lm.read_model(model_path)
    assert model.order == 2 and model.smoothing == "witten-bell"
    report = work / "ppl.txt"
    assert run_cli("perplexity", "--lm", str(model_path),
                   "--input", str(work / "indomain.txt"),
                   "--output", str(report)) == 0
    text = report.read_text(encoding="utf-8")
    assert "perplexity\t" in text and "cross_entropy_bits\t" in text
    capsys.readouterr()


def test_report_on_stdout_names_no_manifest(work, capsys):
    # a manifest goes beside an output file only: stdout has none
    model_path = work / "in.lm"
    assert run_cli("train-lm", "--input", str(work / "indomain.txt"),
                   "--output", str(model_path), "--order", "2") == 0
    capsys.readouterr()
    assert run_cli("perplexity", "--lm", str(model_path),
                   "--input", str(work / "indomain.txt")) == 0
    out = capsys.readouterr().out
    assert "perplexity\t" in out and "# manifest:" not in out
    assert not list(work.glob("stdout*"))

def test_score_select_round_trip(work, capsys):
    scores_path = work / "scores.tsv"
    assert run_cli("score", "--criterion", "cosine",
                   "--general", str(work / "general.txt"),
                   "--in-domain", str(work / "indomain.txt"),
                   "--output", str(scores_path)) == 0
    scores, meta = select.read_scores(scores_path)
    assert len(scores) == 5
    assert meta["direction"] == select.HIGHER
    assert "normalization" not in meta  # cosine scores are not cross-entropies
    sel_path = work / "sel.txt"
    assert run_cli("select", "--scores", str(scores_path), "--k", "40",
                   "--output", str(sel_path)) == 0
    result = select.read_selection(sel_path)
    assert len(result.indices) == 2
    # K = 100 keeps every index
    sel_all = work / "all.txt"
    assert run_cli("select", "--scores", str(scores_path), "--k", "100",
                   "--output", str(sel_all)) == 0
    assert sorted(select.read_selection(sel_all).indices) == list(range(5))
    capsys.readouterr()


def test_failed_write_keeps_the_old_output(work, capsys, monkeypatch):
    scores_path = work / "scores.tsv"
    assert run_cli("score", "--criterion", "cosine", "--general", str(work / "general.txt"),
                   "--in-domain", str(work / "indomain.txt"), "--output", str(scores_path)) == 0
    out = work / "out.sel"
    assert run_cli("select", "--scores", str(scores_path), "--k", "40",
                   "--output", str(out)) == 0
    assert not list(work.glob("*.tmp"))
    before = {p.name: p.read_bytes() for p in work.iterdir()}

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    capsys.readouterr()
    assert run_cli("select", "--scores", str(scores_path), "--k", "100",
                   "--output", str(out)) == 1
    assert "error: replace failed" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in work.iterdir()} == before
    assert not list(work.glob("*.tmp"))


def test_output_that_is_not_a_regular_file_is_an_error(work, capsys):
    pipe = work / "pipe"
    os.mkfifo(pipe)
    assert run_cli("preprocess", "--input", str(work / "general.txt"),
                   "--output", str(pipe)) == 1
    assert "error: %s is not a regular file" % pipe in capsys.readouterr().err
    assert pipe.is_fifo() and not list(work.glob("*.tmp"))


def test_output_through_a_symlink_replaces_its_target(work, capsys):
    (work / "real.txt").write_text("old\n", encoding="utf-8")
    (work / "link.txt").symlink_to("real.txt")
    assert run_cli("preprocess", "--input", str(work / "indomain.txt"),
                   "--output", str(work / "link.txt")) == 0
    assert (work / "link.txt").is_symlink()
    assert (work / "real.txt").read_bytes() == (work / "indomain.txt").read_bytes()
    capsys.readouterr()


def test_score_stdout_rows_equal_output_rows(work, capsys):
    argv = ["score", "--criterion", "cosine", "--general", str(work / "general.txt"),
            "--in-domain", str(work / "indomain.txt")]
    capsys.readouterr()
    assert run_cli(*argv) == 0
    stdout_rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    out = work / "scores.tsv"
    assert run_cli(*argv, "--output", str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert [l for l in text.splitlines() if not l.startswith("#")] == stdout_rows
    assert len(stdout_rows) == 5 and "reference-mode" not in text
    capsys.readouterr()


@pytest.mark.parametrize("row, message", [
    ("x\t0.2", "line 3: bad index 'x'"),
    ("-1\t0.2", "line 3: bad index '-1'"),
    ("1\tzz", "line 3: bad score 'zz'"),
    ("1 0.2", "line 3: expected index<TAB>score"),
    ("1\t0.2\t7", "line 3: expected index<TAB>score"),
    ("1\tnan", "line 3: bad score 'nan'"),
])
def test_select_reports_malformed_score_rows(work, capsys, row, message):
    scores_path = work / "scores.tsv"
    scores_path.write_text("# direction: higher-is-better\n0\t0.1\n%s\n" % row,
                           encoding="utf-8")
    assert run_cli("select", "--scores", str(scores_path), "--k", "50",
                   "--output", str(work / "s.txt")) == 1
    err = capsys.readouterr().err
    assert "error: %s %s" % (scores_path, message) in err
    assert "Traceback" not in err


def test_select_rejects_repeated_score_index(work, capsys):
    scores_path = work / "scores.tsv"
    scores_path.write_text("# direction: higher-is-better\n0\t0.1\n0\t0.9\n1\t0.2\n",
                           encoding="utf-8")
    assert run_cli("select", "--scores", str(scores_path), "--k", "50",
                   "--output", str(work / "s.txt")) == 1
    err = capsys.readouterr().err
    assert "error: %s line 3: repeated index 0" % scores_path in err
    assert "Traceback" not in err


def test_select_rejects_a_huge_score_index_before_building_the_scores(work, capsys):
    # a list up to the largest index would ask for petabytes
    scores_path = work / "scores.tsv"
    scores_path.write_text("0\t0.1\n1000000000000000\t0.2\n", encoding="utf-8")
    assert run_cli("select", "--scores", str(scores_path), "--k", "50",
                   "--output", str(work / "s.txt")) == 1
    err = capsys.readouterr().err
    assert "error: %s: missing score indices" % scores_path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, option", [
    (["combine", "--mode", "tables", "--table", "t.txt", "--weights", "1,x"], "--weights"),
    (["topic-filter", "--collection", "web.tsv", "--topic", "topic.tsv", "--k", "50",
      "--location-weights", "1,2,x,4"], "--location-weights"),
])
def test_non_numeric_weights_are_errors(work, capsys, argv, option):
    (work / "t.txt").write_text("a ||| x ||| 0.5\n", encoding="utf-8")
    (work / "web.tsv").write_text("d1\tthe market fell\n", encoding="utf-8")
    (work / "topic.tsv").write_text("market\t3\tFIN\n", encoding="utf-8")
    argv = [str(work / a) if a.endswith((".txt", ".tsv")) else a for a in argv]
    assert run_cli(*argv, "--output", str(work / "out.txt")) == 1
    err = capsys.readouterr().err
    assert "error: %s needs comma-separated numbers" % option in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code", [
    (["select", "--scores", "s.tsv", "--theta", "nan"], 2),
    (["retrieve", "--collection", "web.tsv", "--queries", "web.tsv", "--lambda", "0.5",
      "--n-best", "1", "--delta", "nan"], 2),
    (["retrieve", "--collection", "web.tsv", "--queries", "web.tsv", "--lambda", "0.5",
      "--n-best", "1", "--multiplier", "inf"], 2),
    (["score", "--criterion", "fms", "--general", "general.txt", "--in-domain",
      "indomain.txt", "--fms-cutoff", "nan"], 2),
    (["combine", "--mode", "tables", "--table", "t.txt", "--table", "t.txt",
      "--weights", "1,nan"], 1),
    (["topic-filter", "--collection", "web.tsv", "--topic", "topic.tsv", "--k", "50",
      "--location-weights", "1,2,nan,4"], 1),
])
def test_non_finite_numeric_options_are_errors(work, capsys, argv, code):
    select.write_scores(work / "s.tsv", [0.1, 0.9], {"direction": select.HIGHER})
    (work / "t.txt").write_text("a ||| x ||| 0.5\n", encoding="utf-8")
    (work / "web.tsv").write_text("d1\tthe market fell\n", encoding="utf-8")
    (work / "topic.tsv").write_text("market\t3\tFIN\n", encoding="utf-8")
    argv = [str(work / a) if a.endswith((".txt", ".tsv")) else a for a in argv]
    assert run_cli(*argv, "--output", str(work / "out.txt")) == code
    err = capsys.readouterr().err
    assert "error:" in err and argv[-2] in err and "Traceback" not in err
    assert not (work / "out.txt").exists()


def test_combine_reports_bad_selection_index(work, capsys):
    sel = work / "s1.txt"
    for bad in ("1.5", "-2"):
        sel.write_text("# criterion: cosine\n0\n%s\n" % bad, encoding="utf-8")
        assert run_cli("combine", "--mode", "naive-rank", "--selection", str(sel),
                       "--target-size", "1", "--output", str(work / "merged.txt")) == 1
        assert "error: %s line 3: bad index %r" % (sel, bad) in capsys.readouterr().err


def test_combine_tables_reports_bad_score_field(work, capsys):
    table = work / "t.txt"
    table.write_text("a ||| x ||| 0.5 0.5\nb ||| y ||| 0.25 zz\n", encoding="utf-8")
    assert run_cli("combine", "--mode", "tables", "--table", str(table),
                   "--output", str(work / "out.txt")) == 1
    assert "error: %s line 2: bad score 'zz'" % table in capsys.readouterr().err
    table.write_text("a ||| x ||| 0.5 0.5\nb ||| y ||| 0.25 inf\n", encoding="utf-8")
    assert run_cli("combine", "--mode", "tables", "--table", str(table),
                   "--output", str(work / "out.txt")) == 1
    assert "error: %s line 2: bad score 'inf'" % table in capsys.readouterr().err


@pytest.mark.parametrize("fmt, line, message", [
    ("plain", "a b|c", "token surface may not contain whitespace or '|': 'b|c'"),
    ("factored", "a|a |x", "token surface must be non-empty"),
])
def test_preprocess_rejects_bad_tokens(work, capsys, fmt, line, message):
    src = work / "bad.txt"
    src.write_text("ok line\n%s\n" % line, encoding="utf-8")
    assert run_cli("preprocess", "--input", str(src), "--output", str(work / "o.txt"),
                   "--format", fmt) == 1
    err = capsys.readouterr().err
    assert "error: %s line 2: %s" % (src, message) in err and "Traceback" not in err


@pytest.mark.parametrize("name, text, argv, message", [
    ("lex.tsv", "slow\tlento\na\n", ["preprocess", "--input", "indomain.txt",
     "--hyphen-alt", "lex.tsv"], "lex.tsv line 2: lexicon line needs source<TAB>target: 'a'"),
    ("lex.tsv", "a b\tx\n", ["preprocess", "--input", "indomain.txt", "--hyphen-alt",
     "lex.tsv"], "lex.tsv line 1: lexicon keys must be single tokens: 'a b'"),
    ("blank.txt", "a b\n\nc\n", ["preprocess", "--input", "blank.txt"],
     "blank.txt line 2: empty line"),
    ("pages/p1", "stray\n#body\nthe market\n", ["topic-filter", "--collection", "pages",
     "--topic", "topic.tsv", "--k", "50"],
     "p1 line 1: content before the first section marker"),
    ("lex.tsv", "a\tA\nb\t\n", ["preprocess", "--input", "indomain.txt", "--hyphen-alt",
     "lex.tsv"], "lex.tsv line 2: lexicon source and target must be non-empty: 'b\\t'"),
    ("lex.tsv", "\tA\n", ["preprocess", "--input", "indomain.txt", "--hyphen-alt",
     "lex.tsv"], "lex.tsv line 1: lexicon source and target must be non-empty: '\\tA'"),
    ("lex.tsv", "a\tA\tjunk\n", ["preprocess", "--input", "indomain.txt", "--hyphen-alt",
     "lex.tsv"], "lex.tsv line 1: lexicon line needs source<TAB>target: 'a\\tA\\tjunk'"),
])
def test_reader_errors_name_file_and_line(work, capsys, name, text, argv, message):
    (work / "pages").mkdir()
    (work / name).write_text(text, encoding="utf-8")
    (work / "topic.tsv").write_text("market\t3\tFIN\n", encoding="utf-8")
    argv = [str(work / a) if a.endswith((".txt", ".tsv")) or a == "pages" else a for a in argv]
    assert run_cli(*argv, "--output", str(work / "out.txt")) == 1
    err = capsys.readouterr().err
    assert "error: %s" % (work / name) in err and message in err
    assert "Traceback" not in err


def test_select_requires_exactly_one_mode(work, capsys):
    scores_path = work / "scores.tsv"
    select.write_scores(scores_path, [0.1, 0.9], {"direction": select.HIGHER})
    assert run_cli("select", "--scores", str(scores_path),
                   "--output", str(work / "s.txt")) == 2
    assert run_cli("select", "--scores", str(scores_path), "--k", "50",
                   "--theta", "0.5", "--output", str(work / "s.txt")) == 2
    err = capsys.readouterr().err
    assert "--k" in err and "--theta" in err


def test_score_error_names_missing_flag(work, capsys):
    code = run_cli("score", "--criterion", "ml",
                   "--general", str(work / "general.txt"),
                   "--in-lm", str(work / "whatever.lm"))
    assert code == 2
    assert "--out-lm" in capsys.readouterr().err


def test_ml_score_via_lm_files(work, capsys):
    in_lm = work / "in.lm"
    out_lm = work / "out.lm"
    assert run_cli("train-lm", "--input", str(work / "indomain.txt"),
                   "--output", str(in_lm), "--order", "2", "--smoothing", "wb") == 0
    assert run_cli("train-lm", "--input", str(work / "general.txt"),
                   "--output", str(out_lm), "--order", "2", "--smoothing", "wb") == 0
    scores_path = work / "ml.tsv"
    assert run_cli("score", "--criterion", "ml",
                   "--general", str(work / "general.txt"),
                   "--in-lm", str(in_lm), "--out-lm", str(out_lm),
                   "--output", str(scores_path)) == 0
    scores, meta = select.read_scores(scores_path)
    assert meta["direction"] == select.LOWER
    assert meta["normalization"] == "per-word cross-entropy, bits"
    assert len(scores) == 5
    capsys.readouterr()


def _assert_score_file(path, scores):
    """The score file is the index rows of the scores, under the file's own header."""
    _, meta = select.read_scores(path)
    lines = ["# %s: %s" % item for item in meta.items()] + select.index_rows(scores)
    assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)


def test_ce_score_via_lm_file(work, capsys):
    in_lm = work / "in.lm"
    lm.write_model(lm.train(corpus.load_corpus(work / "indomain.txt"), order=2), in_lm)
    assert run_cli("score", "--criterion", "ce", "--general", str(work / "general.txt"),
                   "--in-lm", str(in_lm), "--output", str(work / "ce.tsv")) == 0
    general = corpus.load_corpus(work / "general.txt")
    _assert_score_file(work / "ce.tsv", select.score_cross_entropy(general, lm.read_model(in_lm)))


@pytest.fixture
def bilingual(work):
    def mirror(path):
        return "".join("%s\t%s\n" % (line, line.upper())
                       for line in path.read_text(encoding="utf-8").split("\n") if line)
    (work / "general.tsv").write_text(mirror(work / "general.txt"), encoding="utf-8")
    (work / "indomain.tsv").write_text(mirror(work / "indomain.txt"), encoding="utf-8")
    return (corpus.load_corpus(work / "general.tsv", format="tsv-parallel"),
            corpus.load_corpus(work / "indomain.tsv", format="tsv-parallel"))


def test_mml_score_via_in_domain(work, capsys, bilingual):
    assert run_cli("score", "--criterion", "mml", "--general", str(work / "general.tsv"),
                   "--in-domain", str(work / "indomain.tsv"), "--order", "2", "--seed", "3",
                   "--output", str(work / "mml.tsv")) == 0
    general, in_domain = bilingual
    models = [m for side in ("source_corpus", "target_corpus")
              for m in select.train_selection_models(getattr(general, side)(),
                                                     getattr(in_domain, side)(), order=2, seed=3)]
    _assert_score_file(work / "mml.tsv", select.score_bilingual_ml(general, *models))


def test_mml_score_via_lm_files(work, capsys, bilingual):
    general, in_domain = bilingual
    paths = []
    for name, data in (("in_src", in_domain.source_corpus()), ("out_src", general.source_corpus()),
                       ("in_tgt", in_domain.target_corpus()), ("out_tgt", general.target_corpus())):
        paths.append(work / (name + ".lm"))
        lm.write_model(lm.train(data, order=2, smoothing="witten-bell"), paths[-1])
    flags = ["--in-src-lm", "--out-src-lm", "--in-tgt-lm", "--out-tgt-lm"]
    argv = ["score", "--criterion", "mml", "--general", str(work / "general.tsv")]
    assert run_cli(*argv, *(a for pair in zip(flags, map(str, paths)) for a in pair),
                   "--output", str(work / "mml.tsv")) == 0
    want = select.score_bilingual_ml(general, *map(lm.read_model, paths))
    _assert_score_file(work / "mml.tsv", want)
    capsys.readouterr()
    # three of the four files: a usage error naming the missing one
    assert run_cli(*argv, *(a for pair in zip(flags[:3], map(str, paths)) for a in pair),
                   "--output", str(work / "mml3.tsv")) == 2
    assert "--criterion mml is missing --out-tgt-lm" in capsys.readouterr().err
    assert not (work / "mml3.tsv").exists()


def test_retrieve_collection_line_keeps_a_unicode_line_separator(work, capsys):
    coll = work / "c.tsv"
    coll.write_text("d1\tfoo\u2028bar baz\nd2\tdogs bark\n", encoding="utf-8")
    queries = work / "q.tsv"
    queries.write_text("q1\tbar baz\n", encoding="utf-8")
    assert run_cli("retrieve", "--collection", str(coll), "--queries", str(queries),
                   "--lambda", "0.5", "--n-best", "1", "--output", str(work / "res.tsv")) == 0
    assert "q1\t1\td1\t" in (work / "res.tsv").read_text(encoding="utf-8")
    assert [lines for _, lines, _ in corpus.read_documents(coll)] == [[(1, "foo\u2028bar baz")],
                                                                      [(2, "dogs bark")]]


def test_combine_naive_rank_cli(work, capsys):
    s1 = work / "s1.txt"
    s2 = work / "s2.txt"
    select.write_selection(s1, select.SelectionResult([0, 1, 2], "cosine", select.HIGHER))
    select.write_selection(s2, select.SelectionResult([1, 3, 2], "ce", select.LOWER))
    out = work / "merged.txt"
    assert run_cli("combine", "--mode", "naive-rank",
                   "--selection", str(s1), "--selection", str(s2),
                   "--target-size", "4", "--output", str(out)) == 0
    body = [l for l in out.read_text(encoding="utf-8").splitlines()
            if not l.startswith("#")]
    assert body == ["0", "1", "3", "2"]
    capsys.readouterr()


def test_combine_corpus_of_sentence_pairs(work, capsys):
    pairs = work / "pairs.tsv"
    pairs.write_text("a b\tc d\ne f\tg h\ni\tj\n", encoding="utf-8")
    s1, s2 = work / "s1.txt", work / "s2.txt"
    select.write_selection(s1, select.SelectionResult([0, 2], "x", select.HIGHER))
    select.write_selection(s2, select.SelectionResult([2], "y", select.LOWER))
    out = work / "weighted.tsv"
    assert run_cli("combine", "--mode", "corpus", "--selection", str(s1), "--selection",
                   str(s2), "--corpus", str(pairs), "--format", "tsv-parallel",
                   "--output", str(out)) == 0
    assert out.read_text(encoding="utf-8") == "1.0\tx\ta b\tc d\n2.0\tx,y\ti\tj\n"
    capsys.readouterr()


def test_combine_corpus_of_an_empty_selection_writes_an_empty_file(work, capsys):
    # an output with no rows is an empty file, not a blank line, so the next
    # step reports an empty corpus rather than an empty line
    none = work / "none.sel"
    select.write_selection(none, select.SelectionResult([], "x", select.HIGHER))
    for name, flags in (("weighted.tsv", []), ("replicated.txt", ["--replicate"])):
        assert run_cli("combine", "--mode", "corpus", "--selection", str(none), "--corpus",
                       str(work / "general.txt"), *flags, "--output", str(work / name)) == 0
        assert (work / name).read_bytes() == b""
    capsys.readouterr()
    assert run_cli("train-lm", "--input", str(work / "replicated.txt"),
                   "--output", str(work / "m.lm")) == 1
    assert capsys.readouterr().err.rstrip().endswith(
        "error: cannot train a model on an empty corpus")


def test_retrieve_cli_with_gold(work, capsys):
    coll = work / "coll.tsv"
    coll.write_text("d1\tthe market fell sharply today\n"
                    "d2\tdogs bark at night sometimes\n"
                    "d3\train fell on the plain\n", encoding="utf-8")
    queries = work / "q.tsv"
    queries.write_text("q1\tthe market fell sharply this day\n", encoding="utf-8")
    gold = work / "gold.tsv"
    gold.write_text("q1\td1\n", encoding="utf-8")
    out = work / "res.tsv"
    assert run_cli("retrieve", "--collection", str(coll), "--queries", str(queries),
                   "--lambda", "0.5", "--n-best", "1",
                   "--gold", str(gold), "--output", str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert "# precision: 1.0" in text
    assert "q1\t1\td1\t" in text
    assert "postings visited of" in capsys.readouterr().err


def test_estimate_delta_reads_two_files_as_one_tsv(work, capsys, monkeypatch):
    monkeypatch.chdir(work)
    Path("pairs.tsv").write_text("a b c\ta b\nd e\td e f g\nh\th i\n", encoding="utf-8")
    Path("src.txt").write_text("a b c\nd e\nh\n", encoding="utf-8")
    Path("tgt.txt").write_text("a b\nd e f g\nh i\n", encoding="utf-8")
    assert run_cli("estimate-delta", "--input", "pairs.tsv", "--output", "tsv.txt") == 0
    assert run_cli("estimate-delta", "--source", "src.txt", "--target", "tgt.txt",
                   "--output", "two.txt") == 0

    def rows(path):
        return [l for l in Path(path).read_text(encoding="utf-8").splitlines()
                if not l.startswith("#")]

    assert rows("two.txt") == rows("tsv.txt") == ["delta\t%r" % ((1 / 3 + 1.0 + 1.0) / 3)]
    Path("tgt.txt").write_text("a b\nd e f g\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("estimate-delta", "--source", "src.txt", "--target", "tgt.txt",
                   "--output", "bad.txt") == 1
    assert "error: line-count mismatch" in capsys.readouterr().err
    assert not Path("bad.txt").exists()


@pytest.mark.parametrize("n_best", ["0", "-1"])
def test_retrieve_cli_rejects_n_best_below_one(work, capsys, n_best):
    coll = work / "coll.tsv"
    coll.write_text("d1\tthe market fell\nd2\tdogs bark\nd3\train fell\n", encoding="utf-8")
    out = work / "res.tsv"
    assert run_cli("retrieve", "--collection", str(coll), "--queries", str(coll),
                   "--lambda", "0.5", "--n-best", n_best, "--output", str(out)) == 1
    assert "error: --n-best must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_retrieve_cli_rejects_duplicate_query_ids(work, capsys):
    coll = work / "coll.tsv"
    coll.write_text("d1\tthe market fell\nd2\tdogs bark\n", encoding="utf-8")
    queries = work / "q.tsv"
    queries.write_text("q1\tthe market\nq2\tdogs\n\nq1\tbark\n", encoding="utf-8")
    assert run_cli("retrieve", "--collection", str(coll), "--queries", str(queries),
                   "--lambda", "0.5", "--n-best", "1", "--output", str(work / "res.tsv")) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "q.tsv line 4: duplicate document id 'q1' (first on line 1)" in err


def test_retrieve_cli_reports_blank_document_line(work, capsys):
    coll = work / "coll.tsv"
    coll.write_text("d1\tthe market fell\nd2\tdogs bark\n", encoding="utf-8")
    queries = work / "q.tsv"
    queries.write_text("q1\tthe market\nq2\t  \n", encoding="utf-8")
    assert run_cli("retrieve", "--collection", str(coll), "--queries", str(queries),
                   "--lambda", "0.5", "--n-best", "1", "--output", str(work / "res.tsv")) == 1
    assert "error: %s line 2: document 'q2' is empty" % queries in capsys.readouterr().err


def test_retrieve_cli_stdout_rows_equal_output_rows(work, capsys):
    coll = work / "coll.tsv"
    coll.write_text("d1\tthe market fell sharply today\nd2\tdogs bark at night\n"
                    "d3\train fell on the plain\n", encoding="utf-8")
    queries = work / "q.tsv"
    queries.write_text("q2\train fell\nq1\tthe market fell\n", encoding="utf-8")
    argv = ["retrieve", "--collection", str(coll), "--queries", str(queries),
            "--lambda", "1", "--n-best", "2"]
    capsys.readouterr()
    assert run_cli(*argv) == 0
    stdout_rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    out = work / "res.tsv"
    assert run_cli(*argv, "--output", str(out)) == 0
    file_rows = [l for l in out.read_text(encoding="utf-8").splitlines()
                 if not l.startswith("#")]
    assert stdout_rows == file_rows
    assert [r.split("\t")[:2] for r in file_rows] == [["q1", "1"], ["q1", "2"],
                                                       ["q2", "1"], ["q2", "2"]]
    capsys.readouterr()


def test_bleu_cli(work, capsys):
    hyp = work / "hyp.txt"
    ref = work / "ref.txt"
    hyp.write_text("the market fell sharply today\n", encoding="utf-8")
    ref.write_text("the market fell sharply today\n", encoding="utf-8")
    out = work / "bleu.txt"
    assert run_cli("bleu", "--hypothesis", str(hyp), "--reference", str(ref),
                   "--output", str(out)) == 0
    assert "bleu\t1.0" in out.read_text(encoding="utf-8")
    capsys.readouterr()


def test_diagnose_cli(work, capsys):
    out = work / "diag.txt"
    assert run_cli("diagnose", "--corpus", str(work / "general.txt"),
                   "--train", str(work / "indomain.txt"),
                   "--test", str(work / "general.txt"),
                   "--output", str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert "tokens\t" in text and "oov_ratio_tokens\t" in text
    capsys.readouterr()


def _diagnose_table():
    tokens, types, ratio = metrics.vocab_stats(corpus.load_corpus("general.txt"))
    rows = [("tokens", tokens), ("types", types), ("type_token_ratio", repr(ratio))]
    return "# manifest: out.txt.manifest\n%s\n" % metrics.format_table(("metric", "value"), rows)


def _smoothed_bleu():
    hyp, ref = corpus.load_corpus("hyp.txt"), corpus.load_corpus("ref.txt")
    report = metrics.bleu(hyp, ref, smooth=True)
    assert metrics.bleu(hyp, ref).score == 0 < report.score  # no 4-gram matches
    rows = [("p%d" % n, p) for n, p in enumerate(report.precisions, 1)]
    rows += [("brevity_penalty", report.brevity_penalty), ("bleu", report.score)]
    return "# manifest: out.txt.manifest\n" + "".join("%s\t%r\n" % row for row in rows)


def _mle_model():
    lm.write_model(lm.train(corpus.load_corpus("general.txt"), order=2, smoothing="mle"), "m.lm")
    return Path("m.lm").read_text(encoding="utf-8")


def _zero_filled_hits():
    index = retrieve.DocumentIndex(retrieve.load_collection("coll.tsv"))
    (query,) = retrieve.load_collection("q.tsv")
    hits = retrieve.retrieve(query, index, 1, 3)
    # only d1 holds a query term; d2 and d3 fill in by id, not by collection order
    assert [d for d, _ in hits] == ["d1", "d2", "d3"] and [s for _, s in hits[1:]] == [0.0, 0.0]
    return "# manifest: out.txt.manifest\n" + "".join(
        "%s\n" % row for row in retrieve.result_rows({"q1": hits}))


_SELECTION = "# criterion: %s\n# direction: higher-is-better\n%s"


@pytest.mark.parametrize("files, argv, expected", [
    ({}, ["diagnose", "--corpus", "general.txt", "--table"], _diagnose_table),
    ({"hyp.txt": "the market fell today\n", "ref.txt": "the market fell sharply today\n"},
     ["bleu", "--hypothesis", "hyp.txt", "--reference", "ref.txt", "--smooth"], _smoothed_bleu),
    ({}, ["train-lm", "--input", "general.txt", "--order", "2", "--smoothing", "mle"],
     _mle_model),
    ({"s1.sel": _SELECTION % ("a", "0\n2\n"), "s2.sel": _SELECTION % ("b", "2\n3\n")},
     ["combine", "--mode", "corpus", "--selection", "s1.sel", "--selection", "s2.sel",
      "--corpus", "general.txt", "--weights", "1,2", "--replicate"],
     lambda: "the market fell\n" + "the market rallied\n" * 3 + "rain fell today\n" * 2),
    ({"scores.tsv": "# criterion: ce\n# direction: lower-is-better\n"
                    "0\t0.5\n1\t0.1\n2\t0.9\n3\t0.3\n4\t0.4\n"},
     ["select", "--scores", "scores.tsv", "--theta", "0.4"],
     lambda: "# criterion: ce\n# direction: lower-is-better\n# theta: 0.4\n"
             "# manifest: out.txt.manifest\n1\n3\n"),
    ({"coll.tsv": "d3\train fell today\nd1\tthe market fell\nd2\tdogs bark\n",
      "q.tsv": "q1\tthe market\n"},
     ["retrieve", "--collection", "coll.tsv", "--queries", "q.tsv", "--lambda", "1",
      "--n-best", "3"], _zero_filled_hits),
    ({"t1.txt": "a ||| x ||| 0.5 1.0\nb ||| y ||| 1.0 0.5\n",
      "t2.txt": "c ||| z ||| 0.25 1.0\na ||| x ||| 1.0 0.0\n", "t3.txt": "b ||| y ||| 0.5 0.5\n"},
     ["combine", "--mode", "tables", "--table", "t1.txt", "--table", "t2.txt", "--table",
      "t3.txt", "--weights", "1,2,1"],
     lambda: "a ||| x ||| 0.625 0.25\nb ||| y ||| 0.375 0.25\nc ||| z ||| 0.125 0.5\n"),
], ids=["diagnose-table", "bleu-smooth", "train-lm-mle", "combine-corpus-replicate",
        "select-theta-lower", "retrieve-zero-score-fill", "combine-tables"])
def test_step_output_equals_its_library_call(work, capsys, monkeypatch, files, argv, expected):
    monkeypatch.chdir(work)
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    assert run_cli(*argv, "--output", "out.txt") == 0
    assert Path("out.txt").read_text(encoding="utf-8") == expected()
    capsys.readouterr()


def test_config_file_defaults(work, capsys):
    cfg = work / "run.cfg"
    cfg.write_text("order=2\nsmoothing=witten-bell\n", encoding="utf-8")
    model_path = work / "cfg.lm"
    assert run_cli("train-lm", "--config", str(cfg),
                   "--input", str(work / "indomain.txt"),
                   "--output", str(model_path)) == 0
    assert lm.read_model(model_path).order == 2
    # explicit flags beat config values
    model_path3 = work / "cfg3.lm"
    assert run_cli("train-lm", "--config", str(cfg), "--order", "3",
                   "--input", str(work / "indomain.txt"),
                   "--output", str(model_path3)) == 0
    assert lm.read_model(model_path3).order == 3
    bad = work / "bad.cfg"
    bad.write_text("no equals sign here\n", encoding="utf-8")
    assert run_cli("train-lm", "--config", str(bad),
                   "--input", str(work / "indomain.txt"),
                   "--output", str(model_path)) == 1
    capsys.readouterr()
    # a config value goes through its option's type=, as a flag value does
    bad.write_text("order=inf\n", encoding="utf-8")
    assert run_cli("train-lm", "--config", str(bad),
                   "--input", str(work / "indomain.txt"),
                   "--output", str(model_path)) == 2
    assert "argument --order: invalid int value: 'inf'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["subcommand", "func", "help", "ordre"])
def test_config_key_must_name_an_option(work, capsys, key):
    # a config default for the parser's own state would pick the step or
    # its manifest; a misspelt key would be dropped without a word
    cfg = work / "c.cfg"
    cfg.write_text("order=2\n%s=bleu\n" % key, encoding="utf-8")
    assert run_cli("train-lm", "--config", str(cfg), "--input", str(work / "indomain.txt"),
                   "--output", str(work / "m.lm")) == 1
    assert "error: %s line 2: no option is named %r" % (cfg, key) in capsys.readouterr().err
    assert not (work / "m.lm").exists()


def test_config_value_a_step_does_not_read_is_dropped(work, capsys):
    # one config file serves every step: combine and retrieve drop its values
    # for options they do not read, and the command line still may not give them
    cfg = work / "run.cfg"
    cfg.write_text("order=2\nsmoothing=witten-bell\nformat=plain\nmultiplier=9\n",
                   encoding="utf-8")
    select.write_selection(work / "s.sel", select.SelectionResult([0, 1], "cosine",
                                                                   select.HIGHER))
    naive = ["combine", "--config", str(cfg), "--mode", "naive-rank", "--selection",
             str(work / "s.sel"), "--target-size", "1", "--output"]
    assert run_cli(*naive, str(work / "rank.txt")) == 0
    assert not {"parameter.order", "parameter.smoothing", "parameter.format"} & set(
        _manifest(work / "rank.txt"))
    assert run_cli(*naive, str(work / "rank9.txt"), "--order", "2") == 2
    assert "does not take --order" in capsys.readouterr().err
    assert run_cli("combine", "--config", str(cfg), "--mode", "lm-interp", "--set",
                   str(work / "general.txt"), "--dev", str(work / "indomain.txt"),
                   "--output", str(work / "mix.txt")) == 0
    assert lm.read_model(str(work / "mix.txt") + ".0.lm").order == 2
    assert _manifest(work / "mix.txt")["parameter.smoothing"] == "witten-bell"
    coll = work / "coll.tsv"
    coll.write_text("d1\tthe market fell\nd2\tdogs bark\n", encoding="utf-8")
    argv = ["retrieve", "--config", str(cfg), "--collection", str(coll), "--queries",
            str(coll), "--lambda", "0.5", "--n-best", "1", "--output"]
    assert run_cli(*argv, str(work / "res.tsv")) == 0
    assert "parameter.multiplier" not in _manifest(work / "res.tsv")
    assert run_cli(*argv, str(work / "res_delta.tsv"), "--delta", "0.5") == 0
    assert _manifest(work / "res_delta.tsv")["parameter.multiplier"] == "9.0"


@pytest.mark.parametrize("argv, line", [
    (["score", "--criterion", "ml", "--general", "general.txt", "--in-domain", "indomain.txt",
      "--order", "2"], "fms_cutoff=0.5"),
    (["score", "--criterion", "cosine", "--general", "general.txt", "--in-domain",
      "indomain.txt"], "in_lm=x.lm"),
    (["score", "--criterion", "mml", "--general", "pairs.tsv", "--in-domain", "pairs.tsv",
      "--order", "2"], "view=l"),
    (["preprocess", "--input", "general.txt"], "max_len=80"),
    (["preprocess", "--input", "pairs.tsv", "--format", "tsv-parallel"], "hyphen_alt=lex.tsv"),
    (["select", "--scores", "scores.tsv", "--theta", "0.3"], "k=10"),
])
def test_config_value_a_usage_check_rejects_is_dropped(work, capsys, argv, line):
    # the same values as flags are usage errors (test_ignored_options_are_usage_errors);
    # from the config that serves every step, the step drops them and runs as without them
    (work / "pairs.tsv").write_text("a b\tA B\nc d\tC D\n", encoding="utf-8")
    (work / "lex.tsv").write_text("slow\tlento\n", encoding="utf-8")
    (work / "scores.tsv").write_text("# direction: higher-is-better\n0\t0.5\n1\t0.1\n2\t0.4\n",
                                     encoding="utf-8")
    cfg = work / "c.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    argv = [str(work / a) if a.endswith((".txt", ".tsv")) else a for a in argv]
    assert run_cli(*argv, "--output", str(work / "flags.out")) == 0
    assert run_cli(*argv, "--config", str(cfg), "--output", str(work / "cfg.out")) == 0
    rows = [[l for l in (work / n).read_text(encoding="utf-8").splitlines()
             if not l.startswith("#")] for n in ("flags.out", "cfg.out")]
    assert rows[0] == rows[1]
    key = line.split("=")[0]
    assert not {"parameter." + key, "input." + key} & set(_manifest(work / "cfg.out"))


def test_config_values_of_a_repeatable_option(work, capsys):
    sel = work / "a.sel"
    select.write_selection(sel, select.SelectionResult([0, 1], "cosine", select.HIGHER))
    cfg = work / "c.cfg"
    cfg.write_text("selection=%s\n" % sel, encoding="utf-8")
    naive = ["combine", "--mode", "naive-rank", "--target-size", "2", "--output"]
    assert run_cli(*naive, str(work / "flag.txt"), "--selection", str(sel)) == 0
    assert run_cli(*naive, str(work / "cfg.txt"), "--config", str(cfg)) == 0
    rows = [[l for l in (work / n).read_text(encoding="utf-8").splitlines()
             if not l.startswith("#")] for n in ("flag.txt", "cfg.txt")]
    assert rows[0] == rows[1] == ["0", "1"]
    # the command line's values win: the config's value is not added to them
    diag = ["diagnose", "--config", str(cfg), "--corpus", str(work / "general.txt"),
            "--output", str(work / "d.tsv")]
    assert run_cli(*diag, "--selection", str(sel), "--selection", str(sel)) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert {k for k in _manifest(work / "d.tsv") if k.startswith("input.selection")} == {
        "input.selection0", "input.selection1"}
    # each config line adds one value
    cfg.write_text("selection=%s\nselection=%s\n" % (sel, sel), encoding="utf-8")
    assert run_cli(*diag) == 0
    text = (work / "d.tsv").read_text(encoding="utf-8")
    assert "unique_1\t" in text and "unique_2" not in text


@pytest.mark.parametrize("line, kept", [("dedup=true", 4), ("dedup=FALSE", 5)])
def test_config_value_of_a_flag_is_true_or_false(work, capsys, line, kept):
    cfg = work / "c.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = work / "out.txt"
    assert run_cli("preprocess", "--config", str(cfg), "--input", str(work / "general.txt"),
                   "--output", str(out)) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == kept
    assert _manifest(out)["parameter.dedup"] == str(kept == 4)


@pytest.mark.parametrize("line, argv, code, message", [
    ("dedup=no", ["preprocess", "--input", "general.txt"], 1,
     "line 1: --dedup takes true or false, got 'no'"),
    ("format=xml", ["preprocess", "--input", "general.txt"], 2,
     "argument --format: invalid choice: 'xml'"),
    ("direction=sideways", ["select", "--scores", "general.txt", "--k", "10"], 2,
     "argument --direction: invalid choice: 'sideways'"),
])
def test_config_flag_and_choice_values_are_checked(work, capsys, line, argv, code, message):
    cfg = work / "c.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    argv = [str(work / a) if a.endswith(".txt") else a for a in argv]
    assert run_cli(*argv, "--config", str(cfg), "--output", str(work / "out.txt")) == code
    assert message in capsys.readouterr().err
    assert not list(work.glob("out.txt*"))


@pytest.mark.parametrize("symbol", ["<s>", "</s>"])
def test_train_lm_rejects_sentence_markers_with_shared_vocabulary(work, capsys, symbol):
    (work / "marked.txt").write_text("a %s b\n" % symbol, encoding="utf-8")
    assert run_cli("train-lm", "--input", str(work / "marked.txt"), "--vocab-from",
                   str(work / "indomain.txt"), "--output", str(work / "m.lm")) == 1
    err = capsys.readouterr().err
    assert "error: corpus contains reserved symbol %r" % symbol in err
    assert "Traceback" not in err


@pytest.mark.parametrize("symbol", ["<s>", "</s>"])
@pytest.mark.parametrize("step", [["score", "--criterion", "ce"], ["perplexity"]]
                         + [["score", "--criterion", "ml", "--seed", str(s)] for s in range(6)],
                         ids=" ".join)
def test_scored_sentence_with_a_sentence_marker_is_exit_1(work, capsys, symbol, step):
    # a scored sentence may hold neither marker, whichever general lines the
    # seed trains ml's out-domain model on (seed 2 picks the marked line)
    marked = work / "marked.txt"
    marked.write_text("a b c a\n" * 30 + "a %s b\n" % symbol, encoding="utf-8")
    if step == ["perplexity"]:
        assert run_cli("train-lm", "--input", str(work / "indomain.txt"),
                       "--output", str(work / "in.lm")) == 0
        step = step + ["--lm", str(work / "in.lm"), "--input", str(marked)]
    else:
        step = step + ["--general", str(marked), "--in-domain", str(work / "indomain.txt")]
    assert run_cli(*step, "--output", str(work / "out.txt")) == 1
    err = capsys.readouterr().err
    assert "error: corpus contains reserved symbol %r" % symbol in err
    assert "Traceback" not in err


def test_config_line_without_equals_names_file_and_line(work, capsys):
    cfg = work / "c.cfg"
    cfg.write_text("order=2\n# comment\nno equals\n", encoding="utf-8")
    assert run_cli("train-lm", "--config", str(cfg), "--input", str(work / "indomain.txt"),
                   "--output", str(work / "m.lm")) == 1
    err = capsys.readouterr().err
    assert "error: %s line 3: config line without '=': 'no equals'" % cfg in err
    assert "Traceback" not in err


def test_topic_and_ppl_filter_cli(work, capsys):
    coll = work / "web.tsv"
    coll.write_text("d1\tthe market fell again\nd2\tdogs bark loudly\n", encoding="utf-8")
    topic = work / "topic.tsv"
    topic.write_text("market\t3\tFIN\n", encoding="utf-8")
    out = work / "topk.tsv"
    assert run_cli("topic-filter", "--collection", str(coll), "--topic", str(topic),
                   "--k", "50", "--output", str(out)) == 0
    body = [l for l in out.read_text(encoding="utf-8").splitlines()
            if not l.startswith("#")]
    assert body[0].startswith("d1\t")

    model_path = work / "in.lm"
    assert run_cli("train-lm", "--input", str(work / "indomain.txt"),
                   "--output", str(model_path), "--order", "2", "--smoothing", "wb") == 0
    out2 = work / "sents.tsv"
    assert run_cli("ppl-filter", "--collection", str(coll), "--topic", str(topic),
                   "--k", "50", "--n", "100", "--lm", str(model_path),
                   "--output", str(out2)) == 0
    body2 = [l for l in out2.read_text(encoding="utf-8").splitlines()
             if not l.startswith("#")]
    assert body2 == ["d1\tthe market fell again"]
    # --topic may be omitted only when K keeps everything
    assert run_cli("ppl-filter", "--collection", str(coll), "--k", "50", "--n", "100",
                   "--lm", str(model_path), "--output", str(out2)) == 2
    assert run_cli("ppl-filter", "--collection", str(coll), "--k", "100", "--n", "100",
                   "--lm", str(model_path), "--output", str(out2)) == 0
    capsys.readouterr()


def test_topic_filter_location_weights(work, capsys):
    pages = work / "pages"
    pages.mkdir()
    (pages / "p1").write_text("#title\nmarket\n#body\nmarket market\n", encoding="utf-8")
    (pages / "p2").write_text("#metadata\nmarket\n#headings\nmarket\n", encoding="utf-8")
    (pages / "p3").write_text("the market\n", encoding="utf-8")
    topic = work / "topic.tsv"
    topic.write_text("market\t1\tFIN\n", encoding="utf-8")
    out = work / "topk.tsv"
    assert run_cli("topic-filter", "--collection", str(pages), "--topic", str(topic),
                   "--k", "100", "--location-weights", "1,2,3,4", "--output", str(out)) == 0
    body = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert body == ["p1\t9.0", "p2\t5.0", "p3\t4.0"]
    capsys.readouterr()


@pytest.mark.parametrize("cutoff, code", [("1.5", 1), ("-0.1", 1), ("0", 0), ("1", 0)])
def test_fms_cutoff_outside_the_unit_interval_is_exit_1(work, capsys, cutoff, code):
    out = work / "fms.tsv"
    assert run_cli("score", "--criterion", "fms", "--general", str(work / "general.txt"),
                   "--in-domain", str(work / "indomain.txt"), "--fms-cutoff", cutoff,
                   "--output", str(out)) == code
    err = capsys.readouterr().err
    assert ("error: cutoff must be in [0, 1]" in err) == (code == 1)
    assert out.exists() == (code == 0)


def test_fms_cutoff_is_checked_before_the_inputs_are_read(work, capsys):
    assert run_cli("score", "--criterion", "fms", "--general", str(work / "missing.txt"),
                   "--in-domain", str(work / "indomain.txt"), "--fms-cutoff", "1.5",
                   "--output", str(work / "fms.tsv")) == 1
    err = capsys.readouterr().err
    assert "error: cutoff must be in [0, 1]" in err and "missing.txt" not in err


_TRAINING_STEPS = {
    "train-lm": ["train-lm", "--input", "missing.txt", "--output", "m.lm"],
    "score ce": ["score", "--criterion", "ce", "--general", "missing.txt",
                 "--in-domain", "missing.txt", "--output", "s.tsv"],
    "score ml": ["score", "--criterion", "ml", "--general", "missing.txt",
                 "--in-domain", "missing.txt", "--output", "s.tsv"],
    "score mml": ["score", "--criterion", "mml", "--general", "missing.txt",
                  "--in-domain", "missing.txt", "--output", "s.tsv"],
    "combine lm-interp": ["combine", "--mode", "lm-interp", "--set", "missing.txt",
                          "--dev", "missing.txt", "--output", "w.txt"],
}


@pytest.mark.parametrize("step", sorted(_TRAINING_STEPS))
@pytest.mark.parametrize("option, value, message", [
    ("--order", "0", "error: order must be >= 1"),
    ("--order", "11", "error: order must be <= 10"),
    ("--smoothing", "bogus", "error: unknown smoothing mode 'bogus'"),
], ids=["order", "order-max", "smoothing"])
def test_lm_options_are_checked_before_the_inputs_are_read(work, capsys, monkeypatch, step,
                                                           option, value, message):
    monkeypatch.chdir(work)
    assert run_cli(*_TRAINING_STEPS[step], option, value) == 1
    err = capsys.readouterr().err
    assert message in err and "missing.txt" not in err


@pytest.mark.parametrize("options, message", [
    (["--lambda", "100", "--n-best", "1"], "error: --lambda must be in (0, 1]"),
    (["--lambda", "0", "--n-best", "1"], "error: --lambda must be in (0, 1]"),
    (["--lambda", "0.5", "--n-best", "0"], "error: --n-best must be >= 1"),
    (["--lambda", "0.5", "--n-best", "1", "--delta", "-1"], "error: delta must be >= 0"),
    (["--lambda", "0.5", "--n-best", "1", "--delta", "0.1", "--multiplier", "-1"],
     "error: multiplier must be >= 0"),
], ids=["lambda-percent", "lambda-0", "n-best-0", "delta", "multiplier"])
def test_retrieve_options_are_checked_before_the_inputs_are_read(work, capsys, monkeypatch,
                                                                 options, message):
    # the collection and queries do not exist: the option is at fault first
    monkeypatch.chdir(work)
    assert run_cli("retrieve", "--collection", "missing.tsv", "--queries", "missing.tsv",
                   *options, "--output", "r.tsv") == 1
    err = capsys.readouterr().err
    assert message in err and "missing.tsv" not in err
    assert not Path("r.tsv").exists()


def test_lm_options_are_ignored_where_no_lm_is_trained(work, capsys, monkeypatch):
    # acceptance 11 passes --order and --smoothing to every criterion
    monkeypatch.chdir(work)
    lm.write_model(lm.train(corpus.load_corpus("indomain.txt"), order=2), "in.lm")
    lm.write_model(lm.train(corpus.load_corpus("general.txt"), order=2), "out.lm")
    for criterion in (["cosine", "--in-domain", "indomain.txt"],
                      ["fms", "--in-domain", "indomain.txt"],
                      ["ml", "--in-lm", "in.lm", "--out-lm", "out.lm"]):
        assert run_cli("score", "--criterion", *criterion, "--general", "general.txt",
                       "--order", "0", "--smoothing", "bogus", "--output", "s.tsv") == 0
    capsys.readouterr()


def test_cli_main_defaults_openblas_to_one_thread():
    # no step calls BLAS, so the numpy a step imports should start no thread pool;
    # a value the caller set stands
    if not Path("/proc/self/task").is_dir():
        pytest.skip("counts threads under /proc")
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import os, sys, corpusmine.cli\nsys.argv = ['corpusmine', '--version']\n"
             "try:\n    corpusmine.cli.main()\nexcept SystemExit:\n    pass\nimport numpy\n"
             "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split()[-2:] == ["1", "1"]  # after --version's line
    env["OPENBLAS_NUM_THREADS"] = "2"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split()[-2] == "2"


@pytest.mark.parametrize("argv", [
    ["topic-filter", "--k", "100"],
    ["ppl-filter", "--k", "100", "--n", "100", "--lm", "in.lm"],
])
def test_located_collection_rejects_repeated_document_id(work, capsys, argv):
    coll = work / "web.tsv"
    coll.write_text("d1\tfoo bar\nd1\tbaz qux\nd2\tfoo foo\n", encoding="utf-8")
    topic = work / "topic.tsv"
    topic.write_text("foo\t\tX\nbaz\t5\tX\n", encoding="utf-8")
    assert run_cli("train-lm", "--input", str(work / "indomain.txt"),
                   "--output", str(work / "in.lm"), "--order", "2") == 0
    argv = [str(work / a) if a.endswith(".lm") else a for a in argv]
    assert run_cli(*argv, "--collection", str(coll), "--topic", str(topic),
                   "--output", str(work / "out.tsv")) == 1
    err = capsys.readouterr().err
    assert "error: %s line 2: duplicate document id 'd1' (first on line 1)" % coll in err
    assert "Traceback" not in err
    assert not (work / "out.tsv").exists()


def test_ppl_filter_rejects_non_numeric_topic_weight(work, capsys):
    coll = work / "web.tsv"
    coll.write_text("d1\tthe market fell\n", encoding="utf-8")
    topic = work / "topic.tsv"
    topic.write_text("market\t3\tFIN\nfoo bar\tabc\tX\n", encoding="utf-8")
    model_path = work / "in.lm"
    assert run_cli("train-lm", "--input", str(work / "indomain.txt"),
                   "--output", str(model_path), "--order", "2") == 0
    capsys.readouterr()
    assert run_cli("ppl-filter", "--collection", str(coll), "--topic", str(topic),
                   "--k", "50", "--n", "100", "--lm", str(model_path),
                   "--output", str(work / "out.tsv")) == 1
    err = capsys.readouterr().err
    assert "error: %s line 2: bad weight 'abc'" % topic in err
    assert "Traceback" not in err
    topic.write_text("market\tnan\tFIN\n", encoding="utf-8")
    assert run_cli("ppl-filter", "--collection", str(coll), "--topic", str(topic),
                   "--k", "50", "--n", "100", "--lm", str(model_path),
                   "--output", str(work / "out.tsv")) == 1
    assert "error: %s line 1: bad weight 'nan'" % topic in capsys.readouterr().err


_MODEL_TEXT = ("\\smoothing: witten-bell\n\n\\data\\\nngram 1=3\n\n\\1-grams:\n"
               "-0.5\t</s>\n-0.5\ta\n-0.5\t<unk>\n\n\\end\\\n")


@pytest.mark.parametrize("old, new, message", [
    ("-0.5\t</s>", "-x.5\t</s>", "line 7: bad probability '-x.5'"),
    ("-0.5\ta", "-0.5\ta\tzz", "line 8: bad backoff 'zz'"),
    ("ngram 1=3", "ngram x=3", "line 4: bad n-gram order 'x'"),
    ("-0.5\t</s>", "400\t</s>", "line 7: bad probability '400'"),
    ("\\1-grams:\n", "\\2-grams:\n-0.5\ta </s>\n\n\\1-grams:\n",
     "line 6: section \\2-grams: out of order"),
    ("-0.5\ta", "-0.5\t", "line 8: empty word type"),
    ("\n\\end\\\n", "\n\\2-grams:\n-0.1\ta a\n\n\\end\\\n",
     "line 11: section \\2-grams: above the declared order 1"),
    ("ngram 1=3", "ngram 1=4", "line 4: ngram 1=4 but its section holds 3 n-grams"),
    ("-0.5\t<unk>\n", "", "line 4: ngram 1=3 but its section holds 2 n-grams"),
    ("-0.5\ta", "nan\ta", "line 8: bad probability 'nan'"),
    ("-0.5\ta", "inf\ta", "line 8: bad probability 'inf'"),
    ("-0.5\ta", "-0.5\ta\tnan", "line 8: bad backoff 'nan'"),
    # a backoff weight is the share of mass left for unseen words: in [0, 1]
    ("-0.5\ta", "-0.5\ta\t1e308", "line 8: bad backoff '1e308'"),
    ("-0.5\ta", "-0.5\ta\t-0.5", "line 8: bad backoff '-0.5'"),
    ("-0.5\ta", "0.5\ta", "line 8: bad probability '0.5'"),
    ("-0.5\ta", "-0.5 a", "line 8: unexpected line '-0.5 a'"),
    ("ngram 1=3\n", "ngram 1=3\nstray\n", "line 5: unexpected line 'stray'"),
    ("ngram 1=3\n\n\\1-grams:\n-0.5\t</s>\n-0.5\ta\n-0.5\t<unk>\n",
     "ngram 1=3\nngram 2=1\n\n\\1-grams:\n-0.5\t</s>\n-0.5\ta\n-0.5\t<unk>\n"
     "\n\\2-grams:\n-0.1\ta\n", "line 13: arity mismatch in '-0.1\\ta'"),
    ("-0.5\t</s>\n-0.5\ta", "-0.5\t</s>\tzz\nnan\ta", "line 7: bad backoff 'zz'"),
    ("ngram 1=3\n\n\\1-grams:\n-0.5\t</s>\n-0.5\ta\n",
     "ngram 1=4\n\n\\1-grams:\n-0.5\t</s>\n-0.5\ta\n-0.25\ta\n",
     "line 9: repeated 1-gram 'a' (first on line 8)"),
    ("ngram 1=3\n\n\\1-grams:\n-0.5\t</s>\n-0.5\ta\n-0.5\t<unk>\n",
     "ngram 1=3\nngram 2=3\n\n\\1-grams:\n-0.5\t</s>\n-0.5\ta\n-0.5\t<unk>\n"
     "\n\\2-grams:\n-0.1\ta </s>\n-0.2\ta a\n-0.3\ta </s>\n",
     "line 15: repeated 2-gram 'a </s>' (first on line 13)"),
    ("ngram 1=3\n\n\\1-grams:\n-0.5\t</s>\n-0.5\ta\n-0.5\t<unk>\n",
     "ngram 1=3\nngram 2=1\n\n\\1-grams:\n-0.5\t</s>\n-0.5\ta\n-0.5\t<unk>\n"
     "\n\\2-grams:\n-0.1\tx a\n", "line 13: word 'x' is not a 1-gram"),
    ("ngram 1=3\n\n\\1-grams:\n-0.5\t</s>\n-0.5\ta\n-0.5\t<unk>\n",
     "ngram 1=3\nngram 2=2\n\n\\1-grams:\n-0.5\t</s>\n-0.5\ta\n-0.5\t<unk>\n"
     "\n\\2-grams:\n-0.1\tx a\n-0.2\ty a\n", "line 13: word 'x' is not a 1-gram"),
    # a declared order with no n-grams: each order up to it would be built empty
    ("ngram 1=3\n", "ngram 1=3\nngram 2000=0\n", "line 5: ngram 2000=0 out of order"),
    ("ngram 1=3\n\n\\1-grams:\n-0.5\t</s>\n-0.5\ta\n-0.5\t<unk>\n",
     "ngram 1=3\nngram 2=0\n\n\\1-grams:\n-0.5\t</s>\n-0.5\ta\n-0.5\t<unk>\n\n\\2-grams:\n",
     "line 5: ngram 2=0 declares no n-grams"),
])
def test_perplexity_reports_malformed_model_fields(work, capsys, old, new, message):
    model_path = work / "m.lm"
    model_path.write_text(_MODEL_TEXT, encoding="utf-8")
    argv = ["perplexity", "--lm", str(model_path), "--input", str(work / "indomain.txt"),
            "--output", str(work / "ppl.txt")]
    assert run_cli(*argv) == 0
    model_path.write_text(_MODEL_TEXT.replace(old, new, 1), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(*argv) == 1
    assert "error: %s %s" % (model_path, message) in capsys.readouterr().err


@pytest.mark.parametrize("files, argv, code, message", [
    ({"m.lm": "\\data\\\n\n\\1-grams:\n-0.5\ta\n"},
     ["perplexity", "--lm", "m.lm", "--input", "indomain.txt"],
     1, "error: m.lm: no n-gram sections declared"),
    ({"m.lm": _MODEL_TEXT, "empty.txt": ""}, ["perplexity", "--lm", "m.lm", "--input", "empty.txt"],
     1, "error: cannot compute cross-entropy of an empty corpus"),
    ({"empty.txt": "", "q.tsv": "q1\tthe market\n"},
     ["retrieve", "--collection", "empty.txt", "--queries", "q.tsv", "--lambda", "0.5",
      "--n-best", "1"], 1, "error: cannot index an empty collection"),
    ({"web.tsv": "d1\tthe market\n", "gold.tsv": "d1\td1\textra\n"},
     ["retrieve", "--collection", "web.tsv", "--queries", "web.tsv", "--lambda", "0.5",
      "--n-best", "1", "--gold", "gold.tsv"],
     1, "error: gold.tsv line 1: expected source_id<TAB>target_id"),
    ({"web.tsv": "d1\tthe market\n", "topic.tsv": "market\t3\tFIN\n"},
     ["topic-filter", "--collection", "web.tsv", "--topic", "topic.tsv", "--k", "50",
      "--location-weights=-1,1,1,1"], 1, "error: location weights must be >= 0"),
    ({"web.tsv": "d1\tthe market\n", "topic.tsv": "market\t3\tFIN\n", "m.lm": _MODEL_TEXT},
     ["ppl-filter", "--collection", "web.tsv", "--topic", "topic.tsv", "--k", "50", "--n", "0",
      "--lm", "m.lm"], 1, "error: N must be in (0, 100]"),
    ({"web.tsv": "d1\tthe market\n", "topic.tsv": " \t3\tFIN\n"},
     ["topic-filter", "--collection", "web.tsv", "--topic", "topic.tsv", "--k", "50"],
     1, "error: topic.tsv line 1: empty term"),
    ({}, ["preprocess", "--dedup"],
     2, "error: --input and --output are required (or use two-file flags)"),
    ({}, ["diagnose"], 2, "error: nothing to diagnose"),
    ({}, ["diagnose", "--corpus", "general.txt", "--config"],
     2, "error: --config needs a file argument"),
    ({"sel.txt": "0\n"}, ["combine", "--mode", "corpus", "--selection", "sel.txt", "--corpus",
                          "general.txt", "--weights=-1", "--output", "w.txt"],
     1, "error: selection weights must be non-negative"),
    ({"t.txt": "a ||| b ||| 0.1 0.2\nc ||| d ||| 0.3\n"},
     ["combine", "--mode", "tables", "--table", "t.txt", "--output", "w.txt"],
     1, "error: t.txt line 2: arity mismatch"),
    ({"t.txt": "\n"}, ["combine", "--mode", "tables", "--table", "t.txt", "--output", "w.txt"],
     1, "error: t.txt: empty table"),
    ({"sel.txt": "0\n"}, ["combine", "--mode", "corpus", "--selection", "sel.txt", "--selection",
                          "sel.txt", "--corpus", "general.txt", "--weights", "1e308,1e308",
                          "--replicate", "--output", "w.txt"],
     1, "error: selection weights must have a finite sum"),
    ({"t.txt": "a ||| b ||| 0.1\n"},
     ["combine", "--mode", "tables", "--table", "t.txt", "--table", "t.txt", "--weights",
      "1e308,1e308", "--output", "w.txt"], 1, "error: table weights must have a finite sum"),
    ({"t.txt": "a ||| b ||| 0.1\n"},
     ["combine", "--mode", "tables", "--table", "t.txt", "--table", "t.txt", "--weights", "1",
      "--output", "w.txt"], 1, "error: weight count does not match table count"),
    ({"t.txt": "a ||| b ||| 0.1\n"},
     ["combine", "--mode", "tables", "--table", "t.txt", "--table", "t.txt", "--weights", "0,0",
      "--output", "w.txt"], 1, "error: weights must have positive sum"),
    ({"bad.tsv": "d1\tthe market\nd2 the dog\n"},
     ["retrieve", "--collection", "bad.tsv", "--queries", "bad.tsv", "--lambda", "0.5",
      "--n-best", "1", "--output", "w.txt"], 1, "error: bad.tsv line 2: expected doc_id<TAB>text"),
    ({"p.tsv": "a b\tc d\n"},
     ["preprocess", "--input", "p.tsv", "--format", "tsv-parallel", "--max-len", "0",
      "--output", "w.txt"], 1, "error: max_len must be >= 1"),
    ({"t.txt": "a ||| b ||| 0.5 0.5\nc ||| d ||| 0.5 -0.25\n"},
     ["combine", "--mode", "tables", "--table", "t.txt", "--output", "w.txt"],
     1, "error: t.txt line 2: bad score '-0.25'"),
], ids=["model-without-ngram-lines", "perplexity-of-empty-input", "empty-collection",
        "gold-line-of-3-fields", "negative-location-weight", "ppl-filter-n-0", "blank-topic-term",
        "dedup-without-files", "bare-diagnose", "trailing-config", "negative-corpus-weight",
        "table-of-mixed-arity", "empty-table", "overflowing-corpus-weights",
        "overflowing-table-weights", "table-weight-count", "zero-table-weights",
        "collection-line-without-tab", "max-len-0", "negative-table-score"])
def test_input_faults_end_in_an_error_exit(work, capsys, monkeypatch, files, argv, code,
                                           message):
    monkeypatch.chdir(work)
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not Path("w.txt").exists()


@pytest.mark.parametrize("argv", [
    ["perplexity", "--lm", "BAD", "--input", "indomain.txt"],
    ["select", "--scores", "BAD", "--k", "50", "--output", "out.txt"],
    ["combine", "--mode", "tables", "--table", "BAD", "--output", "out.txt"],
    ["combine", "--mode", "naive-rank", "--selection", "BAD", "--target-size", "1",
     "--output", "out.txt"],
    ["retrieve", "--collection", "BAD", "--queries", "q.tsv", "--lambda", "0.5",
     "--n-best", "1"],
    ["topic-filter", "--collection", "q.tsv", "--topic", "BAD", "--k", "50"],
    ["train-lm", "--config", "BAD", "--input", "indomain.txt", "--output", "m.lm"],
])
def test_non_utf8_input_is_an_error(work, capsys, argv):
    bad = work / "bad.txt"
    bad.write_bytes(b"a \xff b\n")
    (work / "q.tsv").write_text("q1\tthe market fell\n", encoding="utf-8")
    argv = [str(bad) if a == "BAD" else str(work / a) if a.endswith((".txt", ".tsv", ".lm"))
            else a for a in argv]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert "error: %s is not valid UTF-8:" % bad in err
    assert "Traceback" not in err


def test_mml_rejects_a_view_other_than_f(work, capsys, bilingual):
    argv = ["score", "--criterion", "mml", "--general", str(work / "general.tsv"),
            "--in-domain", str(work / "indomain.tsv"), "--order", "2"]
    assert run_cli(*argv, "--view", "l", "--output", str(work / "l.tsv")) == 2
    assert "--criterion mml" in capsys.readouterr().err
    assert not list(work.glob("l.tsv*"))
    # f is the surface itself: the same rows as no --view
    assert run_cli(*argv, "--view", "f", "--output", str(work / "f.tsv")) == 0
    assert run_cli(*argv, "--output", str(work / "none.tsv")) == 0
    rows = [[l for l in (work / n).read_text(encoding="utf-8").splitlines()
             if not l.startswith("#")] for n in ("f.tsv", "none.tsv")]
    assert rows[0] == rows[1]


@pytest.fixture
def factored(work):
    (work / "general.fac").write_text("America|america|NNP|NP00G00 fell|fall|VBD .|.|Fp\n"
                                      "rates|rate|NNS fell|fall|VBD .|.|Fp\n"
                                      "dogs|dog|NNS bark|bark|VBP .|.|Fp\n", encoding="utf-8")
    (work / "indomain.fac").write_text("Europe|europe|NNP|NP00G00 fell|fall|VBD .|.|Fp\n",
                                       encoding="utf-8")
    return work


def _header(path):
    return dict(l[2:].split(": ", 1) for l in path.read_text(encoding="utf-8").splitlines()
                if l.startswith("# "))


def test_score_through_a_factor_view_then_select(factored, capsys):
    scores_path = factored / "tn.tsv"
    assert run_cli("score", "--criterion", "cosine", "--general-format", "factored",
                   "--view", "tn", "--general", str(factored / "general.fac"),
                   "--in-domain", str(factored / "indomain.fac"), "--seed", "7",
                   "--output", str(scores_path)) == 0
    scores, _ = select.read_scores(scores_path)
    assert scores[0] == 1.0 and scores[2] == 0.0
    assert scores[1] == pytest.approx(0.2448, abs=1e-4)
    sel = factored / "tn.sel"
    assert run_cli("select", "--scores", str(scores_path), "--k", "34", "--output", str(sel)) == 0
    assert select.read_selection(sel).indices == [0]  # NE substitution makes sentence 0 the match
    # the selection header is the record of the view and seed it was scored with
    assert _header(sel)["view"] == "tn" and _header(sel)["seed"] == "7"
    assert run_cli("select", "--scores", str(scores_path), "--theta", "0.5",
                   "--output", str(sel)) == 0
    assert _header(sel)["view"] == "tn" and _header(sel)["seed"] == "7"
    capsys.readouterr()


def test_view_needing_ne_factors_on_a_plain_file_is_an_error(factored, capsys):
    general = factored / "general.txt"
    assert run_cli("score", "--criterion", "cosine", "--view", "ln", "--general", str(general),
                   "--in-domain", str(factored / "indomain.fac"),
                   "--output", str(factored / "ln.tsv")) == 1
    assert ("error: view 'ln' requires NE factors but no token in '%s' carries one"
            % general.name) in capsys.readouterr().err
    assert not (factored / "ln.tsv").exists()


@pytest.mark.parametrize("criterion", ["cosine", "ce", "ml", "mml", "fms"])
def test_empty_general_is_an_error_under_every_criterion(work, capsys, bilingual, criterion):
    ext = ".tsv" if criterion == "mml" else ".txt"
    argv = ["score", "--criterion", criterion, "--in-domain", str(work / ("indomain" + ext)),
            "--order", "2", "--general"]
    assert run_cli(*argv, str(work / ("general" + ext)), "--output", str(work / "s.tsv")) == 0
    assert ("normalization" in _header(work / "s.tsv")) == (criterion in ("ce", "ml", "mml"))
    empty = work / ("empty" + ext)
    empty.write_text("", encoding="utf-8")
    capsys.readouterr()
    # found before any model is trained: no smoothing warnings precede it
    assert run_cli(*argv, str(empty), "--output", str(work / "e.tsv")) == 1
    assert capsys.readouterr().err == "error: %s holds no sentences to score\n" % empty
    assert not list(work.glob("e.tsv*"))
    # an empty in-domain file: one message under every criterion, naming the file
    argv[argv.index("--in-domain") + 1] = str(empty)
    assert run_cli(*argv, str(work / ("general" + ext)), "--output", str(work / "e.tsv")) == 1
    assert capsys.readouterr().err == "error: %s holds no sentences to score against\n" % empty
    assert not list(work.glob("e.tsv*"))


@pytest.mark.parametrize("argv, message", [
    (["score", "--criterion", "ml", "--general", "general.txt", "--in-lm", "in.lm",
      "--out-lm", "out.lm", "--in-domain", "missing.txt"], "--in-domain"),
    (["score", "--criterion", "cosine", "--general", "general.txt", "--in-domain",
      "indomain.txt", "--in-lm", "in.lm"], "does not use --in-lm"),
    (["score", "--criterion", "cosine", "--general", "general.txt", "--in-domain",
      "indomain.txt", "--fms-cutoff", "0.5"], "--fms-cutoff"),
    (["score", "--criterion", "mml", "--general", "pairs.tsv", "--in-domain", "pairs.tsv",
      "--general-format", "factored"], "--general-format"),
    (["preprocess", "--input", "general.txt", "--max-len", "3"], "--max-len"),
    (["preprocess", "--input", "pairs.tsv", "--format", "tsv-parallel", "--hyphen-alt",
      "lex.tsv"], "--hyphen-alt"),
    (["preprocess", "--source", "general.txt", "--target", "general.txt", "--output-source",
      "a.txt", "--output-target", "b.txt", "--hyphen-alt", "lex.tsv"], "--hyphen-alt"),
    (["preprocess", "--input", "general.txt", "--source", "general.txt", "--target",
      "general.txt", "--output-source", "a.txt", "--output-target", "b.txt"], "--input"),
    (["preprocess", "--input", "general.txt", "--output-source", "a.txt"], "--source"),
    (["diagnose", "--corpus", "general.txt", "--selection", "s.sel"], "--selection"),
    (["diagnose", "--corpus", "general.txt", "--train", "indomain.txt"], "--test"),
    (["diagnose", "--test", "indomain.txt"], "--train"),
    (["combine", "--mode", "naive-rank", "--selection", "s.sel", "--target-size", "1",
      "--weights", "2"], "does not take --weights"),
    (["estimate-delta", "--input", "pairs.tsv", "--source", "general.txt"], "--source"),
    (["combine", "--mode", "naive-rank", "--selection", "s.sel", "--target-size", "1",
      "--format", "plain"], "does not take --format"),
    (["combine", "--mode", "naive-rank", "--selection", "s.sel", "--target-size", "1",
      "--order", "9"], "does not take --order"),
    (["combine", "--mode", "corpus", "--selection", "s.sel", "--corpus", "general.txt",
      "--smoothing", "mle"], "does not take --smoothing"),
    (["retrieve", "--collection", "pairs.tsv", "--queries", "pairs.tsv", "--lambda", "0.5",
      "--n-best", "1", "--multiplier", "9"], "--multiplier"),
    # a usage error before any input is read: the collection and model do not exist
    (["ppl-filter", "--collection", "missing.tsv", "--k", "100", "--n", "50", "--lm",
      "missing.lm", "--location-weights", "1,2"], "--location-weights needs"),
    (["topic-filter", "--collection", "missing.tsv", "--topic", "missing.tsv", "--k", "50",
      "--location-weights", "1,2"], "--location-weights needs"),
    (["score", "--criterion", "ml", "--general", "general.txt", "--in-lm", "in.lm",
      "--out-lm", "out.lm", "--view", "l"], "--view needs corpus-based training"),
    (["score", "--criterion", "ce", "--general", "general.txt"],
     "--criterion ce needs --in-domain or --in-lm"),
])
def test_ignored_options_are_usage_errors(work, capsys, argv, message):
    (work / "pairs.tsv").write_text("a b\tA B\n", encoding="utf-8")
    (work / "lex.tsv").write_text("slow\tlento\n", encoding="utf-8")
    select.write_selection(work / "s.sel", select.SelectionResult([0, 1], "cosine",
                                                                   select.HIGHER))
    before = sorted(p.name for p in work.iterdir())
    if "--output-source" not in argv:
        argv = argv + ["--output", "out.txt"]
    argv = [str(work / a) if a.endswith((".txt", ".tsv", ".lm", ".sel")) else a for a in argv]
    assert run_cli(*argv) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in work.iterdir()) == before


def _manifest(path):
    text = Path(str(path) + ".manifest").read_text(encoding="utf-8")
    return dict(line.split("=", 1) for line in text.splitlines())


@pytest.mark.parametrize("name", sorted(cli._steps(cli.build_parser())))
def test_manifest_records_every_option(tmp_path, name):
    # the manifest rule holds for every option of every step: a new option
    # is recorded without a line of its own
    (tmp_path / "in.txt").write_text("a b\n", encoding="utf-8")
    parser = cli.build_parser()
    sub = cli._steps(parser)[name]
    argv, recorded = [name], set()
    for action in sub._actions:
        if not action.option_strings or action.dest == "help":
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        elif action.type is cli._output:
            argv += [flag, str(tmp_path / action.dest)]
        else:
            value = tmp_path / "in.txt" if action.type is cli._input else "2"
            argv += [flag, str(action.choices[0] if action.choices else value)]
        if action.type is not cli._output and action.dest != "threads":
            recorded.add(action.dest)
    run = cli.Run(sub, parser.parse_args(argv))
    run.write()
    assert run.outputs
    for out in run.outputs:
        keys = {k.split(".", 1)[1] for k in _manifest(out) if "." in k}
        assert {k.rstrip("0") for k in keys} == recorded


def test_manifest_records_combine_weights(work, capsys):
    s1, s2 = work / "s1.sel", work / "s2.sel"
    select.write_selection(s1, select.SelectionResult([0, 1], "cosine", select.HIGHER))
    select.write_selection(s2, select.SelectionResult([1, 2], "ce", select.LOWER))
    out = work / "w.tsv"
    assert run_cli("combine", "--mode", "corpus", "--selection", str(s1), "--selection",
                   str(s2), "--corpus", str(work / "general.txt"), "--weights", "2,1",
                   "--output", str(out)) == 0
    manifest = _manifest(out)
    assert manifest["parameter.weights"] == "2,1"
    assert manifest["input.selection1"].startswith("%s sha256=" % s2)


def test_manifest_digest_is_of_the_input_before_the_step(work, capsys):
    path = work / "numbers.txt"
    path.write_text("a 12\nb 7\n", encoding="utf-8")
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    assert run_cli("preprocess", "--input", str(path), "--output", str(path),
                   "--normalize-numbers") == 0
    assert path.read_text(encoding="utf-8") == "a @num@\nb @num@\n"
    assert _manifest(path)["input.input"] == "%s sha256=%s" % (path, before)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_piped_input_is_read_by_the_step_and_recorded_by_path(work, capsys):
    coll = work / "coll.tsv"
    coll.write_text("d1\tthe market fell\nd2\tdogs bark\nd3\tthe the the dog\n",
                    encoding="utf-8")
    queries = work / "q.tsv"
    queries.write_text("q1\tthe market\n", encoding="utf-8")
    stop = work / "stop.txt"
    stop.write_text("the\n", encoding="utf-8")
    argv = ["retrieve", "--collection", str(coll), "--queries", str(queries), "--lambda", "1",
            "--n-best", "2", "--output"]

    def hits(name):
        return [l for l in (work / name).read_text(encoding="utf-8").splitlines()
                if not l.startswith("#")]

    assert run_cli(*argv, str(work / "file.tsv"), "--stopwords", str(stop)) == 0
    assert run_cli(*argv, str(work / "none.tsv")) == 0
    assert hits("file.tsv") != hits("none.tsv")  # the stopword list changes the ranking
    read, write = os.pipe()
    try:
        os.write(write, stop.read_bytes())
        os.close(write)
        piped = "/dev/fd/%d" % read
        assert run_cli(*argv, str(work / "pipe.tsv"), "--stopwords", piped) == 0
    finally:
        os.close(read)
    assert hits("pipe.tsv") == hits("file.tsv")
    manifest = _manifest(work / "pipe.tsv")
    assert manifest["parameter.stopwords_stream"] == piped
    assert "input.stopwords" not in manifest
    # a missing input still fails before the step, which writes nothing
    missing = str(work / "nope.txt")
    capsys.readouterr()
    assert run_cli(*argv, str(work / "miss.tsv"), "--stopwords", missing) == 1
    assert "error: [Errno 2] No such file or directory: %r" % missing in capsys.readouterr().err
    assert not (work / "miss.tsv").exists()
