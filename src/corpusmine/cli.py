"""Command-line entry point wiring all modules into reproducible pipelines.

Every run that writes an output file also writes a `<output>.manifest`
key-value file sufficient to reproduce the run.  One rule over the step's
options builds it: the subcommand and version; every option except the
outputs and the inert `--threads`; an input file as `input.<name>=<path>
sha256=<digest>`, its digest taken before the step runs; a directory as
`parameter.<name>_dir=<path>`; any other input (a pipe or device, which the
step must read once) as `parameter.<name>_stream=<path>`; any other set value as
`parameter.<name>=<value>`; a repeatable option's values as `<name>0`,
`<name>1`, ...; then the duration.  Log messages go to stderr; data streams
stay clean.

A `--config` file's `key=value` lines become tokens of the step's own
options, put before the command line's, so argparse reads them as it reads
flags and an explicit flag wins.  Each step makes its usage checks before
its one `yield` and reads its inputs after it; a check that fails on a value
from the config drops that value and runs again, so the step neither faults
on it nor records it.
"""

import argparse
import os
import stat
import sys
import time
from collections import Counter
from pathlib import Path

from . import __version__, corpus
from .errors import FormatError, ToolkitError, finite, read_lines, write_headed

try:  # the interpreter's own SHA-256: hashlib would map OpenSSL's libcrypto into every step
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def _sha256(path):
    h = sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _input(path):  # type= of an option naming an input file: its digest is recorded
    return path


def _output(path):  # type= of an option naming an output file: a manifest goes beside it
    return path


class Run:
    """One step's manifest, built by the manifest rule from its parser's options."""

    def __init__(self, parser, args):
        self.subcommand = args.subcommand
        self.params, self.inputs, self.outputs = {}, {}, []
        self.started = time.monotonic()
        for action in {a.dest: a for a in parser._actions}.values():
            value = getattr(args, action.dest, None)
            if value is None or action.dest == "threads":
                continue
            for i, v in enumerate(value) if isinstance(value, list) else [("", value)]:
                name = "%s%s" % (action.dest, i)
                if action.type is _output:
                    self.outputs.append(v)
                elif action.type is not _input:
                    self.params[name] = v
                elif stat.S_ISREG(mode := os.stat(v).st_mode):  # a missing input fails here
                    self.inputs[name] = (v, _sha256(v))
                else:  # by path: a pipe or device can be read only once, by the step
                    self.params[name + ("_dir" if stat.S_ISDIR(mode) else "_stream")] = v

    def write(self):
        """The manifest beside each output."""
        lines = ["subcommand=%s" % self.subcommand, "version=%s" % __version__]
        lines += ["parameter.%s=%s" % (k, self.params[k]) for k in sorted(self.params)]
        lines += ["input.%s=%s sha256=%s" % (k, *self.inputs[k]) for k in sorted(self.inputs)]
        lines.append("duration_s=%.6f" % (time.monotonic() - self.started))
        for output in self.outputs:
            write_headed(str(output) + ".manifest", {}, lines)


def _manifest_name(output):
    return Path(str(output) + ".manifest").name


def _report(output, rows, extra=None):
    """Write `# key: value` header lines (a file's manifest name first, then
    extra's items) and the rows to output, or to stdout, which has no manifest."""
    header = {"manifest": _manifest_name(output)} if output else {}
    write_headed(output, {**header, **(extra or {})}, rows)


def _log(msg):
    print(msg, file=sys.stderr)


class UsageError(Exception):
    """A usage fault of a step: its message, then the options (dests) it involves."""

    def __init__(self, message, *options):
        super().__init__(message)
        self.options = options


# --- subcommand implementations -------------------------------------------------


def _cmd_preprocess(args):
    pair = ("source", "target", "output_source", "output_target")
    two_file = any(getattr(args, name) for name in pair)
    if two_file and (not all(getattr(args, name) for name in pair) or args.input or args.output):
        raise UsageError("two-file mode needs --source, --target, --output-source and "
                         "--output-target, and no --input or --output", "input", "output", *pair)
    if not two_file and (args.input is None or args.output is None):
        raise UsageError("--input and --output are required (or use two-file flags)",
                         "input", "output")
    parallel = two_file or args.format == "tsv-parallel"
    if args.hyphen_alt and parallel:
        raise UsageError("--hyphen-alt needs a monolingual corpus, not sentence pairs",
                         "hyphen_alt", "format", *pair)
    if args.max_len is not None and not parallel:
        raise UsageError("--max-len filters sentence pairs, not a monolingual corpus",
                         "max_len", "format")
    yield
    if two_file:
        data = corpus.load_parallel(args.source, args.target, format=args.format)
    else:
        data = corpus.load_corpus(args.input, format=args.format)

    def transform(s):  # a sentence, or a pair's two sides
        if isinstance(s, corpus.SentencePair):
            return corpus.SentencePair(transform(s.source), transform(s.target))
        if args.normalize_apostrophes:
            s = corpus.normalize_apostrophes(s)
        if args.normalize_numbers:
            s = corpus.normalize_numbers(s)
        return s

    data = type(data)(tuple(map(transform, data)), id=data.id)
    if args.dedup:
        data = corpus.dedup(data)
    if args.max_len is not None:
        data = corpus.length_filter(data, args.max_len)
    if two_file:
        corpus.save_corpus(data.source_corpus(), args.output_source)
        corpus.save_corpus(data.target_corpus(), args.output_target)
    elif args.hyphen_alt:
        lexicon = corpus.load_lexicon(args.hyphen_alt)
        write_headed(args.output, {}, (corpus.hyphen_alt_markup(s, lexicon) for s in data))
    else:
        corpus.save_corpus(data, args.output, format=args.format)
    _log("preprocess: wrote %d sentences" % len(data))


def _load_view(path, fmt, view):
    """A corpus file, projected to its --view factors when one other than 'f' is set."""
    data = corpus.load_corpus(path, format=fmt)
    if view and view != "f":
        data = corpus.factor_view(data, view)
    return data


def _cmd_train_lm(args):
    from . import lm

    lm.check_options(args.order, args.smoothing)
    yield
    data = _load_view(args.input, args.format, args.view)
    vocab = (lm.Vocabulary.from_corpus(_load_view(args.vocab_from, args.format, args.view))
             if args.vocab_from else None)
    model = lm.train(data, order=args.order, smoothing=args.smoothing, vocab=vocab)
    lm.write_model(model, args.output)
    _log("train-lm: order %d %s model on %d sentences" % (args.order, model.smoothing, len(data)))


def _cmd_perplexity(args):
    from . import lm

    yield
    model = lm.read_model(args.lm)
    data = corpus.load_corpus(args.input, format=args.format)
    h = lm.cross_entropy(model, data)
    _report(args.output, ["cross_entropy_bits\t%s" % repr(h), "perplexity\t%s" % repr(2.0 ** h)],
            {"units": "bits"})


def _cmd_score(args):
    from . import select

    crit = args.criterion
    if args.fms_cutoff is not None and crit != "fms":
        raise UsageError("--fms-cutoff needs --criterion fms", "fms_cutoff")
    select.check_cutoff(args.fms_cutoff)
    # mml scores sentence pairs: source<TAB>target files, which carry no factors
    if crit == "mml" and (args.view not in (None, "f") or args.general_format != "plain"):
        raise UsageError("--criterion mml scores sentence pairs, which carry no factors for "
                         "--view or --general-format", "view", "general_format")
    fmt, view = ("tsv-parallel", None) if crit == "mml" else (args.general_format, args.view)
    files = {name: getattr(args, name) for name in select.LM_FILES.get(crit, ())}
    flags = ["--" + name.replace("_", "-") for name in files]
    unused = [n for names in select.LM_FILES.values() for n in names
              if n not in files and getattr(args, n)]
    if unused:
        raise UsageError("--criterion %s does not use --%s"
                         % (crit, unused[0].replace("_", "-")), *unused)
    if any(files.values()):
        missing = [flag for flag, path in zip(flags, files.values()) if not path]
        if missing:
            raise UsageError("--criterion %s is missing %s" % (crit, ", ".join(missing)), *files)
        if view and view != "f":
            raise UsageError("--view needs corpus-based training, not LM files", "view", *files)
        if args.in_domain is not None:
            raise UsageError("--in-domain/--reference is not used with LM files",
                             "in_domain", *files)
    elif args.in_domain is None:
        raise UsageError("--criterion %s needs --in-domain" % crit
                         + (" or %s" % ", ".join(flags) if flags else ""), "in_domain", *files)
    if crit in select.LM_FILES and not any(files.values()):  # the step trains its models
        from . import lm
        lm.check_options(args.order, args.smoothing)
    yield
    general = _load_view(args.general, fmt, view)
    if not len(general):
        raise ToolkitError("%s holds no sentences to score" % args.general)
    models = None
    if any(files.values()):
        from . import lm
        models = [lm.read_model(path) for path in files.values()]
    in_domain = None if models else _load_view(args.in_domain, fmt, view)
    if in_domain is not None and not len(in_domain):
        raise ToolkitError("%s holds no sentences to score against" % args.in_domain)
    scores = select.score(crit, general, in_domain, models, order=args.order, seed=args.seed,
                          smoothing=args.smoothing, cutoff=args.fms_cutoff)
    meta = {"criterion": crit, "direction": select.CRITERION_DIRECTIONS[crit]}
    if crit in select.LM_FILES:
        meta["normalization"] = "per-word cross-entropy, bits"
    meta["seed"] = args.seed
    if args.view:
        meta["view"] = args.view
    _report(args.output, select.index_rows(scores), meta)
    _log("score: %s over %d sentences" % (crit, len(scores)))


def _cmd_select(args):
    from . import select

    if (args.k is None) == (args.theta is None):
        raise UsageError("exactly one of --k and --theta is required", "k", "theta")
    yield
    scores, meta = select.read_scores(args.scores)
    direction = args.direction or meta.get("direction")
    if direction not in (select.HIGHER, select.LOWER):
        raise UsageError("--direction is required (score file carries none)", "direction")
    criterion = meta.get("criterion", "")
    if args.k is not None:
        result = select.select_top(scores, args.k, direction, criterion)
        extra = {"k": args.k}
    else:
        result = select.threshold_filter(scores, args.theta, direction, criterion)
        extra = {"theta": args.theta}
    extra["manifest"] = _manifest_name(args.output)
    for key in ("seed", "view"):
        if key in meta:
            extra[key] = meta[key]
    select.write_selection(args.output, result, extra)
    _log("select: kept %d of %d" % (len(result.indices), len(scores)))


def _given(args, *names):
    """The options among names that were given, as keyword arguments; the
    called function's defaults stand for the others."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _numbers(text, option):
    """The finite floats of a comma-separated option value."""
    try:
        return [finite(p) for p in text.split(",")]
    except ValueError:
        raise ToolkitError("%s needs comma-separated numbers, got %r" % (option, text)) from None


# the options each combine mode needs, then those it may also take
_COMBINE_MODES = {
    "corpus": (("selection", "corpus"), ("weights", "replicate", "format")),
    "naive-rank": (("selection", "target_size"), ()),
    "tables": (("table",), ("weights",)),
    "lm-interp": (("set", "dev"), ("format", "order", "smoothing")),
}


def _cmd_combine(args):
    from . import combine, select

    needs, takes = _COMBINE_MODES[args.mode]
    given = [d for d in dict.fromkeys(d for n, t in _COMBINE_MODES.values() for d in n + t)
             if getattr(args, d) is not None]
    missing = [d for d in needs if d not in given]
    stray = [d for d in given if d not in needs + takes]
    if missing or stray:
        raise UsageError("--mode %s %s --%s" % (args.mode, "needs" if missing else "does not take",
                                                (missing or stray)[0].replace("_", "-")),
                         *missing, *stray)
    if args.mode == "lm-interp":
        from . import lm
        lm.check_options(**_given(args, "order", "smoothing"))
    yield
    weights = _numbers(args.weights, "--weights") if args.weights else None
    fmt = _given(args, "format")
    if args.mode == "corpus":
        selections = [select.read_selection(p) for p in args.selection]
        data = corpus.load_corpus(args.corpus, **fmt)
        wc = combine.combine_corpus_weighted(selections, data, weights or [1.0] * len(selections))
        combine.write_weighted_corpus(wc, args.output, replicate=args.replicate)
    elif args.mode == "naive-rank":
        ranked = [select.read_selection(p).indices for p in args.selection]
        _report(args.output, map(str, combine.combine_naive_rank(ranked, args.target_size)))
    elif args.mode == "tables":
        tables = [combine.read_table(p) for p in args.table]
        combine.write_table(combine.interpolate_tables(tables, weights or [1.0] * len(tables)),
                            args.output)
    else:
        sets = [corpus.load_corpus(p, **fmt) for p in args.set]
        dev = corpus.load_corpus(args.dev, **fmt)
        mixture = combine.combine_advanced_lm(sets, dev, **_given(args, "order", "smoothing"))
        rows = []
        for i, (w, component) in enumerate(zip(mixture.weights, mixture.components)):
            component_path = "%s.%d.lm" % (args.output, i)
            lm.write_model(component, component_path)
            rows.append("%s\t%s" % (repr(w), Path(component_path).name))
        _report(args.output, rows)
    _log("combine: mode %s done" % args.mode)


def _cmd_retrieve(args):
    from . import retrieve

    if args.multiplier is not None and args.delta is None:
        raise UsageError("--multiplier scales --delta, which is not given", "multiplier", "delta")
    if not 0 < args.lambda_percent <= 1:
        raise ToolkitError("--lambda must be in (0, 1]")
    if args.n_best < 1:
        raise ToolkitError("--n-best must be >= 1")
    params = (None if args.delta is None
              else retrieve.LengthFilterParams(args.delta, **_given(args, "multiplier")))
    yield
    index = retrieve.DocumentIndex(retrieve.load_collection(args.collection))
    queries = retrieve.load_collection(args.queries)
    stopwords = retrieve.load_stopwords(args.stopwords) if args.stopwords else frozenset()
    stats = Counter()
    results = {
        q.id: retrieve.retrieve(q, index, args.lambda_percent, args.n_best,
                                params=params, stopwords=stopwords, stats=stats)
        for q in queries
    }
    extra = {}
    if args.gold:
        gold = retrieve.load_gold(args.gold)
        ranked_ids = {src: [d for d, _ in r] for src, r in results.items()}
        prf = retrieve.evaluate_retrieval(ranked_ids, gold)
        extra = dict(zip(("precision", "recall", "f1"), map(repr, prf)))
    _report(args.output, retrieve.result_rows(results), extra)
    _log("retrieve: %d queries against %d documents; %d postings visited of %d "
         "(query terms x candidates)" % (len(queries), index.n_docs, stats["postings"],
                                         stats["postings_base"]))


def _cmd_estimate_delta(args):
    from . import retrieve

    tsv = args.input and not (args.source or args.target)
    if not tsv and not (args.source and args.target and not args.input):
        raise UsageError("need --input (TSV) or --source and --target, not both",
                         "input", "source", "target")
    yield
    data = (corpus.load_corpus(args.input, format="tsv-parallel") if tsv
            else corpus.load_parallel(args.source, args.target))
    _report(args.output, ["delta\t%s" % repr(retrieve.estimate_delta(data))])


def _location_weights(args):
    from . import webfilter

    if args.location_weights is None:
        return webfilter.LocationWeights()
    parts = _numbers(args.location_weights, "--location-weights")
    if len(parts) != 4:
        raise UsageError("--location-weights needs title,headings,metadata,body",
                         "location_weights")
    return webfilter.LocationWeights(*parts)


def _cmd_topic_filter(args):
    from . import webfilter

    weights = _location_weights(args)
    yield
    docs = webfilter.load_located_collection(args.collection)
    topic = webfilter.load_topic_file(args.topic)
    scored = [(d.id, webfilter.topic_relevance(d, topic, weights)) for d in docs]
    kept = webfilter.filter_documents_topk(scored, args.k)
    _report(args.output, ["%s\t%r" % pair for pair in kept], {
        "k": args.k,
        "location-weights": "title=%g headings=%g metadata=%g body=%g"
        % (weights.title, weights.headings, weights.metadata, weights.body),
    })
    _log("topic-filter: kept %d of %d documents" % (len(kept), len(docs)))


def _cmd_ppl_filter(args):
    from . import lm, webfilter

    if args.topic is None and args.k < 100:
        raise UsageError("--topic is required when --k < 100", "topic", "k")
    weights = _location_weights(args)
    yield
    docs = webfilter.load_located_collection(args.collection)
    topic = webfilter.load_topic_file(args.topic) if args.topic else []
    model = lm.read_model(args.lm)
    kept = webfilter.combined_filter(docs, topic, args.k, args.n, model, weights)
    _report(args.output, ["%s\t%s" % row for row in kept], {"k": args.k, "n": args.n})
    _log("ppl-filter: kept %d sentences" % len(kept))


def _cmd_diagnose(args):
    from . import metrics, select

    if (args.train is None) != (args.test is None):
        raise UsageError("--train and --test go together", "train", "test")
    if args.selection and len(args.selection) < 2:
        raise UsageError("--selection compares two or more selections", "selection")
    if not (args.corpus or args.train or args.selection):
        raise UsageError("nothing to diagnose: pass --corpus, --train/--test or >=2 --selection")
    yield
    rows = []
    if args.corpus:
        data = corpus.load_corpus(args.corpus, format=args.format)
        tokens, types, ratio = metrics.vocab_stats(data)
        rows += [("tokens", tokens), ("types", types), ("type_token_ratio", repr(ratio))]
    if args.train:
        train_c = corpus.load_corpus(args.train, format=args.format)
        test_c = corpus.load_corpus(args.test, format=args.format)
        rows.append(("oov_ratio_tokens", repr(metrics.oov_ratio(train_c, test_c))))
        rows.append(("oov_ratio_types", repr(metrics.oov_ratio(train_c, test_c, by_type=True))))
    if args.selection:
        subsets = [set(select.read_selection(p).indices) for p in args.selection]
        overlap, uniques = metrics.overlap_stats(subsets)
        rows.append(("overlap", repr(overlap)))
        for i, u in enumerate(uniques):
            rows.append(("unique_%d" % i, repr(u)))
    _report(args.output, [metrics.format_table(("metric", "value"), rows)] if args.table
            else ["%s\t%s" % row for row in rows])


def _cmd_bleu(args):
    from . import metrics

    yield
    hyp = corpus.load_corpus(args.hypothesis)
    ref = corpus.load_corpus(args.reference)
    report = metrics.bleu(hyp, ref, smooth=args.smooth)
    rows = [("p%d" % n, p) for n, p in enumerate(report.precisions, 1)]
    rows += [("brevity_penalty", report.brevity_penalty), ("bleu", report.score)]
    _report(args.output, ["%s\t%r" % row for row in rows])


# --- parser ----------------------------------------------------------------------


def _add_lm_opts(sp):
    sp.add_argument("--order", type=int, default=4)
    sp.add_argument("--smoothing", default="modified-kneser-ney")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="corpusmine",
        description="Domain-focused corpus mining toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("preprocess", help="dedup / length / number / hyphen / apostrophe transforms")
    p.add_argument("--input", type=_input)
    p.add_argument("--output", type=_output)
    p.add_argument("--source", type=_input)
    p.add_argument("--target", type=_input)
    p.add_argument("--output-source", type=_output)
    p.add_argument("--output-target", type=_output)
    p.add_argument("--format", default="plain", choices=["plain", "factored", "tsv-parallel"])
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--max-len", type=int)
    p.add_argument("--normalize-numbers", action="store_true")
    p.add_argument("--normalize-apostrophes", action="store_true")
    p.add_argument("--hyphen-alt", metavar="LEXICON", type=_input)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("train-lm", help="train an n-gram language model")
    p.add_argument("--input", required=True, type=_input)
    p.add_argument("--output", required=True, type=_output)
    p.add_argument("--format", default="plain", choices=["plain", "factored"])
    p.add_argument("--view", choices=list(corpus.FACTOR_VIEWS))
    p.add_argument("--vocab-from", type=_input)
    _add_lm_opts(p)
    p.set_defaults(func=_cmd_train_lm)

    p = sub.add_parser("perplexity", help="cross-entropy and perplexity of a corpus under a model")
    p.add_argument("--lm", required=True, type=_input)
    p.add_argument("--input", required=True, type=_input)
    p.add_argument("--format", default="plain", choices=["plain", "factored"])
    p.add_argument("--output", type=_output)
    p.set_defaults(func=_cmd_perplexity)

    p = sub.add_parser("score", help="score general-corpus sentences for domain relevance")
    p.add_argument("--criterion", required=True, choices=["cosine", "ce", "ml", "mml", "fms"])
    p.add_argument("--general", required=True, type=_input)
    p.add_argument("--general-format", default="plain", choices=["plain", "factored"])
    p.add_argument("--in-domain", type=_input)
    p.add_argument("--reference", dest="in_domain", type=_input,
                   help="alias for --in-domain (FMS reference set)")
    p.add_argument("--in-lm", type=_input)
    p.add_argument("--out-lm", type=_input)
    p.add_argument("--in-src-lm", type=_input)
    p.add_argument("--out-src-lm", type=_input)
    p.add_argument("--in-tgt-lm", type=_input)
    p.add_argument("--out-tgt-lm", type=_input)
    p.add_argument("--view", choices=list(corpus.FACTOR_VIEWS))
    p.add_argument("--fms-cutoff", type=finite)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; scoring runs on one thread")
    p.add_argument("--output", type=_output)
    _add_lm_opts(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("select", help="top-K or threshold selection from a score file")
    p.add_argument("--scores", required=True, type=_input)
    p.add_argument("--k", type=finite)
    p.add_argument("--theta", type=finite)
    p.add_argument("--direction", choices=["higher-is-better", "lower-is-better"])
    p.add_argument("--output", required=True, type=_output)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("combine", help="combine selections, tables or LMs")
    p.add_argument("--mode", required=True, choices=["corpus", "naive-rank", "tables", "lm-interp"])
    p.add_argument("--selection", action="append", type=_input)
    p.add_argument("--table", action="append", type=_input)
    p.add_argument("--set", action="append", type=_input)
    p.add_argument("--corpus", type=_input)
    p.add_argument("--dev", type=_input)
    p.add_argument("--weights")
    p.add_argument("--target-size", type=int)
    p.add_argument("--replicate", action="store_true", default=None)  # None: not given
    # no defaults, so that a mode which reads none of these can tell one was given
    p.add_argument("--format", choices=["plain", "factored", "tsv-parallel"])
    p.add_argument("--order", type=int)
    p.add_argument("--smoothing")
    p.add_argument("--output", required=True, type=_output)
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("retrieve", help="rank collection documents for each query document")
    p.add_argument("--collection", required=True, type=_input)
    p.add_argument("--queries", required=True, type=_input)
    p.add_argument("--lambda", dest="lambda_percent", type=finite, required=True)
    p.add_argument("--n-best", type=int, required=True)
    p.add_argument("--delta", type=finite)
    p.add_argument("--multiplier", type=finite)
    p.add_argument("--stopwords", type=_input)
    p.add_argument("--gold", type=_input)
    p.add_argument("--output", type=_output)
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("estimate-delta", help="mean relative length deviation of a parallel corpus")
    p.add_argument("--input", type=_input)
    p.add_argument("--source", type=_input)
    p.add_argument("--target", type=_input)
    p.add_argument("--output", type=_output)
    p.set_defaults(func=_cmd_estimate_delta)

    p = sub.add_parser("topic-filter", help="top-K%% documents by topic relevance")
    p.add_argument("--collection", required=True, type=_input)
    p.add_argument("--topic", required=True, type=_input)
    p.add_argument("--k", type=finite, required=True)
    p.add_argument("--location-weights")
    p.add_argument("--output", type=_output)
    p.set_defaults(func=_cmd_topic_filter)

    p = sub.add_parser("ppl-filter", help="combined topic/perplexity K/N filter")
    p.add_argument("--collection", required=True, type=_input)
    p.add_argument("--topic", type=_input)
    p.add_argument("--k", type=finite, required=True)
    p.add_argument("--n", type=finite, required=True)
    p.add_argument("--lm", required=True, type=_input)
    p.add_argument("--location-weights")
    p.add_argument("--output", type=_output)
    p.set_defaults(func=_cmd_ppl_filter)

    p = sub.add_parser("diagnose", help="corpus statistics, OOV and subset overlap")
    p.add_argument("--corpus", type=_input)
    p.add_argument("--train", type=_input)
    p.add_argument("--test", type=_input)
    p.add_argument("--selection", action="append", type=_input)
    p.add_argument("--format", default="plain", choices=["plain", "factored"])
    p.add_argument("--table", action="store_true", help="aligned table instead of TSV")
    p.add_argument("--output", type=_output)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("bleu", help="corpus BLEU of a hypothesis file against a reference file")
    p.add_argument("--hypothesis", required=True, type=_input)
    p.add_argument("--reference", required=True, type=_input)
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--output", type=_output)
    p.set_defaults(func=_cmd_bleu)

    return parser


def _steps(parser):
    """The subcommand parsers by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _parse(argv, parser):
    """The command line parsed alone (`bare`), then parsed with the key=value
    lines of its --config file as tokens of the step's own options, put after
    the step's name so that a command-line flag, coming later, wins.  A flag
    option takes true (the flag) or false (no token); a repeatable option takes
    the config's values only when the command line gives it none; a key that
    names another step's option is skipped."""
    path = None
    if "--config" in argv:
        i = argv.index("--config")
        if i + 1 >= len(argv):
            parser.error("--config needs a file argument")
        path, argv = argv[i + 1], argv[:i] + argv[i + 2 :]
    bare = parser.parse_args(argv)
    steps = _steps(parser)
    options = {a.dest for sub in steps.values() for a in sub._actions} - {"help"}
    own = {a.dest: a for a in reversed(steps[bare.subcommand]._actions)}
    tokens = []
    for lineno, line in read_lines(path) if path else ():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError("%s line %d: config line without '=': %r" % (path, lineno, line))
        key, value = line.split("=", 1)
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in options:
            raise FormatError("%s line %d: no option is named %r" % (path, lineno, key))
        if key not in own:
            continue
        flag = own[key].option_strings[0]
        if own[key].nargs == 0:
            if value.lower() not in ("true", "false"):
                raise FormatError("%s line %d: %s takes true or false, got %r"
                                  % (path, lineno, flag, value))
            tokens += [flag] if value.lower() == "true" else []
        elif not isinstance(own[key], argparse._AppendAction) or getattr(bare, key) is None:
            tokens.append("%s=%s" % (flag, value))
    i = argv.index(bare.subcommand) + 1
    return bare, parser.parse_args(argv[:i] + tokens + argv[i:])


def _checked(args, bare):
    """The step, a generator, run through its usage checks to its one yield.
    While a check fails on an option whose value came from the config (it
    differs from `bare`), the option takes its `bare` value and the checks run
    again: one config file serves every step."""
    while True:
        step = args.func(args)
        try:
            next(step)
            return step
        except UsageError as fault:
            dropped = [o for o in fault.options if getattr(args, o) != getattr(bare, o)]
            if not dropped:
                raise
            setattr(args, dropped[0], getattr(bare, dropped[0]))


def run(argv):
    parser = build_parser()
    try:
        bare, args = _parse(list(argv), parser)
        step = _checked(args, bare)
        manifest = Run(_steps(parser)[args.subcommand], args)
        next(step, None)  # the step reads its inputs and writes its outputs
        manifest.write()
        return 0
    except UsageError as fault:
        parser.print_usage(sys.stderr)
        print("%s: error: %s" % (parser.prog, fault), file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    except (ToolkitError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    # no step gains from a BLAS thread pool: set before any step imports numpy
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
