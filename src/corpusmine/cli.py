"""Command-line entry point wiring all modules into reproducible pipelines.

Every run that writes an output file also writes a `<output>.manifest`
key-value file (subcommand, parameters, input digests, seed, version,
duration) sufficient to reproduce the run.  Log messages go to stderr; data
streams stay clean.
"""

import argparse
import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

from . import __version__, corpus
from .errors import FormatError, ToolkitError, finite, read_lines, write_text


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class Run:
    """Collects parameters and input digests, then writes the manifest."""

    def __init__(self, subcommand):
        self.subcommand = subcommand
        self.params = {}
        self.inputs = {}
        self.started = time.monotonic()

    def param(self, key, value):
        if value is not None:
            self.params[key] = value

    def input(self, name, path):
        if path is not None:
            self.inputs[name] = (str(path), _sha256(path))

    def manifest_name(self, output):
        return Path(str(output) + ".manifest").name

    def write(self, output):
        lines = ["subcommand=%s" % self.subcommand, "version=%s" % __version__]
        lines += ["parameter.%s=%s" % (k, self.params[k]) for k in sorted(self.params)]
        lines += ["input.%s=%s sha256=%s" % (k, *self.inputs[k]) for k in sorted(self.inputs)]
        lines.append("duration_s=%.6f" % (time.monotonic() - self.started))
        write_text(str(output) + ".manifest", "\n".join(lines) + "\n")

    def report(self, output, rows, extra=None):
        """Write `# key: value` header lines (the manifest's name first, then
        extra's items) and the rows to output and its manifest, or to stdout."""
        items = [("manifest", self.manifest_name(output or "stdout"))] + list((extra or {}).items())
        text = "\n".join(["# %s: %s" % item for item in items] + list(rows)) + "\n"
        if output is None:
            sys.stdout.write(text)
        else:
            write_text(output, text)
            self.write(output)


def _log(msg):
    print(msg, file=sys.stderr)


# --- subcommand implementations -------------------------------------------------


def _cmd_preprocess(args, parser):
    run = Run("preprocess")
    for key in ("format", "max_len", "dedup", "normalize_numbers",
                "normalize_apostrophes", "hyphen_alt"):
        run.param(key, getattr(args, key))
    two_file = args.source is not None
    if two_file:
        if args.target is None or args.output_source is None or args.output_target is None:
            parser.error("two-file mode needs --source, --target, --output-source and --output-target")
        run.input("source", args.source)
        run.input("target", args.target)
        data = corpus.load_parallel(args.source, args.target, format=args.format)
    else:
        if args.input is None or args.output is None:
            parser.error("--input and --output are required (or use two-file flags)")
        run.input("input", args.input)
        data = corpus.load_corpus(args.input, format=args.format)

    def transform_sentence(s):
        if args.normalize_apostrophes:
            s = corpus.normalize_apostrophes(s)
        if args.normalize_numbers:
            s = corpus.normalize_numbers(s)
        return s

    if isinstance(data, corpus.ParallelCorpus):
        pairs = tuple(
            corpus.SentencePair(transform_sentence(p.source), transform_sentence(p.target))
            for p in data.pairs
        )
        data = corpus.ParallelCorpus(pairs, id=data.id)
        if args.dedup:
            data = corpus.dedup(data)
        if args.max_len is not None:
            data = corpus.length_filter(data, args.max_len)
        if two_file:
            corpus.save_corpus(data.source_corpus(), args.output_source)
            corpus.save_corpus(data.target_corpus(), args.output_target)
            run.write(args.output_source)
            run.write(args.output_target)
        else:
            corpus.save_parallel(data, args.output)
            run.write(args.output)
    else:
        sentences = tuple(transform_sentence(s) for s in data.sentences)
        data = corpus.Corpus(sentences, id=data.id)
        if args.dedup:
            data = corpus.dedup(data)
        if args.hyphen_alt:
            run.input("lexicon", args.hyphen_alt)
            lexicon = corpus.Lexicon.load(args.hyphen_alt)
            write_text(args.output, "".join(
                corpus.hyphen_alt_markup(s, lexicon) + "\n" for s in data.sentences
            ))
        else:
            corpus.save_corpus(data, args.output, format=args.format if args.format == "factored" else "plain")
        run.write(args.output)
    _log("preprocess: wrote %d sentences" % len(data))
    return 0


def _load_view(path, fmt, view):
    """A corpus file, projected to its --view factors when one other than 'f' is set."""
    data = corpus.load_corpus(path, format=fmt)
    if view and view != "f":
        data = corpus.factor_view(data, view)
    return data


def _cmd_train_lm(args, parser):
    from . import lm

    run = Run("train-lm")
    for key in ("order", "smoothing", "format", "view"):
        run.param(key, getattr(args, key))
    run.input("input", args.input)
    data = _load_view(args.input, args.format, args.view)
    vocab = None
    if args.vocab_from:
        run.input("vocab_from", args.vocab_from)
        vocab = lm.Vocabulary.from_corpus(
            _load_view(args.vocab_from, args.format, args.view)
        )
    model = lm.train(data, order=args.order, smoothing=args.smoothing, vocab=vocab)
    lm.write_model(model, args.output)
    run.write(args.output)
    _log("train-lm: order %d %s model on %d sentences" % (args.order, model.smoothing, len(data)))
    return 0


def _cmd_perplexity(args, parser):
    from . import lm

    run = Run("perplexity")
    run.input("lm", args.lm)
    run.input("input", args.input)
    run.param("format", args.format)
    model = lm.read_model(args.lm)
    data = corpus.load_corpus(args.input, format=args.format)
    h = lm.cross_entropy(model, data)
    run.report(args.output, ["cross_entropy_bits\t%s" % repr(h), "perplexity\t%s" % repr(2.0 ** h)],
               {"units": "bits"})
    return 0


def _cmd_score(args, parser):
    from . import lm, select

    run = Run("score")
    # --threads is accepted and has no effect, so it is not recorded
    for key in ("criterion", "view", "order", "smoothing", "seed", "fms_cutoff"):
        run.param(key, getattr(args, key))
    crit = args.criterion
    # mml scores sentence pairs: source<TAB>target files, which carry no factors
    fmt, view = ("tsv-parallel", None) if crit == "mml" else (args.general_format, args.view)
    run.input("general", args.general)
    general = _load_view(args.general, fmt, view)
    files = {name: getattr(args, name) for name in select.LM_FILES.get(crit, ())}
    flags = ["--" + name.replace("_", "-") for name in files]
    in_domain = models = None
    if any(files.values()):
        missing = [flag for flag, path in zip(flags, files.values()) if not path]
        if missing:
            parser.error("--criterion %s is missing %s" % (crit, ", ".join(missing)))
        if view and view != "f":
            parser.error("--view needs corpus-based training, not LM files")
        for name, path in files.items():
            run.input(name, path)
        models = [lm.read_model(path) for path in files.values()]
    else:
        if args.in_domain is None:
            parser.error("--criterion %s needs --in-domain" % crit
                         + (" or %s" % ", ".join(flags) if flags else ""))
        run.input("in_domain", args.in_domain)
        in_domain = _load_view(args.in_domain, fmt, view)
    scores = select.score(crit, general, in_domain, models, order=args.order, seed=args.seed,
                          smoothing=args.smoothing, cutoff=args.fms_cutoff)
    meta = {"criterion": crit, "direction": select.CRITERION_DIRECTIONS[crit],
            "normalization": "per-word cross-entropy, bits", "seed": args.seed}
    if args.view:
        meta["view"] = args.view
    run.report(args.output, select.index_rows(scores), meta)
    _log("score: %s over %d sentences" % (crit, len(scores)))
    return 0


def _cmd_select(args, parser):
    from . import select

    run = Run("select")
    run.input("scores", args.scores)
    run.param("k", args.k)
    run.param("theta", args.theta)
    if (args.k is None) == (args.theta is None):
        parser.error("exactly one of --k and --theta is required")
    scores, meta = select.read_scores(args.scores)
    direction = args.direction or meta.get("direction")
    if direction not in (select.HIGHER, select.LOWER):
        parser.error("--direction is required (score file carries none)")
    criterion = meta.get("criterion", "")
    if args.k is not None:
        result = select.select_top(scores, args.k, direction, criterion)
        extra = {"k": args.k}
    else:
        result = select.threshold_filter(scores, args.theta, direction, criterion)
        extra = {"theta": args.theta}
    extra["manifest"] = run.manifest_name(args.output)
    for key in ("seed", "view"):
        if key in meta:
            extra[key] = meta[key]
    select.write_selection(args.output, result, extra)
    run.write(args.output)
    _log("select: kept %d of %d" % (len(result.indices), len(scores)))
    return 0


def _numbers(text, option):
    """The finite floats of a comma-separated option value."""
    try:
        return [finite(p) for p in text.split(",")]
    except ValueError:
        raise ToolkitError("%s needs comma-separated numbers, got %r" % (option, text)) from None


def _cmd_combine(args, parser):
    from . import combine, lm, select

    run = Run("combine")
    run.param("mode", args.mode)
    weights = _numbers(args.weights, "--weights") if args.weights else None
    if args.mode == "corpus":
        if not args.selection or args.corpus is None:
            parser.error("--mode corpus needs --selection (repeatable) and --corpus")
        selections = [select.read_selection(p) for p in args.selection]
        for i, p in enumerate(args.selection):
            run.input("selection%d" % i, p)
        run.input("corpus", args.corpus)
        if weights is None:
            weights = [1.0] * len(selections)
        data = corpus.load_corpus(args.corpus, format=args.format)
        wc = combine.combine_corpus_weighted(selections, data, weights)
        combine.write_weighted_corpus(wc, args.output, replicate=args.replicate)
        run.write(args.output)
    elif args.mode == "naive-rank":
        if not args.selection or args.target_size is None:
            parser.error("--mode naive-rank needs --selection (repeatable) and --target-size")
        ranked = [select.read_selection(p).indices for p in args.selection]
        for i, p in enumerate(args.selection):
            run.input("selection%d" % i, p)
        merged = combine.combine_naive_rank(ranked, args.target_size)
        run.report(args.output, map(str, merged))
    elif args.mode == "tables":
        if not args.table:
            parser.error("--mode tables needs --table (repeatable)")
        tables = [combine.read_table(p) for p in args.table]
        for i, p in enumerate(args.table):
            run.input("table%d" % i, p)
        if weights is None:
            weights = [1.0] * len(tables)
        combine.write_table(combine.interpolate_tables(tables, weights), args.output)
        run.write(args.output)
    elif args.mode == "lm-interp":
        if not args.set or args.dev is None:
            parser.error("--mode lm-interp needs --set (repeatable) and --dev")
        sets = [corpus.load_corpus(p, format=args.format) for p in args.set]
        for i, p in enumerate(args.set):
            run.input("set%d" % i, p)
        run.input("dev", args.dev)
        dev = corpus.load_corpus(args.dev, format=args.format)
        mixture = combine.combine_advanced_lm(
            sets, dev, order=args.order, smoothing=args.smoothing
        )
        rows = []
        for i, (w, component) in enumerate(zip(mixture.weights, mixture.components)):
            component_path = "%s.%d.lm" % (args.output, i)
            lm.write_model(component, component_path)
            rows.append("%s\t%s" % (repr(w), Path(component_path).name))
        run.report(args.output, rows)
    else:
        parser.error("unknown combine mode %r" % args.mode)
    _log("combine: mode %s done" % args.mode)
    return 0


def _cmd_retrieve(args, parser):
    from . import retrieve

    run = Run("retrieve")
    for key in ("lambda_percent", "n_best", "delta", "multiplier"):
        run.param(key, getattr(args, key))
    run.input("collection", args.collection) if Path(args.collection).is_file() else run.param("collection_dir", args.collection)
    run.input("queries", args.queries)
    index = retrieve.DocumentIndex(retrieve.load_collection(args.collection))
    queries = retrieve.load_collection(args.queries)
    stopwords = frozenset()
    if args.stopwords:
        run.input("stopwords", args.stopwords)
        stopwords = retrieve.load_stopwords(args.stopwords)
    params = None
    if args.delta is not None:
        params = retrieve.LengthFilterParams(args.delta, args.multiplier)
    stats = Counter()
    results = {
        q.id: retrieve.retrieve(q, index, args.lambda_percent, args.n_best,
                                params=params, stopwords=stopwords, stats=stats)
        for q in queries
    }
    extra = {}
    if args.gold:
        run.input("gold", args.gold)
        gold = retrieve.load_gold(args.gold)
        ranked_ids = {src: [d for d, _ in r] for src, r in results.items()}
        prf = retrieve.evaluate_retrieval(ranked_ids, gold)
        extra = dict(zip(("precision", "recall", "f1"), map(repr, prf)))
    run.report(args.output, retrieve.result_rows(results), extra)
    _log("retrieve: %d queries against %d documents; %d postings visited of %d "
         "(query terms x candidates)" % (len(queries), index.n_docs, stats["postings"],
                                         stats["postings_base"]))
    return 0


def _cmd_estimate_delta(args, parser):
    from . import retrieve

    run = Run("estimate-delta")
    if args.input:
        run.input("input", args.input)
        data = corpus.load_corpus(args.input, format="tsv-parallel")
    elif args.source and args.target:
        run.input("source", args.source)
        run.input("target", args.target)
        data = corpus.load_parallel(args.source, args.target)
    else:
        parser.error("need --input (TSV) or --source/--target")
    run.report(args.output, ["delta\t%s" % repr(retrieve.estimate_delta(data))])
    return 0


def _location_weights(args, parser):
    from . import webfilter

    if args.location_weights is None:
        return webfilter.LocationWeights()
    parts = _numbers(args.location_weights, "--location-weights")
    if len(parts) != 4:
        parser.error("--location-weights needs title,headings,metadata,body")
    return webfilter.LocationWeights(*parts)


def _cmd_topic_filter(args, parser):
    from . import webfilter

    run = Run("topic-filter")
    run.param("k", args.k)
    run.param("location_weights", args.location_weights)
    run.input("topic", args.topic)
    docs = webfilter.load_located_collection(args.collection)
    topic = webfilter.load_topic_file(args.topic)
    weights = _location_weights(args, parser)
    scored = [(d.id, webfilter.topic_relevance(d, topic, weights)) for d in docs]
    kept = webfilter.filter_documents_topk(scored, args.k)
    by_id = dict(scored)
    run.report(args.output, ["%s\t%s" % (doc_id, repr(by_id[doc_id])) for doc_id in kept], {
        "k": args.k,
        "location-weights": "title=%g headings=%g metadata=%g body=%g"
        % (weights.title, weights.headings, weights.metadata, weights.body),
    })
    _log("topic-filter: kept %d of %d documents" % (len(kept), len(docs)))
    return 0


def _cmd_ppl_filter(args, parser):
    from . import lm, webfilter

    run = Run("ppl-filter")
    run.param("k", args.k)
    run.param("n", args.n)
    run.input("lm", args.lm)
    if args.topic is None and args.k < 100:
        parser.error("--topic is required when --k < 100")
    docs = webfilter.load_located_collection(args.collection)
    if args.topic:
        run.input("topic", args.topic)
        topic = webfilter.load_topic_file(args.topic)
    else:
        topic = webfilter.TopicDefinition([])
    model = lm.read_model(args.lm)
    weights = _location_weights(args, parser)
    kept = webfilter.combined_filter(docs, topic, args.k, args.n, model, weights)
    run.report(args.output, ["%s\t%s" % row for row in kept], {"k": args.k, "n": args.n})
    _log("ppl-filter: kept %d sentences" % len(kept))
    return 0


def _cmd_diagnose(args, parser):
    from . import metrics, select

    run = Run("diagnose")
    rows = []
    if args.corpus:
        run.input("corpus", args.corpus)
        data = corpus.load_corpus(args.corpus, format=args.format)
        tokens, types, ratio = metrics.vocab_stats(data)
        rows += [("tokens", tokens), ("types", types), ("type_token_ratio", repr(ratio))]
    if args.train and args.test:
        run.input("train", args.train)
        run.input("test", args.test)
        train_c = corpus.load_corpus(args.train, format=args.format)
        test_c = corpus.load_corpus(args.test, format=args.format)
        rows.append(("oov_ratio_tokens", repr(metrics.oov_ratio(train_c, test_c))))
        rows.append(("oov_ratio_types", repr(metrics.oov_ratio(train_c, test_c, by_type=True))))
    if args.selection and len(args.selection) >= 2:
        for i, p in enumerate(args.selection):
            run.input("selection%d" % i, p)
        subsets = [set(select.read_selection(p).indices) for p in args.selection]
        overlap, uniques = metrics.overlap_stats(subsets)
        rows.append(("overlap", repr(overlap)))
        for i, u in enumerate(uniques):
            rows.append(("unique_%d" % i, repr(u)))
    if not rows:
        parser.error("nothing to diagnose: pass --corpus, --train/--test or >=2 --selection")
    run.report(args.output, [metrics.format_table(("metric", "value"), rows)] if args.table
               else ["%s\t%s" % row for row in rows])
    return 0


def _cmd_bleu(args, parser):
    from . import metrics

    run = Run("bleu")
    run.input("hypothesis", args.hypothesis)
    run.input("reference", args.reference)
    run.param("smooth", args.smooth)
    hyp = corpus.load_corpus(args.hypothesis)
    ref = corpus.load_corpus(args.reference)
    report = metrics.bleu(hyp, ref, smooth=args.smooth)
    rows = [("p%d" % n, p) for n, p in enumerate(report.precisions, 1)]
    rows += [("brevity_penalty", report.brevity_penalty), ("bleu", report.score)]
    run.report(args.output, ["%s\t%r" % row for row in rows])
    return 0


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
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--source")
    p.add_argument("--target")
    p.add_argument("--output-source")
    p.add_argument("--output-target")
    p.add_argument("--format", default="plain", choices=["plain", "factored", "tsv-parallel"])
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--max-len", type=int)
    p.add_argument("--normalize-numbers", action="store_true")
    p.add_argument("--normalize-apostrophes", action="store_true")
    p.add_argument("--hyphen-alt", metavar="LEXICON")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("train-lm", help="train an n-gram language model")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--format", default="plain", choices=["plain", "factored"])
    p.add_argument("--view", choices=list(corpus.FACTOR_VIEWS))
    p.add_argument("--vocab-from")
    _add_lm_opts(p)
    p.set_defaults(func=_cmd_train_lm)

    p = sub.add_parser("perplexity", help="cross-entropy and perplexity of a corpus under a model")
    p.add_argument("--lm", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="plain", choices=["plain", "factored"])
    p.add_argument("--output")
    p.set_defaults(func=_cmd_perplexity)

    p = sub.add_parser("score", help="score general-corpus sentences for domain relevance")
    p.add_argument("--criterion", required=True, choices=["cosine", "ce", "ml", "mml", "fms"])
    p.add_argument("--general", required=True)
    p.add_argument("--general-format", default="plain", choices=["plain", "factored"])
    p.add_argument("--in-domain")
    p.add_argument("--reference", dest="in_domain", help="alias for --in-domain (FMS reference set)")
    p.add_argument("--in-lm")
    p.add_argument("--out-lm")
    p.add_argument("--in-src-lm")
    p.add_argument("--out-src-lm")
    p.add_argument("--in-tgt-lm")
    p.add_argument("--out-tgt-lm")
    p.add_argument("--view", choices=list(corpus.FACTOR_VIEWS))
    p.add_argument("--fms-cutoff", type=finite)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; scoring runs on one thread")
    p.add_argument("--output")
    _add_lm_opts(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("select", help="top-K or threshold selection from a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--k", type=finite)
    p.add_argument("--theta", type=finite)
    p.add_argument("--direction", choices=["higher-is-better", "lower-is-better"])
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("combine", help="combine selections, tables or LMs")
    p.add_argument("--mode", required=True, choices=["corpus", "naive-rank", "tables", "lm-interp"])
    p.add_argument("--selection", action="append")
    p.add_argument("--table", action="append")
    p.add_argument("--set", action="append")
    p.add_argument("--corpus")
    p.add_argument("--dev")
    p.add_argument("--weights")
    p.add_argument("--target-size", type=int)
    p.add_argument("--replicate", action="store_true")
    p.add_argument("--format", default="plain", choices=["plain", "factored", "tsv-parallel"])
    p.add_argument("--output", required=True)
    _add_lm_opts(p)
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("retrieve", help="rank collection documents for each query document")
    p.add_argument("--collection", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--lambda", dest="lambda_percent", type=finite, required=True)
    p.add_argument("--n-best", type=int, required=True)
    p.add_argument("--delta", type=finite)
    p.add_argument("--multiplier", type=finite, default=4.0)
    p.add_argument("--stopwords")
    p.add_argument("--gold")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("estimate-delta", help="mean relative length deviation of a parallel corpus")
    p.add_argument("--input")
    p.add_argument("--source")
    p.add_argument("--target")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_estimate_delta)

    p = sub.add_parser("topic-filter", help="top-K%% documents by topic relevance")
    p.add_argument("--collection", required=True)
    p.add_argument("--topic", required=True)
    p.add_argument("--k", type=finite, required=True)
    p.add_argument("--location-weights")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_topic_filter)

    p = sub.add_parser("ppl-filter", help="combined topic/perplexity K/N filter")
    p.add_argument("--collection", required=True)
    p.add_argument("--topic")
    p.add_argument("--k", type=finite, required=True)
    p.add_argument("--n", type=finite, required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--location-weights")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_ppl_filter)

    p = sub.add_parser("diagnose", help="corpus statistics, OOV and subset overlap")
    p.add_argument("--corpus")
    p.add_argument("--train")
    p.add_argument("--test")
    p.add_argument("--selection", action="append")
    p.add_argument("--format", default="plain", choices=["plain", "factored"])
    p.add_argument("--table", action="store_true", help="aligned table instead of TSV")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("bleu", help="corpus BLEU of a hypothesis file against a reference file")
    p.add_argument("--hypothesis", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_bleu)

    return parser


def _apply_config(argv, parser):
    """Read key=value defaults from an optional --config file; explicit flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        parser.error("--config needs a file argument")
    path = argv[i + 1]
    defaults = {}
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError("%s line %d: config line without '=': %r" % (path, lineno, line))
        key, value = line.split("=", 1)
        value = value.strip()
        # other values stay text: argparse converts a text default with its
        # option's type=, as it converts the same value given as a flag
        if value.lower() in ("true", "false"):
            value = value.lower() == "true"
        defaults[key.strip().replace("-", "_")] = value
    rest = argv[:i] + argv[i + 2 :]
    parser.set_defaults(**defaults)
    # subcommands parse into a fresh namespace, so they need the defaults too
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                sub.set_defaults(**defaults)
    return rest


def run(argv):
    parser = build_parser()
    try:
        argv = _apply_config(list(argv), parser)
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    except ToolkitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
