"""The four pipelines (ml, sim, web, retrieve) and the two workloads that
run them.  A pipeline has its CLI steps, output checks, a traced in-process
mirror, exact counts and input properties.

Each ``steps`` generator yields the CLI steps a user's script would run, one
``python -m corpusmine`` process each.  Each ``mirror`` makes the same calls
in-process and in the same order, so that the traced run can put spans
around them.  Mirrors write to their own directory and never touch the CLI
outputs.
"""

import os
from collections import Counter
from pathlib import Path

import checks as ref
import gen
from corpusmine import combine, corpus, lm, retrieve, select, webfilter

NPROC = min(2, os.cpu_count() or 1)
ORDER = 4
ML_K = 20            # the README's `select --k 20`
SIM_K = 20
WEB_K = WEB_N = 50   # about half the pages are on-topic
LAMBDA = 0.18
RANK_TARGET = ref.topk_floor(SIM_K, gen.SIM_GENERAL)

# Quality floors: a few points under what every seed tried scores, so that
# only a real loss of selection quality trips them.
QUALITY_FLOORS = {"ml": 0.8, "sim": 0.8, "web": 0.85, "retrieve": 0.85}


def _items_len(args, result):
    return len(result)


def _train_tokens(args, result):
    return sum(len(s) for s in args[0])


# (module, attribute, aggregate, items): what the traced run wraps.  Calls
# made hundreds of times per step are aggregated (see spans.py).
# retrieve.score_document is left unwrapped: a wrapper on each of its 1.4M
# calls would double the retrieve time, so scoring is measured as the self
# time of retrieve.retrieve instead.
PATCHES = [
    (corpus, "load_corpus", False, _items_len),
    (corpus, "save_corpus", False, None),
    (corpus, "dedup", False, None),
    (lm, "train", False, _train_tokens),
    (lm, "write_model", False, None),
    (lm, "read_model", False, None),
    (lm, "cross_entropy", False, None),
    (select, "train_selection_models", False, None),
    (select, "sample_out_subset", False, None),
    (select, "score_moore_lewis", False, _items_len),
    (select, "score_cosine", False, _items_len),
    (select, "score_fms", False, _items_len),
    (select, "select_top", False, None),
    (select, "write_scores", False, None),
    (select, "read_scores", False, None),
    (select, "write_selection", False, None),
    (select, "read_selection", False, None),
    (combine, "combine_naive_rank", False, None),
    (combine, "combine_corpus_weighted", False, None),
    (combine, "write_weighted_corpus", False, None),
    (retrieve, "estimate_delta", False, None),
    (retrieve, "load_collection", False, _items_len),
    (retrieve, "DocumentIndex", False, None),
    (retrieve, "retrieve", False, None),
    (retrieve, "length_filter_candidates", True, _items_len),
    (retrieve, "generate_query", True, None),
    (retrieve, "evaluate_retrieval", False, None),
    (retrieve, "write_results", False, None),
    (webfilter, "load_located_collection", False, _items_len),
    (webfilter, "load_topic_file", False, None),
    (webfilter, "combined_filter", False, None),
    (webfilter, "topic_relevance", True, None),
    (webfilter, "filter_documents_topk", False, None),
    (webfilter, "ppl1", True, None),
]


def _sched_sum(n):
    return sum(gen.length_schedule(n))


def _tokens(sentences):
    return sum(len(s) for s in sentences)


def ngram_counts(corpora, order=ORDER):
    """Distinct n-grams per order in BOS-padded training data, summed over
    the models trained on ``corpora`` (the size of the LM's tables)."""
    out = {}
    for data in corpora:
        seen = [set() for _ in range(order + 1)]
        for s in data:
            seq = ["<s>"] * (order - 1) + s.words + ["</s>"]
            for i in range(order - 1, len(seq)):
                for n in range(1, order + 1):
                    seen[n].add(tuple(seq[i - n + 1:i + 1]))
        for n in range(1, order + 1):
            out["lm.ngrams_%d" % n] = out.get("lm.ngrams_%d" % n, 0) + len(seen[n])
    return out


def _oov(sentences, vocab):
    return sum(1 for s in sentences for w in s.words if w not in vocab)


def line_counts(lines, vocab_lines, tokens_from=None):
    """Raw counts behind the input property report: lines, duplicates and the
    length histogram of ``lines``; digit and out-of-vocabulary tokens of
    ``tokens_from`` (default ``lines``) under the vocabulary of ``vocab_lines``."""
    lengths = [len(l.split()) for l in lines]
    tokens = [w for l in (lines if tokens_from is None else tokens_from) for w in l.split()]
    vocab = {w for l in vocab_lines for w in l.split()}
    return Counter({
        "lines": len(lines),
        "duplicate_lines": len(lines) - len(set(lines)),
        "len_le16": sum(x <= 16 for x in lengths),
        "len_17_32": sum(16 < x <= 32 for x in lengths),
        "len_33_64": sum(32 < x <= 64 for x in lengths),
        "len_over64": sum(x > 64 for x in lengths),
        "tokens": len(tokens),
        "digit_tokens": sum(any(c.isdigit() for c in w) for w in tokens),
        "oov_tokens": sum(w not in vocab for w in tokens),
    })


def properties(counts):
    """The property report: shares from the summed raw counts."""

    def share(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    return {
        "prop.duplicate_line_share": share("duplicate_lines", "lines"),
        "prop.digit_token_share": share("digit_tokens", "tokens"),
        "prop.len_le16_share": share("len_le16", "lines"),
        "prop.len_17_32_share": share("len_17_32", "lines"),
        "prop.len_33_64_share": share("len_33_64", "lines"),
        "prop.len_over64_share": share("len_over64", "lines"),
        "prop.web_repeated_line_share": share("repeated_page_lines", "page_lines"),
        "prop.oov_share": share("oov_tokens", "tokens"),
        "prop.candidate_ratio": share("candidates", "candidate_slots"),
    }


def _write_scores(path, scores, crit):
    select.write_scores(path, scores, {"criterion": crit,
                                       "direction": select.CRITERION_DIRECTIONS[crit]})


def _select(scores_path, k, out_path):
    scores, meta = select.read_scores(scores_path)
    result = select.select_top(scores, k, meta["direction"], meta["criterion"])
    select.write_selection(out_path, result)
    return result


def _sample(rng, population, k):
    return sorted(rng.sample(list(population), min(k, len(population))))


class Ml:
    """README pipeline preprocess -> score --criterion ml -> select on 12k raw
    lines: LM training and scoring plus corpus load/transform/save do the
    work."""

    name = "ml"
    generate = staticmethod(gen.gen_ml)
    outputs = ("clean.txt", "ml.tsv", "ml.sel")

    def steps(self, inp, out):
        yield ["preprocess", "--input", inp["general_raw"], "--output", out / "clean.txt",
               "--dedup", "--normalize-numbers"]
        yield ["score", "--criterion", "ml", "--order", str(ORDER), "--threads", "1",
               "--general", out / "clean.txt", "--in-domain", inp["in_domain"],
               "--output", out / "ml.tsv"]
        yield ["select", "--scores", out / "ml.tsv", "--k", str(ML_K), "--output", out / "ml.sel"]

    def check(self, inp, out, c, rng):
        raw = ref.read_lines(inp["general_raw"])
        kept, origin = ref.normalize_dedup(raw)
        c.add("ml.preprocess.output", ref.read_lines(out / "clean.txt") == kept)
        scores = ref.read_score_file(out / "ml.tsv")
        c.add("ml.score.count", len(scores) == len(kept))
        general = corpus.Corpus.from_lines(kept)
        in_lm, out_lm = select.train_selection_models(
            general, corpus.load_corpus(inp["in_domain"]), order=ORDER, seed=0)
        bad = [i for i in _sample(rng, range(len(kept)), 40)
               if abs(scores[i] - ref.ml_score(in_lm, out_lm, kept[i].split()))
               > 1e-12 * max(abs(scores[i]), 1e-300)]
        c.add("ml.score.prob_reference", not bad, "mismatch at %s" % bad[:5] if bad else "")
        sel = [int(x) for x in ref.body_lines(out / "ml.sel")]
        c.add("ml.select.topk_floor", len(sel) == ref.topk_floor(ML_K, len(scores)),
              "kept %d of %d" % (len(sel), len(scores)))
        c.add("ml.select.ranking", sel == ref.ranked(scores, False)[:len(sel)])
        labels = [inp["raw_labels"][i] for i in origin]
        return ref.auc(scores, labels, higher_better=False)

    def mirror(self, inp, out, tr):
        with tr.span("cli.preprocess"):
            data = corpus.load_corpus(inp["general_raw"])
            with tr.span("corpus.transform"):
                data = corpus.dedup(corpus.Corpus(
                    tuple(corpus.normalize_numbers(s) for s in data.sentences), id=data.id))
            corpus.save_corpus(data, out / "clean.txt")
        with tr.span("cli.score_ml"):
            general = corpus.load_corpus(out / "clean.txt")
            in_dom = corpus.load_corpus(inp["in_domain"])
            in_lm, out_lm = select.train_selection_models(general, in_dom, order=ORDER, seed=0)
            _write_scores(out / "ml.tsv",
                          select.score_moore_lewis(general, in_lm, out_lm, threads=1), "ml")
        with tr.span("cli.select"):
            result = _select(out / "ml.tsv", ML_K, out / "ml.sel")
        return {"general": general, "in_dom": in_dom, "in_lm": in_lm, "out_lm": out_lm,
                "kept": len(result.indices)}

    def probe(self, state):
        for model in (state["in_lm"], state["out_lm"]):
            lm.cross_entropy(model, state["general"])

    def counts(self, inp, state):
        general = state["general"]
        tokens = _tokens(general)
        out_subset = select.sample_out_subset(general, len(state["in_dom"]), 0)
        return dict(ngram_counts([state["in_dom"], out_subset]), **{
            "corpus.sentences": len(general),
            "corpus.dedup_removed": inp["items"] - len(general),
            "corpus.tokens": tokens,
            "lm.events": 2 * (tokens + len(general)),
            "lm.oov_tokens": 2 * _oov(general, state["in_lm"].vocab),
            "select.kept": state["kept"],
        })

    def expected(self):
        tokens = _sched_sum(gen.ML_UNIQUE)
        return {"corpus.sentences": gen.ML_UNIQUE, "corpus.dedup_removed": gen.ML_DUPLICATES,
                "corpus.tokens": tokens, "lm.events": 2 * (tokens + gen.ML_UNIQUE),
                "select.kept": ref.topk_floor(ML_K, gen.ML_UNIQUE)}

    def heap_input(self, inp):
        return inp["general_raw"], "plain"

    def property_counts(self, inp, out):
        return line_counts(ref.read_lines(inp["general_raw"]), ref.read_lines(inp["in_domain"]))


class Sim:
    """Cosine over 10k and FMS --threads 2 over a 300 x 500 slice with a
    >64-token tail, select and combine: select DP and tf-idf work, no LM."""

    name = "sim"
    generate = staticmethod(gen.gen_sim)
    outputs = ("cosine.tsv", "fms.tsv", "cosine.sel", "fms.sel", "ranked.txt", "weighted.tsv")

    def steps(self, inp, out):
        yield ["score", "--criterion", "cosine", "--general", inp["general"],
               "--in-domain", inp["in_domain"], "--output", out / "cosine.tsv"]
        yield ["score", "--criterion", "fms", "--threads", str(NPROC), "--general", inp["slice"],
               "--reference", inp["refs"], "--output", out / "fms.tsv"]
        yield ["select", "--scores", out / "cosine.tsv", "--k", str(SIM_K),
               "--output", out / "cosine.sel"]
        yield ["select", "--scores", out / "fms.tsv", "--k", str(SIM_K), "--output", out / "fms.sel"]
        yield ["combine", "--mode", "naive-rank", "--selection", out / "cosine.sel",
               "--selection", out / "fms.sel", "--target-size", str(RANK_TARGET),
               "--output", out / "ranked.txt"]
        yield ["combine", "--mode", "corpus", "--selection", out / "cosine.sel",
               "--selection", out / "fms.sel", "--corpus", inp["general"],
               "--output", out / "weighted.tsv"]

    def check(self, inp, out, c, rng):
        general = ref.read_lines(inp["general"])
        cos = ref.read_score_file(out / "cosine.tsv")
        c.add("sim.cosine.count", len(cos) == len(general))
        sample = _sample(rng, range(len(general)), 40)
        want = ref.cosine_scores(general, ref.read_lines(inp["in_domain"]), sample)
        bad = [i for i in sample if abs(cos[i] - want[i]) > 1e-9 * max(abs(want[i]), 1e-300)]
        c.add("sim.cosine.reference", not bad, "mismatch at %s" % bad[:5] if bad else "")
        sl = [l.split() for l in ref.read_lines(inp["slice"])]
        refs = [l.split() for l in ref.read_lines(inp["refs"])]
        fms = ref.read_score_file(out / "fms.tsv")
        c.add("sim.fms.count", len(fms) == len(sl))
        long = [i for i, s in enumerate(sl) if len(s) > 64]
        short = [i for i, s in enumerate(sl) if len(s) <= 64]
        sample = _sample(rng, long, 2) + _sample(rng, short, 6)
        bad = [i for i in sample if abs(fms[i] - ref.fms_mean(sl[i], refs)) > 1e-12]
        c.add("sim.fms.dp_reference", not bad, "mismatch at %s" % bad[:5] if bad else "")
        sels = {}
        for crit, scores in (("cosine", cos), ("fms", fms)):
            sel = [int(x) for x in ref.body_lines(out / ("%s.sel" % crit))]
            c.add("sim.select_%s.topk_floor" % crit, len(sel) == ref.topk_floor(SIM_K, len(scores)),
                  "kept %d of %d" % (len(sel), len(scores)))
            c.add("sim.select_%s.ranking" % crit, sel == ref.ranked(scores, True)[:len(sel)])
            sels[crit] = sel
        lists = [sels["cosine"], sels["fms"]]
        got = [int(x) for x in ref.body_lines(out / "ranked.txt")]
        c.add("sim.combine_naive_rank.reference", got == ref.naive_rank(lists, RANK_TARGET))
        union = sorted(set(sels["cosine"]) | set(sels["fms"]))
        want_rows = []
        for i in union:
            prov = [crit for crit in ("cosine", "fms") if i in set(sels[crit])]
            want_rows.append("%r\t%s\t%s" % (float(len(prov)), ",".join(prov), general[i]))
        c.add("sim.combine_corpus.reference", ref.read_lines(out / "weighted.tsv") == want_rows)
        labels = inp["labels"]
        return min(ref.auc(cos, labels, True), ref.auc(fms, labels[:len(fms)], True))

    def mirror(self, inp, out, tr):
        with tr.span("cli.score_cosine"):
            general = corpus.load_corpus(inp["general"])
            in_dom = corpus.load_corpus(inp["in_domain"])
            _write_scores(out / "cosine.tsv", select.score_cosine(general, in_dom, threads=1),
                          "cosine")
        with tr.span("cli.score_fms"):
            sl = corpus.load_corpus(inp["slice"])
            refs = corpus.load_corpus(inp["refs"])
            _write_scores(out / "fms.tsv", select.score_fms(sl, refs, threads=NPROC), "fms")
        with tr.span("cli.select_cosine"):
            kept_cos = _select(out / "cosine.tsv", SIM_K, out / "cosine.sel")
        with tr.span("cli.select_fms"):
            kept_fms = _select(out / "fms.tsv", SIM_K, out / "fms.sel")
        sel_paths = [out / "cosine.sel", out / "fms.sel"]
        with tr.span("cli.combine_naive_rank"):
            merged = combine.combine_naive_rank(
                [select.read_selection(p).indices for p in sel_paths], RANK_TARGET)
            (out / "ranked.txt").write_text("".join("%d\n" % i for i in merged))
        with tr.span("cli.combine_corpus"):
            selections = [select.read_selection(p) for p in sel_paths]
            wc = combine.combine_corpus_weighted(
                selections, corpus.load_corpus(inp["general"]), [1.0] * len(selections))
            combine.write_weighted_corpus(wc, out / "weighted.tsv")
        return {"general": general, "slice": sl, "refs": refs, "merged": len(merged),
                "entries": len(wc.entries), "kept_cos": len(kept_cos.indices),
                "kept_fms": len(kept_fms.indices)}

    def probe(self, state):
        # the same FMS call on one thread, for select.fms_thread_speedup
        select.score_fms(state["slice"], state["refs"], threads=1)

    def counts(self, inp, state):
        return {
            "corpus.sentences": len(state["general"]),
            "corpus.tokens": _tokens(state["general"]),
            "select.fms_pairs": len(state["slice"]) * len(state["refs"]),
            "select.fms_cells": _tokens(state["slice"]) * _tokens(state["refs"]),
            "select.kept": state["kept_cos"] + state["kept_fms"],
            "combine.ranked_items": state["merged"],
            "combine.weighted_entries": state["entries"],
        }

    def expected(self):
        slice_tokens = _sched_sum(gen.FMS_SLICE - gen.FMS_LONG) + sum(gen.LONG_LENGTHS)
        return {
            "corpus.sentences": gen.SIM_GENERAL,
            "corpus.tokens": slice_tokens + _sched_sum(gen.SIM_GENERAL - gen.FMS_SLICE),
            "select.fms_pairs": gen.FMS_SLICE * gen.FMS_REFS,
            "select.fms_cells": slice_tokens * _sched_sum(gen.FMS_REFS),
            "select.kept": ref.topk_floor(SIM_K, gen.SIM_GENERAL)
            + ref.topk_floor(SIM_K, gen.FMS_SLICE),
            "combine.ranked_items": RANK_TARGET,
        }

    def heap_input(self, inp):
        return inp["general"], "plain"

    def property_counts(self, inp, out):
        # lengths of the FMS slice, where the 64-token word boundary matters;
        # tokens of the whole general corpus
        return line_counts(ref.read_lines(inp["slice"]), ref.read_lines(inp["in_domain"]),
                           tokens_from=ref.read_lines(inp["general"]))


def _page_lines(pages_dir):
    """(page id, location, line) for every page line, in program order."""
    out = []
    for path in sorted(Path(pages_dir).iterdir()):
        sections = ref.read_page(path)
        for loc in webfilter.LOCATIONS:
            out += [(path.name, loc, line) for line in sections.get(loc, [])]
    return out


class Web:
    """Train-lm writes a model, ppl-filter reads it back and ranks 600
    sectioned pages with repeated boilerplate by topic relevance and ppl1."""

    name = "web"
    generate = staticmethod(gen.gen_web)
    outputs = ("topic.lm", "kept.tsv")

    def steps(self, inp, out):
        yield ["train-lm", "--input", inp["topic_text"], "--order", str(ORDER),
               "--output", out / "topic.lm"]
        yield ["ppl-filter", "--collection", inp["pages"], "--topic", inp["topic"],
               "--k", str(WEB_K), "--n", str(WEB_N), "--lm", out / "topic.lm",
               "--output", out / "kept.tsv"]

    def check(self, inp, out, c, rng):
        c.add("web.model.sections", _model_sections_ok(out / "topic.lm"))
        lines = _page_lines(inp["pages"])
        terms = ref.read_topic(inp["topic"])
        by_page = {}
        for page, loc, line in lines:
            by_page.setdefault(page, {}).setdefault(loc, []).append(line)
        relevance = {p: ref.topic_relevance(s, terms) for p, s in by_page.items()}
        n_docs = ref.topk_floor(WEB_K, len(relevance))
        kept_pages = set(sorted(relevance, key=lambda p: (-relevance[p], p))[:n_docs])
        ranked = [(p, line) for p, _, line in lines if p in kept_pages]
        rows = [tuple(r.split("\t", 1)) for r in ref.body_lines(out / "kept.tsv")]
        c.add("web.kept.topk_floor", len(rows) == ref.topk_floor(WEB_N, len(ranked)),
              "kept %d of %d" % (len(rows), len(ranked)))
        c.add("web.kept.from_top_pages", all(p in kept_pages for p, _ in rows))
        model = lm.read_model(out / "topic.lm")
        dropped = list((Counter(ranked) - Counter(rows)).elements())
        kept_ppl = [ref.ppl1(model, r[1].split()) for r in _sample(rng, rows, 30)]
        dropped_ppl = [ref.ppl1(model, r[1].split()) for r in _sample(rng, dropped, 30)]
        c.add("web.kept.ppl1_order", max(kept_ppl) <= min(dropped_ppl),
              "kept max %r > dropped min %r" % (max(kept_ppl), min(dropped_ppl)))
        return sum(p in inp["on_topic"] for p, _ in rows) / len(rows)

    def mirror(self, inp, out, tr):
        with tr.span("cli.train_lm"):
            model = lm.train(corpus.load_corpus(inp["topic_text"]), order=ORDER)
            lm.write_model(model, out / "topic.lm")
        with tr.span("cli.ppl_filter"):
            docs = webfilter.load_located_collection(inp["pages"])
            topic = webfilter.load_topic_file(inp["topic"])
            model = lm.read_model(out / "topic.lm")
            kept = webfilter.combined_filter(docs, topic, WEB_K, WEB_N, model,
                                             webfilter.LocationWeights())
            (out / "kept.tsv").write_text("".join("%s\t%s\n" % r for r in kept))
        return {"model": model, "docs": docs, "kept": len(kept)}

    @staticmethod
    def _lines(state):
        return corpus.Corpus.from_lines(line for d in state["docs"] for line in d.all_lines())

    def probe(self, state):
        lm.cross_entropy(state["model"], self._lines(state))

    def counts(self, inp, state):
        lines = self._lines(state)
        return dict(ngram_counts([corpus.load_corpus(inp["topic_text"])]), **{
            "webfilter.pages": len(state["docs"]),
            "webfilter.page_lines": len(lines),
            "webfilter.kept": state["kept"],
            "lm.events": _tokens(lines) + len(lines),
            "lm.oov_tokens": _oov(lines, state["model"].vocab),
        })

    def expected(self):
        n_lines = gen.PAGES * sum(n for _, n in gen.PAGE_LAYOUT)
        boiler_tokens = sum(4 + (k % gen.BOILERPLATE_POOL) % 6 for k in range(gen.BOILERPLATE_LINES))
        tokens = _sched_sum(n_lines - gen.BOILERPLATE_LINES) + boiler_tokens
        ranked = ref.topk_floor(WEB_K, gen.PAGES) * (n_lines // gen.PAGES)
        return {"webfilter.pages": gen.PAGES, "webfilter.page_lines": n_lines,
                "webfilter.docs_scored": gen.PAGES,
                "webfilter.sentences_ranked": ranked,
                "webfilter.kept": ref.topk_floor(WEB_N, ranked),
                "lm.events": tokens + n_lines}

    def heap_input(self, inp):
        return inp["topic_text"], "plain"

    def property_counts(self, inp, out):
        lines = _page_lines(inp["pages"])
        counts = line_counts([l for _, _, l in lines], ref.read_lines(inp["topic_text"]))
        pages_of = {}
        for page, _, line in lines:
            pages_of.setdefault(line, set()).add(page)
        counts["page_lines"] = len(lines)
        counts["repeated_page_lines"] = sum(len(pages_of[l]) > 1 for _, _, l in lines)
        return counts


def _model_sections_ok(path):
    """Each `ngram n=c` header line matches the entries of its section."""
    declared, found, current = {}, Counter(), None
    for line in ref.read_lines(path):
        if line.startswith("ngram "):
            n, size = line[6:].split("=")
            declared[int(n)] = int(size)
        elif line.startswith("\\") and line.endswith("-grams:"):
            current = int(line[1:].split("-")[0])
        elif line and not line.startswith("\\") and current is not None:
            found[current] += 1
    return bool(declared) and declared == dict(found)


def _read_delta(path):
    for line in ref.body_lines(path):
        key, value = line.split("\t")
        if key == "delta":
            return value
    raise ValueError("%s: no delta line" % path)


class Retrieve:
    """Estimate-delta, then retrieve 500 noisy queries over 2k documents with
    and without the length filter: only the retrieve layer works."""

    name = "retrieve"
    generate = staticmethod(gen.gen_retrieve)
    outputs = ("delta.txt", "hits.filtered.tsv", "hits.unfiltered.tsv")

    def steps(self, inp, out):
        yield ["estimate-delta", "--input", inp["parallel"], "--output", out / "delta.txt"]
        delta = _read_delta(out / "delta.txt")
        for label, extra in (("filtered", ["--delta", delta]), ("unfiltered", [])):
            yield ["retrieve", "--collection", inp["collection"], "--queries", inp["queries"],
                   "--lambda", str(LAMBDA), "--n-best", "1"] + extra + [
                   "--gold", inp["gold"], "--output", out / ("hits.%s.tsv" % label)]

    def check(self, inp, out, c, rng):
        delta = float(_read_delta(out / "delta.txt"))
        c.close("retrieve.delta.reference", delta, ref.mean_delta(inp["parallel"]), 1e-12)
        docs = ref.read_docs(inp["collection"])
        queries = ref.read_docs(inp["queries"])
        gold = dict(l.split("\t") for l in ref.read_lines(inp["gold"]))
        r = ref.Retrieval(docs)
        f1 = {}
        for label, d in (("filtered", delta), ("unfiltered", None)):
            path = out / ("hits.%s.tsv" % label)
            hits = ref.read_hits(path)
            c.add("retrieve.%s.one_hit_per_query" % label,
                  sorted(hits) == sorted(queries) and all(len(v) == 1 for v in hits.values()))
            f1[label] = ref.f1(hits, gold)
            c.close("retrieve.%s.f1_header" % label, float(ref.header(path)["f1"]), f1[label], 1e-12)
            bad = []
            for q in _sample(rng, queries, 10):
                terms = r.query(queries[q], LAMBDA)
                best = min(r.candidates(len(queries[q]), d),
                           key=lambda doc: (-r.score(terms, doc), doc))
                got_doc, got_score = hits[q][0]
                if got_doc != best or abs(got_score - r.score(terms, best)) > 1e-12 * got_score:
                    bad.append(q)
            c.add("retrieve.%s.argmax_reference" % label, not bad,
                  "mismatch at %s" % bad[:5] if bad else "")
        return f1["filtered"]

    def mirror(self, inp, out, tr):
        with tr.span("cli.estimate_delta"):
            delta = retrieve.estimate_delta(corpus.load_corpus(inp["parallel"], format="tsv-parallel"))
            (out / "delta.txt").write_text("delta\t%r\n" % delta)
        for label, d in (("filtered", delta), ("unfiltered", None)):
            with tr.span("cli.retrieve_" + label):
                index = retrieve.DocumentIndex(retrieve.load_collection(inp["collection"]))
                queries = retrieve.load_collection(inp["queries"])
                params = retrieve.LengthFilterParams(d) if d is not None else None
                results = {q.id: retrieve.retrieve(q, index, LAMBDA, 1, params=params)
                           for q in queries}
                gold = retrieve.load_gold(inp["gold"])
                retrieve.evaluate_retrieval(
                    {q: [doc for doc, _ in r] for q, r in results.items()}, gold)
                retrieve.write_results(results, out / ("hits.%s.tsv" % label))
        return {"queries": len(queries), "docs": index.n_docs}

    def probe(self, state):
        pass

    def counts(self, inp, state):
        return {"retrieve.queries": state["queries"], "retrieve.collection_docs": state["docs"]}

    def expected(self):
        return {"retrieve.queries": gen.QUERIES, "retrieve.collection_docs": gen.COLLECTION,
                "retrieve.docs_scored_unfiltered": gen.QUERIES * gen.COLLECTION}

    def heap_input(self, inp):
        return inp["parallel"], "tsv-parallel"

    def property_counts(self, inp, out):
        docs = ref.read_docs(inp["collection"])
        queries = ref.read_docs(inp["queries"])
        counts = line_counts([" ".join(t) for t in queries.values()],
                             [" ".join(t) for t in docs.values()])
        r = ref.Retrieval(docs)
        delta = float(_read_delta(out / "delta.txt"))
        counts["candidates"] = sum(len(r.candidates(len(t), delta)) for t in queries.values())
        counts["candidate_slots"] = len(queries) * len(docs)
        return counts


class Workload:
    """Pipelines that one benchmark run executes back to back."""

    def __init__(self, name, why, pipelines):
        self.name = name
        self.why = why
        self.pipelines = pipelines


# Two workloads, not one per pipeline: on a shared host whose speed drifts
# over tens of seconds, only windows of ~50 s give steady medians, and the
# time budget allows that for two workloads.  The split keeps one workload
# on each side of the LM: "lm" exercises LM training and scoring, "match"
# bypasses the LM and exercises the FMS DP, tf-idf, combine and retrieval.
WORKLOADS = {w.name: w for w in (
    Workload("lm", "ml pipeline (preprocess, score --criterion ml, select) then web pipeline "
             "(train-lm, ppl-filter): corpus, lm, select and webfilter do the work",
             [Ml(), Web()]),
    Workload("match", "sim pipeline (cosine, FMS --threads 2, select, combine) then retrieve "
             "pipeline (estimate-delta, retrieve with and without --delta): no LM at all",
             [Sim(), Retrieve()]),
)}
PIPELINES = {p.name: p for w in WORKLOADS.values() for p in w.pipelines}
