"""corpusmine benchmark: one workload per run.

    python3 bench/run.py --workload lm --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the run generates the workload's inputs from the seed,
times CLI cold start, then runs the workload's CLI pipelines (one
``python -m corpusmine`` process per step, back to back, never more threads
than ``nproc``) as many times as fit in ``--seconds``, checks every output
and reports the end-to-end metrics.  With ``--trace 1`` it runs the pipelines
once, then makes the same calls in-process, once untraced and once under
spans, and reports the per-layer metrics.  A traced run covers all four
pipelines whichever workload is named, so that every layer is measured in
every traced run.

Both modes print the workload's input properties and the output digests,
then, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is one CLI step or
one output check.  All files go under ``.bench_work/`` (removed at exit) and
``.bench_out/`` (records and spans) in the checkout.
"""

import argparse
import hashlib
import json
import logging
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RECORDS = ROOT / ".bench_out"
SETUP_PROBES = 7

END_TO_END = [
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("quality", "ratio"),
]

# name, unit, better
PER_LAYER = [
    ("corpus.load_s", "s", "lower"),
    ("corpus.sentences_per_s", "1/s", "higher"),
    ("corpus.transform_s", "s", "lower"),
    ("corpus.save_s", "s", "lower"),
    ("corpus.heap_mib", "MiB", "lower"),
    ("corpus.sentences", "count", "higher"),
    ("corpus.dedup_removed", "count", "higher"),
    ("lm.train_s", "s", "lower"),
    ("lm.train_tokens_per_s", "1/s", "higher"),
    ("lm.score_s", "s", "lower"),
    ("lm.events_per_s", "1/s", "higher"),
    ("lm.events", "count", "higher"),
    ("lm.oov_tokens", "count", "lower"),
    ("lm.ngrams_1", "count", "higher"),
    ("lm.ngrams_2", "count", "higher"),
    ("lm.ngrams_3", "count", "higher"),
    ("lm.ngrams_4", "count", "higher"),
    ("lm.mkn_fallbacks", "count", "lower"),
    ("lm.write_model_s", "s", "lower"),
    ("lm.read_model_s", "s", "lower"),
    ("lm.model_mib", "MiB", "lower"),
    ("select.ml_s", "s", "lower"),
    ("select.ml_sentences_per_s", "1/s", "higher"),
    ("select.cosine_s", "s", "lower"),
    ("select.cosine_sentences_per_s", "1/s", "higher"),
    ("select.fms_s", "s", "lower"),
    ("select.fms_pairs_per_s", "1/s", "higher"),
    ("select.fms_cells", "computed-cells", "higher"),
    ("select.fms_thread_speedup", "ratio", "higher"),
    ("select.top_s", "s", "lower"),
    ("select.scores_io_s", "s", "lower"),
    ("combine.naive_rank_s", "s", "lower"),
    ("combine.weighted_s", "s", "lower"),
    ("retrieve.index_s", "s", "lower"),
    ("retrieve.query_s", "s", "lower"),
    ("retrieve.score_s", "s", "lower"),
    ("retrieve.docs_scored_per_s", "1/s", "higher"),
    ("retrieve.candidate_ratio", "ratio", "lower"),
    ("retrieve.filter_s", "s", "lower"),
    ("webfilter.topic_s", "s", "lower"),
    ("webfilter.topic_docs_per_s", "1/s", "higher"),
    ("webfilter.ppl1_s", "s", "lower"),
    ("webfilter.ppl1_sentences_per_s", "1/s", "higher"),
    ("webfilter.kept_ratio", "ratio", "higher"),
    ("cli.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("prop.duplicate_line_share", "ratio", "lower"),
    ("prop.digit_token_share", "ratio", "lower"),
    ("prop.len_le16_share", "ratio", "higher"),
    ("prop.len_17_32_share", "ratio", "higher"),
    ("prop.len_33_64_share", "ratio", "lower"),
    ("prop.len_over64_share", "ratio", "lower"),
    ("prop.web_repeated_line_share", "ratio", "lower"),
    ("prop.oov_share", "ratio", "lower"),
    ("prop.candidate_ratio", "ratio", "lower"),
]

UNITS = dict([(n, u) for n, u in END_TO_END] + [(n, u) for n, u, _ in PER_LAYER])

ENV = dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv, log):
    """Run one CLI process; returns (exit code, its peak RSS in MiB)."""
    with open(log, "ab") as err:
        p = subprocess.Popen([sys.executable, "-m", "corpusmine"] + [str(a) for a in argv],
                             stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT, env=ENV)
    try:
        _, status, usage = os.wait4(p.pid, 0)
    except BaseException:
        p.kill()
        p.wait()
        raise
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss / 1024.0


def cold_start(log):
    """Seconds to spawn the interpreter and run `python -m corpusmine --version`."""
    start = time.perf_counter()
    rc, _ = spawn(["--version"], log)
    if rc != 0:
        raise RuntimeError("`python -m corpusmine --version` exited with %d" % rc)
    return time.perf_counter() - start


def run_pipeline(pipe, inp, out, log):
    """One pass of a pipeline's CLI steps: (steps run, steps failed, wall s, peak MiB)."""
    out.mkdir(parents=True)
    steps = failed = 0
    peak = 0.0
    start = time.perf_counter()
    for argv in pipe.steps(inp, out):
        rc, rss = spawn(argv, log)
        steps += 1
        peak = max(peak, rss)
        if rc != 0:
            failed += 1
            break
    return steps, failed, time.perf_counter() - start, peak


def run_pass(wl, inps, out, log):
    """The workload's pipelines back to back, timed from the first spawn to
    the last exit.  Returns a dict of steps, failed, wall, peak, per-pipeline
    walls and output digests."""
    result = {"steps": 0, "failed": 0, "peak": 0.0, "walls": {}, "digests": {}}
    start = time.perf_counter()
    for pipe in wl.pipelines:
        steps, failed, wall, peak = run_pipeline(pipe, inps[pipe.name], out / pipe.name, log)
        result["steps"] += steps
        result["failed"] += failed
        result["peak"] = max(result["peak"], peak)
        result["walls"][pipe.name] = wall
        if failed:
            break
    result["wall"] = time.perf_counter() - start
    if not result["failed"]:
        for pipe in wl.pipelines:
            for name in pipe.outputs:
                data = (out / pipe.name / name).read_bytes()
                result["digests"]["%s/%s" % (pipe.name, name)] = hashlib.sha256(data).hexdigest()
    return result


class FallbackCounter(logging.Handler):
    """Counts the LM's MKN -> Witten-Bell fallback warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "falling back" in record.getMessage():
            self.count += 1


def mirror_run(wl, inps, out, tracer, patches):
    """The workload's calls in-process; returns (wall s of the mirrored
    pipelines, summed result counts).  Each pipeline's probe and counts come
    after its timed part, and its state is dropped before the next pipeline
    starts, as the CLI's separate processes would."""
    handler = FallbackCounter()
    logger = logging.getLogger("corpusmine.lm")
    logger.addHandler(handler)
    wall = 0.0
    counts = Counter()
    try:
        with tracer.patched(patches):
            for pipe in wl.pipelines:
                (out / pipe.name).mkdir(parents=True)
                start = time.perf_counter()
                with tracer.span("run"):
                    state = pipe.mirror(inps[pipe.name], out / pipe.name, tracer)
                wall += time.perf_counter() - start
                if tracer.enabled:
                    with tracer.span("probe"):
                        pipe.probe(state)
                counts.update(pipe.counts(inps[pipe.name], state))
                del state
    finally:
        logger.removeHandler(handler)
    counts["lm.mkn_fallbacks"] = handler.count
    return wall, dict(counts)


def heap_mib(corpus, path, fmt):
    """Peak Python heap of loading one corpus file, under tracemalloc."""
    tracemalloc.start()
    try:
        corpus.load_corpus(path, format=fmt)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def layer_metrics(tr, counts, out):
    """Per-layer times, rates and counts from the traced run's spans."""

    def run(*names):
        return tr.within("run", *names)

    def busy(*names):
        return run(*names)[0]

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    m = {}
    load_s, _, loaded = run("corpus.load_corpus")
    m["corpus.load_s"] = load_s
    m["corpus.sentences_per_s"] = rate(loaded, load_s)
    m["corpus.transform_s"] = busy("corpus.transform")
    m["corpus.save_s"] = busy("corpus.save_corpus")
    train_s, _, train_tokens = run("lm.train")
    m["lm.train_s"] = train_s
    m["lm.train_tokens_per_s"] = rate(train_tokens, train_s)
    score_s = tr.within("probe", "lm.cross_entropy")[0]
    m["lm.score_s"] = score_s
    m["lm.events_per_s"] = rate(counts.get("lm.events", 0), score_s)
    m["lm.write_model_s"] = busy("lm.write_model")
    m["lm.read_model_s"] = busy("lm.read_model")
    m["lm.model_mib"] = sum(p.stat().st_size for p in out.rglob("*.lm")) / 2 ** 20
    ml_s, _, ml_n = run("select.score_moore_lewis")
    m["select.ml_s"] = ml_s
    m["select.ml_sentences_per_s"] = rate(ml_n, ml_s)
    cos_s, _, cos_n = run("select.score_cosine")
    m["select.cosine_s"] = cos_s
    m["select.cosine_sentences_per_s"] = rate(cos_n, cos_s)
    fms_s = busy("select.score_fms")
    fms_1 = tr.within("probe", "select.score_fms")[0]
    m["select.fms_s"] = fms_s
    m["select.fms_pairs_per_s"] = rate(counts.get("select.fms_pairs", 0), fms_s)
    m["select.fms_thread_speedup"] = rate(fms_1, fms_s)
    m["select.top_s"] = busy("select.select_top")
    m["select.scores_io_s"] = busy("select.write_scores", "select.read_scores",
                                   "select.write_selection", "select.read_selection")
    m["combine.naive_rank_s"] = busy("combine.combine_naive_rank")
    m["combine.weighted_s"] = busy("combine.combine_corpus_weighted",
                                   "combine.write_weighted_corpus")
    m["retrieve.index_s"] = busy("retrieve.DocumentIndex")
    m["retrieve.query_s"] = busy("retrieve.generate_query")
    selfs = tr.self_times()
    doc_s = sum(selfs[s["id"]] for s in tr.spans if s["name"] == "retrieve.retrieve")
    m["retrieve.score_s"] = doc_s
    m["retrieve.docs_scored_per_s"] = rate(
        counts.get("retrieve.docs_scored_filtered", 0)
        + counts.get("retrieve.docs_scored_unfiltered", 0), doc_s)
    m["retrieve.filter_s"] = busy("retrieve.length_filter_candidates")
    queries = counts.get("retrieve.queries", 0)
    m["retrieve.candidate_ratio"] = rate(
        counts.get("retrieve.docs_scored_filtered", 0),
        queries * counts.get("retrieve.collection_docs", 0))
    topic_s, topic_n, _ = run("webfilter.topic_relevance")
    m["webfilter.topic_s"] = topic_s
    m["webfilter.topic_docs_per_s"] = rate(topic_n, topic_s)
    ppl_s, ppl_n, _ = run("webfilter.ppl1")
    m["webfilter.ppl1_s"] = ppl_s
    m["webfilter.ppl1_sentences_per_s"] = rate(ppl_n, ppl_s)
    m["webfilter.kept_ratio"] = rate(counts.get("webfilter.kept", 0),
                                     counts.get("webfilter.page_lines", 0))
    for name in ("corpus.sentences", "corpus.dedup_removed", "lm.events", "lm.oov_tokens",
                 "lm.ngrams_1", "lm.ngrams_2", "lm.ngrams_3", "lm.ngrams_4",
                 "lm.mkn_fallbacks", "select.fms_cells"):
        m[name] = counts.get(name, 0)
    return m


def span_counts(tr, counts):
    """Exact counts only the spans can see: calls made inside the program.
    An unfiltered retrieval scores every document of the collection."""
    filtered = tr.within("run", "retrieve.length_filter_candidates")[2]
    unfiltered = tr.within("cli.retrieve_unfiltered", "retrieve.retrieve")[1]
    return {
        "webfilter.docs_scored": tr.within("run", "webfilter.topic_relevance")[1],
        "webfilter.sentences_ranked": tr.within("run", "webfilter.ppl1")[1],
        "retrieve.docs_scored_filtered": filtered,
        "retrieve.docs_scored_unfiltered": unfiltered * counts.get("retrieve.collection_docs", 0),
    }


def layer_share(tr):
    """Summed busy time of the layer spans directly under the CLI step spans."""
    steps = {s["id"] for s in tr.spans if s["name"].startswith("cli.")}
    return sum(s["busy"] for s in tr.spans if s["parent"] in steps)


def check_counts(c, wl, seed, untraced, traced):
    """Counts repeat exactly: untraced vs traced run, against the size
    formula, and against earlier runs of this seed in this checkout."""
    same = {k: v for k, v in traced.items() if k in untraced}
    c.add("counts.repeat_within_run", same == untraced,
          "untraced %s vs traced %s" % (untraced, same))
    expected = Counter()
    for pipe in wl.pipelines:
        expected.update(pipe.expected())
    wrong = {k: (traced.get(k), v) for k, v in expected.items() if traced.get(k) != v}
    c.add("counts.size_formula", not wrong, "got/expected %s" % wrong)
    path = RECORDS / ("counts-%s-seed%d.json" % (wl.name, seed))
    if path.exists():
        before = json.loads(path.read_text())
        c.add("counts.repeat_across_runs", before == traced,
              "differs from %s" % path.name)
    else:
        path.write_text(json.dumps(traced, indent=1, sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills its CLI child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "corpusmine" / "__init__.py").is_file():
        print("error: no corpusmine sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import spans
    import workloads
    from corpusmine import corpus

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        wl = workloads.Workload("all", "every pipeline", list(workloads.PIPELINES.values()))
    run_id = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    work = WORK / run_id
    work.mkdir(parents=True)
    RECORDS.mkdir(exist_ok=True)
    log = work / "cli.log"
    c = checks.Checks()
    try:
        inps = {}
        for pipe in wl.pipelines:
            (work / "in" / pipe.name).mkdir(parents=True)
            inps[pipe.name] = pipe.generate(args.seed, work / "in" / pipe.name)
        # cold-start probes are spread over the whole run, two before each
        # pass, so that their median samples the same host conditions
        cold_start(log)  # warm-up, not counted
        starts, passes = [], []
        begin = time.perf_counter()
        while True:
            lap = time.perf_counter()
            starts += [cold_start(log), cold_start(log)]
            out = work / ("cli%d" % len(passes))
            passes.append(run_pass(wl, inps, out, log))
            if passes[-1]["failed"]:
                print("error: a CLI step failed; its log ends:\n%s"
                      % log.read_text()[-2000:], file=sys.stderr)
                break
            if len(passes) > 1:
                shutil.rmtree(out)
            now = time.perf_counter()
            if args.trace or now - begin + (now - lap) > args.seconds:
                break
        while len(starts) < SETUP_PROBES:
            starts.append(cold_start(log))
        setup_s = statistics.median(starts)
        ops = sum(p["steps"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        first = work / "cli0"
        props, metrics = {}, {}
        if not failed:
            c.add("outputs.byte_identical_across_passes",
                  all(p["digests"] == passes[0]["digests"] for p in passes))
            qualities = []
            prop_counts = Counter()
            for pipe in wl.pipelines:
                q = pipe.check(inps[pipe.name], first / pipe.name, c, random.Random(args.seed))
                floor = workloads.QUALITY_FLOORS[pipe.name]
                c.add("%s.quality_floor" % pipe.name, q >= floor,
                      "quality %r < floor %r" % (q, floor))
                qualities.append(q)
                prop_counts.update(pipe.property_counts(inps[pipe.name], first / pipe.name))
            props = workloads.properties(prop_counts)
        record = {"run": run_id, "properties": props, "setup_s": setup_s,
                  "digests": passes[0]["digests"],
                  "passes": [{k: p[k] for k in ("wall", "peak", "walls")} for p in passes]}
        if args.trace and not failed:
            untraced_wall, untraced_counts = mirror_run(
                wl, inps, work / "mirror0", spans.Tracer(run_id, enabled=False), [])
            tr = spans.Tracer(run_id)
            traced_wall, counts = mirror_run(wl, inps, work / "mirror1", tr, workloads.PATCHES)
            counts.update({k: v for k, v in span_counts(tr, counts).items() if v})
            check_counts(c, wl, args.seed, untraced_counts, counts)
            metrics = layer_metrics(tr, counts, work / "mirror1")
            metrics["corpus.heap_mib"] = max(
                heap_mib(corpus, *pipe.heap_input(inps[pipe.name])) for pipe in wl.pipelines)
            covered = layer_share(tr)
            metrics["cli.unattributed_s"] = (passes[0]["wall"] - setup_s * passes[0]["steps"]
                                             - covered)
            metrics["trace.overhead_s"] = traced_wall - untraced_wall
            metrics["trace.coverage"] = covered / traced_wall
            metrics.update(props)
            tr.write(RECORDS / ("spans-%s.json" % run_id))
            record.update(counts=counts, traced_wall_s=traced_wall,
                          untraced_wall_s=untraced_wall)
        elif not failed:
            wall_s = statistics.median(p["wall"] for p in passes)
            metrics = {
                "wall_s": wall_s,
                "items_per_s": sum(i["items"] for i in inps.values()) / wall_s,
                "peak_rss_mib": statistics.median(p["peak"] for p in passes),
                "setup_s": setup_s,
                "quality": min(qualities),
            }
        ops += len(c.results)
        failed += len(c.failed)
        record.update(metrics=metrics, checks=c.results)
        (RECORDS / ("%s.json" % run_id)).write_text(json.dumps(record, indent=1, default=str))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value in sorted(props.items()):
        print("property %s = %.6g" % (name, value))
    for name, digest in sorted(record["digests"].items()):
        print("sha256 %s %s" % (digest, name))
    for pipe in wl.pipelines:
        walls = [p["walls"][pipe.name] for p in passes if pipe.name in p["walls"]]
        if walls:
            print("pipeline %s: median wall %.6g s over %d passes"
                  % (pipe.name, statistics.median(walls), len(walls)))
    for name, ok, detail in c.failed:
        print("FAILED check %s: %s" % (name, detail), file=sys.stderr)
    print("%s: %d passes, %d of %d operations failed (error_rate %.6g ratio)"
          % (run_id, len(passes), failed, ops, failed / max(ops, 1)))
    for name, value in metrics.items():
        print("%s = %.6g %s" % (name, value, UNITS[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
