"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py

They check that the generators are seeded, that the output checks catch
corrupted score, selection and hits files, that span self times add up, and
that every metric name and unit is well-formed and matches BENCHMARK.json.
"""

import hashlib
import json
import random
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _tree_digest(path):
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    digests = []
    for i, seed in enumerate((7, 7, 8)):
        out = tmp_path / str(i)
        out.mkdir()
        gen.GENERATORS[name](seed, out)
        digests.append(_tree_digest(out))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_word_types_spell_no_digits(tmp_path):
    inp = gen.gen_sim(3, tmp_path)
    assert not re.search(r"[0-9]", inp["general"].read_text())


def _pipeline(name, tmp_path):
    wl = workloads.PIPELINES[name]
    inp = wl.generate(5, _mkdir(tmp_path / "in"))
    out = tmp_path / "out"
    steps, failed, _, _ = run.run_pipeline(wl, inp, out, tmp_path / "cli.log")
    assert failed == 0, (tmp_path / "cli.log").read_text()
    return wl, inp, out


def _mkdir(path):
    path.mkdir()
    return path


def _failed_checks(wl, inp, out):
    c = checks.Checks()
    wl.check(inp, out, c, random.Random(5))
    return [name for name, _, _ in c.failed]


def _rewrite(path, edit):
    lines = path.read_text().split("\n")
    edit(lines)
    path.write_text("\n".join(lines))


def test_corrupted_ml_scores_and_selection_fail_checks(tmp_path):
    wl, inp, out = _pipeline("ml", tmp_path)
    assert _failed_checks(wl, inp, out) == []
    original = (out / "ml.sel").read_text()

    def drop_last_index(lines):
        del lines[-2]

    _rewrite(out / "ml.sel", drop_last_index)
    assert "ml.select.topk_floor" in _failed_checks(wl, inp, out)
    (out / "ml.sel").write_text(original)

    def swap_best_and_worst(lines):
        body = [i for i, l in enumerate(lines) if l and not l.startswith("#")]
        value = {i: float(lines[i].split("\t")[1]) for i in body}
        lo, hi = min(body, key=value.get), max(body, key=value.get)
        lines[lo], lines[hi] = (lines[lo].split("\t")[0] + "\t" + repr(value[hi]),
                                lines[hi].split("\t")[0] + "\t" + repr(value[lo]))

    _rewrite(out / "ml.tsv", swap_best_and_worst)
    assert "ml.select.ranking" in _failed_checks(wl, inp, out)


def test_corrupted_hits_fail_checks(tmp_path):
    wl, inp, out = _pipeline("retrieve", tmp_path)
    assert _failed_checks(wl, inp, out) == []
    gold = dict(l.split("\t") for l in checks.read_lines(inp["gold"]))

    def misdirect_first_correct_hit(lines):
        for i, line in enumerate(lines):
            fields = line.split("\t")
            if len(fields) == 4 and gold[fields[0]] == fields[2]:
                fields[2] = "doc0000" if fields[2] != "doc0000" else "doc0001"
                lines[i] = "\t".join(fields)
                return

    _rewrite(out / "hits.filtered.tsv", misdirect_first_correct_hit)
    assert "retrieve.filtered.f1_header" in _failed_checks(wl, inp, out)


def test_self_times_subtract_children():
    tr = spans.Tracer("t")
    with tr.span("outer") as outer:
        with tr.span("inner") as inner:
            pass
    selfs = tr.self_times()
    assert selfs[outer["id"]] == pytest.approx(outer["busy"] - inner["busy"])
    assert inner["parent"] == outer["id"]
    assert tr.within("outer", "inner")[1] == 1


def test_metric_names_units_and_benchmark_json():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    for n, u in list(run.END_TO_END) + [(n, u) for n, u, _ in run.PER_LAYER]:
        assert name.match(n), n
        assert unit.match(u), u
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
