"""The names the benchmark wraps still exist in the package.

`bench/workloads.py` lists in `PATCHES` each (module, name) that its traced
run wraps in a span.  A name deleted or renamed in the package would break
only that traced run, which the unit tests never start, so this test
imports the workloads (without writing bytecode beside them) and looks
every name up.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_name_the_bench_wraps_exists(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(BENCH)] + sys.path)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    missing = [(module.__name__, name) for module, name, *_ in workloads.PATCHES
               if not hasattr(module, name)]
    assert workloads.PATCHES and missing == []
