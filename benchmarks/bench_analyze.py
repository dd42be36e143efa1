"""Analyzer self-runtime — the lint gate must stay effectively free.

``make lint`` runs every registered pass of ``tools.analyze`` over the
whole ``src/repro`` tree on every ``make verify``, so its runtime is part
of the developer inner loop.  This benchmark pins that budget:

* **runtime**: a full four-pass run over ``src/repro`` completes in
  under 5 seconds (the ``--max-seconds`` value the lint target enforces);
* **cleanliness**: the run reports zero findings — the gate runs with an
  empty baseline, so any finding here is a regression;
* **per-pass attribution**: each pass is also timed alone, so a future
  slowdown names its culprit instead of just blowing the total.

Each run is timed by ``perf.rotate``: the full run and every pass alone
are the sides of its rotating trials, and the budget gate reads the full
run's median.  Run directly (``python benchmarks/bench_analyze.py``) or
through pytest; either entry point writes ``BENCH_analyze.json`` through
``perf.main`` (not at the ``tiny`` scale).
"""

import os
import sys

import perf

_ROOT = perf.ROOT
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from tools.analyze.core import all_passes, run_analysis

_BUDGET_SECONDS = 5.0
_TREE = os.path.join(_ROOT, "src", "repro")


def run_benchmark():
    """Full-tree and per-pass timings plus the finding counts."""
    sides = {"all": lambda: run_analysis([_TREE], root=_ROOT)}
    for pass_id in all_passes():
        sides[pass_id] = (lambda select=[pass_id]:
                          run_analysis([_TREE], select=select, root=_ROOT))
    timing, returns = perf.rotate(sides)
    result = returns["all"][-1]
    return {
        "files_analyzed": result.files_analyzed,
        "budget_seconds": _BUDGET_SECONDS,
        "findings": len(result.findings),
        "waived": len(result.waived),
        "all": timing.pop("all"),
        "per_pass": {pass_id: {**timing[pass_id],
                               "findings": len(returns[pass_id][-1].findings)}
                     for pass_id in timing},
    }


def test_analyzer_runtime_budget():
    """Full tree clean, and its median run inside the 5s budget."""
    results = perf.main("analyze", run_benchmark)
    assert results["files_analyzed"] > 50, results
    assert results["findings"] == 0, \
        f"engine tree is not analyzer-clean: {results}"
    assert results["all"]["median_s"] < _BUDGET_SECONDS, \
        f"analyzer blew its {_BUDGET_SECONDS}s budget: {results}"


if __name__ == "__main__":
    test_analyzer_runtime_budget()
