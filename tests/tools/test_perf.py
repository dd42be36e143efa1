"""The speed benches' perf core (``benchmarks/perf.py``): timer, ledger, policy."""

import json
import os
import subprocess
import sys

import pytest

from repro.engine import cpu

_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_BENCHMARKS = os.path.join(_ROOT, "benchmarks")


@pytest.fixture(scope="module")
def perf():
    """The core, imported here; its BLAS policy is undone afterwards."""
    before = cpu.blas_threads()
    sys.path.insert(0, _BENCHMARKS)
    try:
        import perf as module
        yield module
    finally:
        sys.path.remove(_BENCHMARKS)
        if before is not None:
            cpu.set_blas_threads(before)


class _FakeClock:
    """A clock that moves only when a fake side runs."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_sides(clock, durations, calls):
    """Sides that log their calls and advance ``clock`` by the next of
    their listed durations (the first call is the untimed warm-up)."""
    def side(name):
        def run():
            calls.append(name)
            clock.now += durations[name][len([c for c in calls if c == name])
                                         - 1]
            return len(calls)
        return run
    return {name: side(name) for name in durations}


class TestRotate:
    def test_warms_up_then_rotates_the_first_side(self, perf, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        k = perf.trials()
        clock, calls = _FakeClock(), []
        durations = {name: [1.0] * (k + 1) for name in "abc"}
        perf.rotate(_fake_sides(clock, durations, calls), clock=clock)
        assert calls[:3] == ["a", "b", "c"]              # warm-up
        trials = [calls[3 + 3 * t:6 + 3 * t] for t in range(k)]
        assert len(trials) == k and len(calls) == 3 * (k + 1)
        for t, order in enumerate(trials):
            rotation = ["a", "b", "c"][t % 3:] + ["a", "b", "c"][:t % 3]
            assert order == rotation

    def test_reports_median_and_iqr_of_the_timed_trials(self, perf,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert perf.trials() == 3
        clock, calls = _FakeClock(), []
        durations = {"fast": [100.0, 1.0, 2.0, 4.0],    # warm-up not timed
                     "slow": [100.0, 10.0, 30.0, 20.0]}
        timing, returns = perf.rotate(_fake_sides(clock, durations, calls),
                                      clock=clock)
        assert timing["fast"] == {"median_s": 2.0, "iqr_s": 1.5}
        assert timing["slow"] == {"median_s": 20.0, "iqr_s": 10.0}
        assert returns["fast"] == [3, 6, 7]              # timed calls only
        assert returns["slow"] == [4, 5, 8]


class TestLedger:
    def test_tiny_scale_writes_no_ledger(self, perf, monkeypatch, tmp_path,
                                         capsys):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        monkeypatch.setattr(perf, "ROOT", str(tmp_path))
        assert perf.main("probe", lambda: {"x": 1}) == {"x": 1}
        assert os.listdir(tmp_path) == []
        assert json.loads(capsys.readouterr().out)["results"] == {"x": 1}

    def test_written_ledger_carries_environment_and_timings(
            self, perf, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        monkeypatch.setattr(perf, "ROOT", str(tmp_path))

        def run():
            timing, _ = perf.rotate({"a": lambda: None, "b": lambda: None})
            return timing

        perf.main("probe", run)
        with open(tmp_path / "BENCH_probe.json", encoding="utf-8") as handle:
            entry = json.load(handle)
        assert entry["benchmark"] == "probe"
        assert entry["scale"] == "small"
        assert entry["trials"] == perf.trials()
        assert "git_sha" in entry["environment"]
        assert entry["environment"]["seed"] == perf.SEED
        if cpu.blas_threads() is not None:
            assert entry["environment"]["blas"]["threads"] == 1
        for side in ("a", "b"):
            assert set(entry["results"][side]) == {"median_s", "iqr_s"}
        assert entry["tree"] in ("HEAD", "HEAD+uncommitted", "unknown")
        assert entry["peak_rss_mb"] > 0

    @pytest.mark.parametrize("returncode,stdout,state", [
        (0, "", "HEAD"),
        (0, " M src/repro/engine/plan.py\n", "HEAD+uncommitted"),
        (128, "", "unknown")])
    def test_tree_state_reads_git_status(self, perf, returncode, stdout,
                                         state):
        calls = []

        def git(args, **kwargs):
            calls.append(args)
            return subprocess.CompletedProcess(args, returncode, stdout, "")

        assert perf.tree_state(run=git) == state
        assert calls == [["git", "status", "--porcelain",
                          "--untracked-files=no"]]

    def test_ledger_names_an_uncommitted_tree(self, perf, monkeypatch,
                                              capsys):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        monkeypatch.setattr(perf.common, "git_sha", lambda: "abc123")
        monkeypatch.setattr(perf, "tree_state", lambda: "HEAD+uncommitted")
        perf.main("probe", lambda: {})
        entry = json.loads(capsys.readouterr().out)
        assert entry["environment"]["git_sha"] == "abc123"
        assert entry["tree"] == "HEAD+uncommitted"

    def test_peak_rss_reads_vmhwm_then_falls_back(self, perf, tmp_path):
        status = tmp_path / "status"
        status.write_text("Name:\tpython\nVmHWM:\t   61440 kB\n")
        assert perf.peak_rss_mb(str(status)) == 60.0
        fallback = perf.peak_rss_mb(str(tmp_path / "absent"))
        assert 0 < fallback <= perf.common.peak_rss_mb()


def _policy_after_importing(module: str) -> tuple:
    """(BLAS threads, runner workers) of a fresh interpreter that imports
    ``module`` from ``benchmarks/`` with no BLAS thread variable set."""
    env = {key: value for key, value in os.environ.items()
           if not key.endswith("_NUM_THREADS")
           and key != "VECLIB_MAXIMUM_THREADS"}
    env["PYTHONPATH"] = os.path.join(_ROOT, "src")
    code = (f"import sys; sys.path.insert(0, {_BENCHMARKS!r}); "
            f"import {module}; from repro.engine import cpu; "
            "print(cpu.blas_threads(), cpu.runner_workers())")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=_ROOT,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    threads, workers = out.stdout.split()
    return threads, int(workers)


def test_direct_bench_run_has_the_pytest_cpu_policy():
    """A bench imported without pytest measures the gated program: one
    BLAS thread, and the runner workers the pytest entry sees."""
    threads, workers = _policy_after_importing("bench_runner_throughput")
    assert threads in ("1", "None")
    assert workers == _policy_after_importing("conftest")[1]
