"""End-to-end tests for the ``tools.analyze`` static analyzer.

Every pass is proven *live* against a seeded-violation fixture and
proven *quiet* against the real engine tree.  Each violating fixture
line carries a trailing ``seed: <rule>`` comment that these tests
resolve to expected ``(rule, line)`` pairs, so assertions track the
fixtures automatically when they are edited.  The baseline workflow,
inline waivers, and the CLI entry point are exercised end to end.
"""

import os
import re
import time

import pytest

from tools.analyze.__main__ import main
from tools.analyze.core import (Finding, all_passes, load_baseline,
                                run_analysis, write_baseline)

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")

_SEED_RE = re.compile(r"seed:\s*([a-z-]+)")


def seeded(name):
    """Expected ``{(rule, line), ...}`` pairs from a fixture's seeds."""
    pairs = set()
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            match = _SEED_RE.search(line)
            if match:
                pairs.add((match.group(1), lineno))
    return pairs


def analyze(name, select=None, baseline=None):
    """Run the analyzer over one fixture with repo-root-relative paths."""
    return run_analysis([os.path.join(FIXTURES, name)],
                        select=select, baseline=baseline, root=ROOT)


# --------------------------------------------------------------------------- #
# registry + finding model
# --------------------------------------------------------------------------- #
def test_all_four_passes_registered():
    assert set(all_passes()) == {"lock-discipline", "hot-path-allocation",
                                 "int-purity", "thread-safety-docs"}


def test_finding_model_round_trips():
    finding = Finding(pass_id="p", rule="r", path="a/b.py", line=3,
                      message="m", symbol="C.m")
    assert finding.end_line == 3
    assert finding.location() == "a/b.py:3"
    assert finding.baseline_key() == "a/b.py::p::r::C.m"
    assert "a/b.py:3" in finding.render() and "[C.m]" in finding.render()
    span = Finding(pass_id="p", rule="r", path="a.py", line=3, end_line=7,
                   message="m")
    assert span.location() == "a.py:3-7"
    with pytest.raises(ValueError):
        Finding(pass_id="p", rule="r", path="a.py", line=1, message="m",
                severity="note")


def test_unknown_pass_selection_rejected():
    with pytest.raises(ValueError):
        analyze("good_locks.py", select=["no-such-pass"])


def test_parse_error_is_reported(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    result = run_analysis([str(broken)], root=str(tmp_path))
    assert [f.rule for f in result.findings] == ["parse-error"]
    assert result.files_analyzed == 0


# --------------------------------------------------------------------------- #
# lock-discipline
# --------------------------------------------------------------------------- #
def test_lock_discipline_fires_on_each_seeded_violation():
    result = analyze("bad_locks.py", select=["lock-discipline"])
    got = {(f.rule, f.line) for f in result.findings
           if f.rule != "lock-order-cycle"}
    assert got == seeded("bad_locks.py")
    by_rule = {}
    for finding in result.findings:
        by_rule.setdefault(finding.rule, []).append(finding)
    assert by_rule["lock-reacquire"][0].symbol == "Reacquire.deadlock"
    assert by_rule["unordered-acquisition"][0].symbol == "Peer.merge_bad"
    assert {f.symbol for f in by_rule["unknown-lock"]} == \
        {"MissingLock", "Reacquire.bad_tag"}
    cycles = by_rule["lock-order-cycle"]
    assert len(cycles) == 1
    assert "CycleMaker._a" in cycles[0].symbol
    assert "ORDER_LOCK" in cycles[0].symbol


def test_lock_discipline_accepts_ordered_tags_aliases_and_waivers():
    result = analyze("good_locks.py", select=["lock-discipline"])
    assert result.findings == []
    assert [f.rule for f in result.waived] == ["unguarded-access"]


def test_waiver_without_reason_is_a_finding():
    result = analyze("bad_waiver.py")
    assert {(f.rule, f.line) for f in result.findings} == \
        seeded("bad_waiver.py")
    assert result.findings[0].pass_id == "analyzer"


# --------------------------------------------------------------------------- #
# hot-path allocation
# --------------------------------------------------------------------------- #
def test_hot_path_fires_decorator_and_registry_forms():
    result = analyze("bad_hot.py", select=["hot-path-allocation"])
    assert {(f.rule, f.line) for f in result.findings} == seeded("bad_hot.py")
    # cold_helper's np.zeros is absent from the seeds, so set equality
    # above already proves unregistered functions stay unflagged
    assert {f.symbol for f in result.findings} == \
        {"decorated_hot", "registry_hot"}


# --------------------------------------------------------------------------- #
# int-purity
# --------------------------------------------------------------------------- #
def test_int_purity_fires_on_each_float_reintroduction():
    result = analyze("bad_intpure.py", select=["int-purity"])
    assert {(f.rule, f.line) for f in result.findings} == \
        seeded("bad_intpure.py")


def test_int_purity_fires_inside_a_folded_epilogue():
    # the fence shape of the integer route's requant epilogue
    result = analyze("bad_epilogue.py", select=["int-purity"])
    assert {(f.rule, f.line) for f in result.findings} == \
        seeded("bad_epilogue.py")


def test_int_purity_marker_balance():
    result = analyze("bad_markers.py", select=["int-purity"])
    assert {(f.rule, f.line) for f in result.findings} == \
        seeded("bad_markers.py")
    messages = [f.message for f in result.findings]
    assert any("inside an open region" in m for m in messages)
    assert any("no open region" in m for m in messages)
    assert any("never closed" in m for m in messages)


# --------------------------------------------------------------------------- #
# thread-safety docs
# --------------------------------------------------------------------------- #
def test_thread_safety_doc_contract():
    result = analyze("bad_docs.py", select=["thread-safety-docs"])
    assert {(f.rule, f.line) for f in result.findings} == \
        seeded("bad_docs.py")
    assert {f.symbol for f in result.findings} == \
        {"Counter.increment", "Counter.get"}


# --------------------------------------------------------------------------- #
# the real tree is clean, inside the runtime budget
# --------------------------------------------------------------------------- #
def test_engine_tree_is_analyzer_clean_within_budget():
    started = time.perf_counter()
    result = run_analysis([os.path.join(ROOT, "src", "repro")], root=ROOT)
    elapsed = time.perf_counter() - started
    assert result.findings == []
    assert result.files_analyzed > 50
    assert elapsed < 5.0


# --------------------------------------------------------------------------- #
# baseline workflow
# --------------------------------------------------------------------------- #
def test_baseline_roundtrip_suppresses_known_findings(tmp_path):
    first = analyze("bad_intpure.py", select=["int-purity"])
    assert first.findings
    path = str(tmp_path / "baseline.json")
    write_baseline(path, first.findings)
    keys = load_baseline(path)
    assert len(keys) == len({f.baseline_key() for f in first.findings})
    second = analyze("bad_intpure.py", select=["int-purity"], baseline=keys)
    assert second.findings == []
    assert len(second.suppressed) == len(first.findings)


def test_load_baseline_missing_and_malformed(tmp_path):
    assert load_baseline(str(tmp_path / "absent.json")) == []
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    with pytest.raises(ValueError):
        load_baseline(str(bad))


# --------------------------------------------------------------------------- #
# CLI entry point
# --------------------------------------------------------------------------- #
def test_cli_reports_findings_and_exit_codes(capsys):
    bad = os.path.join(FIXTURES, "bad_intpure.py")
    good = os.path.join(FIXTURES, "good_locks.py")
    assert main([bad, "--select", "int-purity"]) == 1
    out = capsys.readouterr().out
    assert "int-purity/float-literal" in out
    assert main([good, "--select", "lock-discipline"]) == 0
    out = capsys.readouterr().out
    assert "waived inline" in out
    assert main(["--list-passes"]) == 0
    out = capsys.readouterr().out
    for pass_id in all_passes():
        assert pass_id in out
    assert main([bad, "--select", "no-such-pass"]) == 2


def test_cli_baseline_workflow(tmp_path, capsys):
    bad = os.path.join(FIXTURES, "bad_markers.py")
    baseline = str(tmp_path / "baseline.json")
    assert main([bad, "--baseline", baseline, "--write-baseline"]) == 0
    assert "wrote" in capsys.readouterr().out
    assert main([bad, "--baseline", baseline]) == 0
    assert "baseline-suppressed" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main([bad, "--write-baseline"])


def test_cli_runtime_budget_gate(capsys):
    good = os.path.join(FIXTURES, "good_locks.py")
    assert main([good, "--max-seconds", "0"]) == 1
    assert "budget" in capsys.readouterr().err
