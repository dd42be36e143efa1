"""Line-coverage gate for the engine subsystem, with no hard dependencies.

Runs pytest over a test directory while measuring which lines of the target
source tree execute, then fails if total line coverage is below the
threshold.  Two measurement backends, picked automatically:

* the ``coverage`` package, when it is installed (exact, fast);
* a stdlib fallback built on ``sys.settrace`` + ``threading.settrace``
  otherwise — executable lines are derived from the compiled code objects'
  ``co_lines()`` tables, executed lines from a trace function that attaches
  only to frames whose code lives in the target tree.  The fallback cannot
  see into forked child processes, so code that runs only in a fork
  counts as missed.

Usage (what ``make coverage`` runs)::

    python tools/run_coverage.py --source src/repro/engine \
        --source src/repro/core/pipeline.py --source src/repro/core/requant.py \
        --source tools/analyze --fail-under 90 tests/engine tests/core \
        tests/tools -q

``--source`` is repeatable and accepts either a directory (all ``.py``
files under it) or a single ``.py`` file.  Everything after the flags is
passed to pytest.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from typing import Dict, Iterable, Set, Tuple

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(
    os.path.abspath(__file__)), os.pardir))


def _source_files(source: str) -> list:
    """All ``.py`` files of one ``--source`` entry (absolute, sorted).

    A directory contributes every ``.py`` file under it; a ``.py`` file
    contributes itself.
    """
    if os.path.isfile(source):
        return [os.path.abspath(source)] if source.endswith(".py") else []
    files = []
    for dirpath, _dirnames, filenames in os.walk(source):
        for filename in filenames:
            if filename.endswith(".py"):
                files.append(os.path.abspath(os.path.join(dirpath, filename)))
    return sorted(files)


def _executable_lines(path: str) -> Set[int]:
    """Line numbers carrying bytecode, from the compiled code-object tree."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines: Set[int] = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _start, _stop, line in code.co_lines()
                     if line is not None and line > 0)
        stack.extend(const for const in code.co_consts
                     if hasattr(const, "co_lines"))
    return lines


# --------------------------------------------------------------------------- #
# stdlib fallback tracer
# --------------------------------------------------------------------------- #
class _LineCollector:
    """``sys.settrace`` hook recording executed lines of the watched files."""

    def __init__(self, watched: Set[str]):
        self.watched = watched
        self.executed: Dict[str, Set[int]] = {path: set() for path in watched}

    def _local(self, frame, event, _arg):
        if event == "line":
            self.executed[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def global_trace(self, frame, event, _arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename in self.watched:
                self.executed[filename].add(frame.f_lineno)
                return self._local
        return None

    def install(self) -> None:
        threading.settrace(self.global_trace)   # server worker threads too
        sys.settrace(self.global_trace)

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def _measure_fallback(files: Iterable[str], pytest_args: list) -> Tuple[int, Dict[str, Set[int]]]:
    import pytest
    collector = _LineCollector(set(files))
    collector.install()
    try:
        exit_code = pytest.main(pytest_args)
    finally:
        collector.uninstall()
    return int(exit_code), collector.executed


def _measure_with_coverage(files: Iterable[str],
                           pytest_args: list) -> Tuple[int, Dict[str, Set[int]]]:
    import coverage
    import pytest
    # include= (not source=) so single-file --source entries are honoured
    cov = coverage.Coverage(include=list(files), data_file=None)
    cov.start()
    try:
        exit_code = pytest.main(pytest_args)
    finally:
        cov.stop()
    data = cov.get_data()
    executed = {path: set(data.lines(path) or ()) for path in files}
    return int(exit_code), executed


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="pytest + line coverage with a stdlib fallback")
    parser.add_argument("--source", action="append", dest="sources",
                        metavar="SOURCE",
                        help="directory or .py file to measure (repeatable; "
                             "default: src/repro/engine)")
    parser.add_argument("--fail-under", type=float, default=85.0,
                        help="minimum total line coverage percentage")
    parser.add_argument("pytest_args", nargs="*", default=["tests/engine"],
                        help="arguments forwarded to pytest")
    args, extra = parser.parse_known_args(argv)
    args.pytest_args = list(args.pytest_args) + extra   # flags like -q pass through

    sources = [os.path.abspath(src if os.path.isabs(src)
                               else os.path.join(REPO_ROOT, src))
               for src in (args.sources or ["src/repro/engine"])]
    files = []
    for source in sources:
        found = _source_files(source)
        if not found:
            print(f"no .py files under {source}", file=sys.stderr)
            return 2
        files.extend(found)
    files = sorted(set(files))
    already = [name for name, module in sys.modules.items()
               if getattr(module, "__file__", None) in set(files)]
    if already:
        print(f"refusing to measure: {already} imported before tracing",
              file=sys.stderr)
        return 2

    pytest_args = list(args.pytest_args) or ["tests/engine"]
    pytest_args = [arg if os.path.isabs(arg) or arg.startswith("-")
                   else os.path.join(REPO_ROOT, arg) for arg in pytest_args]
    try:
        import coverage  # noqa: F401 — availability probe only
        backend = "coverage"
        exit_code, executed = _measure_with_coverage(files, pytest_args)
    except ImportError:
        backend = "stdlib settrace fallback"
        exit_code, executed = _measure_fallback(files, pytest_args)
    if exit_code != 0:
        print(f"\npytest failed (exit {exit_code}); coverage not evaluated",
              file=sys.stderr)
        return exit_code

    total_exec = 0
    total_hit = 0
    targets = ", ".join(os.path.relpath(src, REPO_ROOT) for src in sources)
    print(f"\nline coverage ({backend}) of {targets}:")
    print(f"  {'file':<28} {'lines':>6} {'hit':>6} {'cover':>7}")
    for path in files:
        executable = _executable_lines(path)
        hit = executed.get(path, set()) & executable
        total_exec += len(executable)
        total_hit += len(hit)
        pct = 100.0 * len(hit) / len(executable) if executable else 100.0
        print(f"  {os.path.basename(path):<28} {len(executable):>6} "
              f"{len(hit):>6} {pct:>6.1f}%")
    total_pct = 100.0 * total_hit / total_exec if total_exec else 100.0
    print(f"  {'TOTAL':<28} {total_exec:>6} {total_hit:>6} {total_pct:>6.1f}%")
    if total_pct < args.fail_under:
        print(f"\nFAIL: total coverage {total_pct:.1f}% is below the "
              f"--fail-under threshold {args.fail_under:.1f}%",
              file=sys.stderr)
        return 1
    print(f"\nOK: total coverage {total_pct:.1f}% "
          f">= {args.fail_under:.1f}% threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
