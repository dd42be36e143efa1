# Development targets for the CIM column-wise quantization reproduction.
#
#   make verify       - the one-command gate: tier-1 tests + lint + docs-check
#                       + bench-smoke
#   make test         - tier-1 test suite (unit + property + integration)
#   make lint         - static analyzer (tools/analyze): lock-discipline,
#                       hot-path allocation, int-purity, thread-safety docs
#                       over src/repro with an empty baseline, 5s budget
#   make test-engine  - just the frozen-engine suite
#   make test-int     - the integer-route suites (fast iteration on the
#                       requant pipeline: property tests, fuzz differentials,
#                       the pure-Python integer oracle, golden int fixtures)
#   make coverage     - line coverage gate over the engine plus the requant
#                       pipeline modules (pytest + tools/run_coverage.py,
#                       fails under 90%; uses the coverage package when present,
#                       a stdlib settrace fallback otherwise)
#   make bench-smoke  - fast smoke pass over the benchmark harness
#   make bench-engine - frozen-engine speedup benchmark at default scale
#   make bench-runner - batched inference-runner throughput benchmark
#   make bench-server - concurrent PlanServer throughput benchmark
#   make bench-int    - integer-requantized route benchmark at default scale
#   make bench-netserver - HTTP front-end SLO benchmark (sustained, bursty,
#                       during-swap and saturation load against a 2-shard
#                       NetServer; rolling reloads drop nothing)
#   make bench-analyze - analyzer self-runtime benchmark (full-tree + per-pass
#                       timings against the 5s lint budget)
#   make serve-demo   - end-to-end HTTP serving walkthrough
#                       (examples/serve_http.py: mount, predict, metrics, drain)
#   make docs-check   - fail on undocumented public APIs in the documented
#                       modules + run the fenced python snippets of docs/engine.md
#   make loc          - print engine LOC (all lines of src/repro/engine/*.py),
#                       the size metric ROADMAP.md tracks
#   make install      - editable install (works without the wheel package)

PYTHON      ?= python
PYTHONPATH  := src

export PYTHONPATH

.PHONY: verify test lint test-engine test-int coverage bench-smoke bench-engine bench-runner bench-server bench-int bench-netserver bench-analyze serve-demo docs-check loc install

verify: test lint docs-check bench-smoke

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m tools.analyze src/repro --max-seconds 5

test-engine:
	$(PYTHON) -m pytest tests/engine -q

test-int:
	$(PYTHON) -m pytest tests/core/test_requant.py tests/engine/test_int_requant.py tests/engine/test_int_oracle.py tests/engine/test_golden.py -q

coverage:
	$(PYTHON) tools/run_coverage.py --source src/repro/engine --source src/repro/core/pipeline.py --source src/repro/core/requant.py --source tools/analyze --fail-under 90 tests/engine tests/core tests/tools -q

bench-smoke:
	REPRO_BENCH_SCALE=tiny $(PYTHON) -m pytest benchmarks/bench_engine_speedup.py benchmarks/bench_runner_throughput.py benchmarks/bench_server_concurrency.py benchmarks/bench_int_requant.py benchmarks/bench_netserver_slo.py benchmarks/bench_analyze.py -q

bench-engine:
	$(PYTHON) benchmarks/bench_engine_speedup.py

bench-runner:
	$(PYTHON) benchmarks/bench_runner_throughput.py

bench-server:
	$(PYTHON) benchmarks/bench_server_concurrency.py

bench-int:
	$(PYTHON) benchmarks/bench_int_requant.py

bench-netserver:
	$(PYTHON) benchmarks/bench_netserver_slo.py

bench-analyze:
	$(PYTHON) benchmarks/bench_analyze.py

serve-demo:
	$(PYTHON) examples/serve_http.py

docs-check:
	$(PYTHON) tools/check_docstrings.py src/repro/engine src/repro/models src/repro/core/psum.py src/repro/core/pipeline.py src/repro/core/requant.py src/repro/cim/cost.py tools/serve.py tools/analyze
	$(PYTHON) tools/run_doc_snippets.py docs/engine.md

loc:
	@cat src/repro/engine/*.py | wc -l

install:
	pip install -e . || $(PYTHON) setup.py develop
