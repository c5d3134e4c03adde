PY ?= python
export PYTHONPATH := src

.PHONY: test test-dev lint smoke docs-check examples-smoke bench bench-smoke bench-correct gil-check resume-smoke storm-smoke trace-smoke

## test: run the full test suite (tier-1 gate)
test:
	$(PY) -m pytest -x -q

## test-dev: the suite under the development mode (-X dev): warnings such as
## unclosed files and thread misuse surface instead of passing silently
test-dev:
	$(PY) -X dev -m pytest -x -q

## lint: repro-lint contract checks, plus ruff/mypy when installed
lint:
	$(PY) -m repro.analysis.cli src --strict
	@if command -v ruff > /dev/null 2>&1; then \
	    ruff check src tests benchmarks; \
	else \
	    echo "ruff not installed; skipping (pip install ruff)"; \
	fi
	@if command -v mypy > /dev/null 2>&1; then \
	    mypy; \
	else \
	    echo "mypy not installed; skipping (pip install mypy)"; \
	fi

## bench: every timed ratio gate at default scale, writes BENCH_gates.json
bench:
	$(PY) benchmarks/gates.py

## bench-smoke: every timed ratio gate at tiny scale, writes BENCH_gates-live.json
bench-smoke:
	$(PY) benchmarks/gates.py --tiny

## bench-correct: one short perfbench run per workload at seeds 0 and 1009; fails unless the committed digests match
bench-correct:
	$(PY) scripts/bench_correct.py

## gil-check: a one-row in-process round releases the GIL at most once, a cache hit never (needs cc; exits 0 without)
gil-check:
	$(PY) scripts/gil_releases.py --check

## resume-smoke: SIGKILL a GRNA run mid-epoch, resume it, assert bit-identical report
resume-smoke:
	$(PY) scripts/kill_resume_smoke.py

## storm-smoke: scheduler bit-identity and mid-storm resume under a fault storm
storm-smoke:
	$(PY) scripts/fault_storm_smoke.py

## trace-smoke: SIGKILL a traced GRNA run mid-epoch, resume, assert byte-identical trace
trace-smoke:
	$(PY) scripts/trace_resume_smoke.py

## smoke: regenerate everything at smoke scale, in parallel, resumably
smoke:
	$(PY) -m repro.experiments all --scale smoke --jobs 2 --store-dir .cache/results

## examples-smoke: execute every example script at tiny scale
examples-smoke:
	set -e; for script in examples/*.py; do \
	    echo "== $$script"; \
	    $(PY) $$script --smoke; \
	done

## docs-check: docs exist, stay in sync with the CLI, and the API self-describes
docs-check:
	$(PY) -m pytest -q tests/test_docs.py
