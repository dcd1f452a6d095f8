PYTHON ?= python

.PHONY: install test fuzz fuzz-replay conformance bench alloc-smoke mp-smoke mp-scaling mp-faults tier-smoke perfbench perfbench-smoke perf-pairs figures examples all clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

# Tier-1 (ROADMAP): the whole suite, stop at the first failure.
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q

# Open-ended property search (tier-1 itself is derandomised, see
# tests/conftest.py): every hypothesis test file, once, under fresh
# entropy.  Commit what it finds as an explicit @example.
fuzz:
	HYPOTHESIS_PROFILE=fuzz PYTHONPATH=src $(PYTHON) -m pytest -q \
		$$(grep -rl "^from hypothesis" tests --include='test_*.py')

# 1 500 architectures from random.Random(1) over the conformance property
# test's own draws, fused against numpy; prints each differing case, exits
# non-zero if any (a CI job).
fuzz-replay:
	PYTHONPATH=src:tests $(PYTHON) tests/conformance/fuzz_replay.py

# Backend conformance suite against the numpy reference, all backends
# (tier-1 runs it too; this is the directory shortcut).
conformance:
	PYTHONPATH=src $(PYTHON) -m pytest tests/conformance -q

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fresh interpreter, reduced train_emb shape: minor page faults per
# steady-state step must stay under a bound that per-call result
# allocation in the embedding kernels misses by 10x (Linux only).
alloc-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/alloc_smoke.py

# 2-worker hybrid-parallel run, bitwise-verified against the serial
# trainer; then 3 workers (two mesh rounds per rank: a round-order mistake hangs),
# world 1 through the same worker path, and the float64 model (--dtype).
mp-smoke:
	PYTHONPATH=src $(PYTHON) -m repro mp train --workers-n 2 --steps 3 --batch 64 --verify
	PYTHONPATH=src $(PYTHON) -m repro mp train --workers-n 3 --steps 3 --batch 96 --verify
	PYTHONPATH=src $(PYTHON) -m repro mp train --workers-n 1 --steps 3 --batch 64 --verify
	PYTHONPATH=src $(PYTHON) -m repro mp train --workers-n 2 --steps 3 --batch 64 --dtype float64 --verify

# Measured multi-process scaling curve vs the simulator's prediction.
mp-scaling:
	PYTHONPATH=src $(PYTHON) -m repro mp scaling --workers 1,2,4 --steps 8 --reps 2

# SIGKILL one rank mid-run, restart from the sharded checkpoint, gate on
# bit-identity vs the uninterrupted reference.
mp-faults:
	PYTHONPATH=src $(PYTHON) -m repro mp faults --steps 6 --batch 64 --kill-step 3 --checkpoint-every 2

# Tiered embedding store: bit-identity of tiered vs flat training (both
# dtypes) and the measured-vs-analytic tier-miss overhead gate.
tier-smoke:
	PYTHONPATH=src $(PYTHON) -m repro tier train --steps 4 --batch 48
	PYTHONPATH=src $(PYTHON) -m repro tier sweep

# perfbench (BENCHMARK.json): the absolute end-to-end numbers of all 7
# workloads, ~100 s.  Claims need >= 10 alternating parent/change pairs.
perfbench:
	$(PYTHON) perfbench/run.py

# Tiny shapes, plumbing only (~10 s): every workload runs, and the digest
# cross-checks (train_emb_pipe = train_emb, tiered = flat, hybrid_w2_pipe =
# hybrid_w2) must hold.
perfbench-smoke:
	$(PYTHON) perfbench/run.py --smoke && $(PYTHON) -m pytest perfbench/tests -q

# N alternating parent/change perfbench pairs and the per-pair table a
# perf claim rests on: make perf-pairs PARENT=<checkout> WORKLOAD=<name> N=10
# (no WORKLOAD: every workload, one process per workload and side, the
# suite's order rotated each pair).
N ?= 10
perf-pairs:
	$(PYTHON) benchmarks/pairs.py --parent $(PARENT) -n $(N) $(if $(WORKLOAD),--workload $(WORKLOAD))

figures:
	PYTHONPATH=src $(PYTHON) -m repro figures

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/capacity_planning.py
	PYTHONPATH=src $(PYTHON) examples/fleet_report.py
	PYTHONPATH=src $(PYTHON) examples/reliability.py
	PYTHONPATH=src $(PYTHON) examples/optimization_whatifs.py
	PYTHONPATH=src $(PYTHON) examples/roofline_analysis.py
	PYTHONPATH=src $(PYTHON) examples/batch_size_tradeoff.py

all: test bench

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
