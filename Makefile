# Smoke / CI gate for the SALO reproduction.
#
#   make check [PARENT=<git ref>] [SEEDS=a-b] - tier-1 tests + the
#                  end-to-end smokes below + the perf gate: the repo
#                  benchmark A/B (bench-e2e-pair) of the working tree
#                  against PARENT (default HEAD: what is about to be
#                  committed against what is; an A/A on a clean tree)
#                  over seeds 0-4, failing on any `worse` row, failed
#                  run or digest mismatch.  Five seeds, not three:
#                  compare.py calls a noisy row `worse` when every
#                  change run loses to every parent run, which an A/A
#                  does by chance 1 time in 20 at n=3 and 1 in 252 at
#                  n=5.  ~12 minutes on the 2-core reference host;
#                  `make test` stays the quick loop
#   make test    - tier-1 tests only, ending with the 15 slowest entries
#                  (--durations=15: the table ROADMAP item 12 tracks)
#   make pins    - the pinned suites an engine or scheduler change must
#                  leave byte-equal, in one run: engine outputs, compiled
#                  plans and their schedules, simulate() and decode
#                  reports, the decode scheduler, the serving session and
#                  the advisor export (PINS below; all are in tier-1 too)
#   make simulate-smoke - 2-worker discrete-event simulation end to end
#                  (deterministic cost-model clock; seconds, not minutes)
#   make simulate-overload - overload smoke at rho 1.5: shed + admission
#                  vs no-control on the same seed (the overload-control
#                  path end to end: --drop-expired, --admission,
#                  --class-weights)
#   make simulate-faults - fault tolerance end to end: a mid-run worker
#                  crash detected by heartbeats and recovered by
#                  requeue + stealing, plus transient-error retries
#                  (fixed seed, deterministic)
#   make engines-smoke - registry surface end to end: `engines list`
#                  tabulates every registered backend, and one serve
#                  replay runs on a non-default backend
#                  (--backend functional-legacy)
#   make decode-smoke - continuous-batching decode simulation end to
#                  end: tokens/s, TTFT/ITL percentiles, per-worker
#                  plan-cache hit rates (fixed seed, deterministic)
#   make bench-e2e-smoke - the repo benchmark (BENCHMARK.json,
#                  benchmarks/e2e/) end to end at --smoke scale: one
#                  decode_stream run with its correctness check
#   make bench-e2e-pair PARENT=<git ref> [WORKLOADS=a,b] [SEEDS=0-9]
#                  [TRACE=1] [OUT=dir] -
#                  the repo benchmark A/B against a parent commit:
#                  seed-matched pairs, run order alternating by seed,
#                  each tree running its own benchmarks/e2e, verdicts
#                  from compare.py plus a per-pair digest check
#                  (benchmarks/pair_e2e.py).  TRACE=1 runs traced and
#                  compares the per-layer names instead; OUT keeps the
#                  two result sets.  Ten seeds of all five workloads
#                  take ~20 minutes (a claim needs them; `make check`
#                  runs five)
#   make advise-smoke - provisioning advisor end to end: a reduced
#                  config search against the committed example traffic
#                  spec (ranked candidates with margins, headroom and
#                  the winner's ablation matrix; fixed seed)
#   make smoke-diff PARENT=<git ref> - the smokes a change to the
#                  control plane or the CLI must leave as they are
#                  (engines-, simulate-, simulate-overload, simulate-faults,
#                  decode- and advise-smoke), run on a `git archive` of
#                  PARENT in $TMPDIR (its own Makefile) and on the working
#                  tree; the `finished in` lines are dropped and the serve
#                  replay's wall-clock readings masked, the rest is diffed
#                  and any difference fails
#   make transport-smoke - out-of-process worker transport end to end:
#                  the measured (wall-clock) multi-core ladder plus a
#                  killed-worker recovery row (a real SIGKILL mid-run,
#                  recovered by heartbeat detection + requeue).  Wrapped
#                  in a hard `timeout` so a wedged worker process cannot
#                  hang CI; the transport test suite additionally arms a
#                  per-test SIGALRM guard (tests/transport/conftest.py)

PYTHON ?= python
PYTHONPATH := src

PINS = tests/accelerator/test_pinned_outputs.py tests/scheduler/test_pinned_plans.py \
	tests/cluster/test_pinned_reports.py tests/cluster/test_decode_sim.py::TestPinnedReports \
	tests/decode/test_scheduler_pinned.py tests/serving/test_session_pinned.py \
	tests/advisor/test_export.py

.PHONY: check test pins simulate-smoke simulate-overload simulate-faults \
	decode-smoke engines-smoke transport-smoke advise-smoke \
	bench-e2e-smoke bench-e2e-pair smoke-diff

check: test engines-smoke simulate-smoke simulate-overload \
	simulate-faults decode-smoke transport-smoke advise-smoke \
	bench-e2e-smoke
	$(MAKE) bench-e2e-pair PARENT=$(or $(PARENT),HEAD) SEEDS=$(or $(SEEDS),0-4)

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q --durations=15

pins:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q $(PINS)

# -W error::DeprecationWarning: a surviving or resurrected engine shim
# fails the gate instead of scrolling past.
engines-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -W error::DeprecationWarning \
		-m repro.cli engines list
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -W error::DeprecationWarning \
		-m repro.cli serve \
		--requests 16 --n 64 --window 8 --heads 2 --head-dim 4 \
		--backend functional-legacy --seed 0

simulate-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli simulate \
		--workers 2 --requests 48 --n 64 --window 8 --heads 2 --head-dim 4 \
		--policy edf --seed 0

simulate-faults:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli simulate \
		--workers 2 --requests 64 --n 64 --window 8 --heads 2 --head-dim 4 \
		--policy edf --drop-expired --seed 0 \
		--fault-crash 1:0.5:1.0 --fault-transient 0.05 \
		--heartbeat-interval-ms 0.05 --heartbeat-timeout-ms 0.1 \
		--max-retries 3

decode-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli decode \
		--sequences 48 --rate 2500 --workers 2 --max-lanes 4 \
		--window 8 --heads 2 --head-dim 8 --seed 0
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli decode \
		--sequences 32 --rate 2500 --workers 2 --max-lanes 8 \
		--admission est-wait --fault-transient 0.2 --fault-worker 0 \
		--seed 0

bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --workload decode_stream --seed 0 --smoke

bench-e2e-pair:
	@test -n "$(PARENT)" || { echo "usage: make bench-e2e-pair PARENT=<git ref> [WORKLOADS=a,b] [SEEDS=0-9] [TRACE=1] [OUT=dir]"; exit 2; }
	$(PYTHON) benchmarks/pair_e2e.py --parent $(PARENT) \
		$(if $(WORKLOADS),--workloads $(WORKLOADS)) $(if $(SEEDS),--seeds $(SEEDS)) \
		$(if $(TRACE),--trace $(TRACE)) $(if $(OUT),--out $(OUT))

# A /dev/shm entry that appears during the run and outlives it is a
# leaked segment: listed twice before and once after, `uniq -u` keeps
# exactly the new ones (benchmarks/e2e/run.py applies the same rule).
transport-smoke:
	@before=$$(ls -A /dev/shm 2>/dev/null); \
	PYTHONPATH=$(PYTHONPATH) timeout 600 $(PYTHON) -m repro.cli \
		run transport_multicore --fast || exit $$?; \
	leaked=$$({ echo "$$before"; echo "$$before"; ls -A /dev/shm 2>/dev/null; } | sort | uniq -u); \
	if [ -n "$$leaked" ]; then \
		echo "transport-smoke: shared-memory segments left behind:" $$leaked >&2; exit 1; \
	fi

advise-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli advise \
		--traffic examples/traffic_interactive_bulk.json \
		--workers 2 4 --policy greedy-fifo edf --top 6 --ablate-top 1

simulate-overload:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli simulate \
		--workers 2 --requests 64 --n 64 --window 8 --heads 2 --head-dim 4 \
		--policy edf --rho 1.5 --seed 0
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli simulate \
		--workers 2 --requests 64 --n 64 --window 8 --heads 2 --head-dim 4 \
		--policy weighted-fair --class-weights interactive:3,bulk:1 \
		--drop-expired --admission est-wait --rho 1.5 --seed 0

# The serve replay in engines-smoke prints wall-clock readings: smoke-diff
# keeps those lines but masks their numbers.
SMOKES = engines-smoke simulate-smoke simulate-overload simulate-faults \
	decode-smoke advise-smoke
WALL_CLOCK = wall time|throughput|queue p50|latency p50|sequential baseline|batched speedup

smoke-diff:
	@test -n "$(PARENT)" || { echo "usage: make smoke-diff PARENT=<git ref>"; exit 2; }
	@work=$$(mktemp -d "$${TMPDIR:-/tmp}/smoke-diff.XXXXXX") || exit 1; \
	trap 'rm -rf "$$work"' EXIT; \
	mkdir "$$work/parent" && git archive "$(PARENT)" | tar -x -C "$$work/parent" || exit 1; \
	for side in parent change; do \
		if [ $$side = parent ]; then tree="$$work/parent"; else tree="$$(pwd)"; fi; \
		$(MAKE) -s --no-print-directory -C "$$tree" PYTHON="$(PYTHON)" $(SMOKES) \
			> "$$work/$$side.raw" 2>&1 || { cat "$$work/$$side.raw"; \
			echo "smoke-diff: a smoke failed on the $$side tree" >&2; exit 1; }; \
		grep -v 'finished in' "$$work/$$side.raw" \
			| sed -E '/^($(WALL_CLOCK))/s/[0-9]+(\.[0-9]+)?/N/g' > "$$work/$$side.out"; \
	done; \
	diff -u "$$work/parent.out" "$$work/change.out" || exit 1; \
	echo "smoke-diff: no difference against $(PARENT) ($$(wc -l < "$$work/change.out") lines)"
