GO ?= go

.PHONY: build vet test race batch-equiv check metrics-lint serve-smoke chaos-smoke atlas-smoke fabric-smoke cellbench-smoke bench bench-compare

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# metrics-lint holds every metric name to the unit-suffix convention
# (or an explicit allowlist entry) and to the DESIGN.md 4.11 inventory.
metrics-lint:
	./scripts/metrics-lint.sh

# batch-equiv pins the simulator's two decide paths to each other under
# the race detector: the SoA batch kernel (flock's BatchCommands inside
# sim.Stepper) and per-drone Command over PerfectBus rows must produce
# bit-identical commands and run results. `race` already runs these
# tests too; the named target exists so the equivalence contract has
# its own CI handle and a fast local loop.
batch-equiv:
	$(GO) test -race -run '^(TestBatchPathMatchesRowPath|TestBatchPathMatchesRowPathWithDroneCollisions|TestBatchStepperMatchesSequentialRuns|TestBatchStepperBudgetExhaustion|TestBatchCommandsMatchesCommand)$$' \
		./internal/sim/ ./internal/flock/

# check is the CI gate: vet plus metric-name hygiene plus the decide
# paths' bit-identity pins plus the full test suite under the race
# detector (the campaign engine's worker pool and the serving daemon's
# job queue must stay race-clean; `race` covers internal/serve too),
# plus the multi-process fabric smoke, plus the campaign-cell
# benchmark's output check against its stored references.
check: build vet metrics-lint batch-equiv race fabric-smoke cellbench-smoke

# serve-smoke boots a real swarmfuzzd on an ephemeral port, submits a
# tiny fuzz job through the CLI client, and asserts it finishes with a
# persisted report — the daemon/store/API/client end-to-end proof.
serve-smoke:
	./scripts/serve-smoke.sh

# chaos-smoke runs the same grid job on a healthy daemon and on one
# under an injected fault schedule (torn write, ENOSPC, a watchdogged
# stall) plus a pre-corrupted store, and requires byte-identical
# reports with every failure visible on /metrics. Race-detector build.
chaos-smoke:
	./scripts/chaos-smoke.sh

# atlas-smoke proves the search atlas end to end: the golden and
# checkpoint-resume byte-identity pins, two identical CLI runs
# diffing clean, and a served grid job whose artifact frames a
# populated cell and whose XHTML page passes tools/xmlwf.
atlas-smoke:
	./scripts/atlas-smoke.sh

# fabric-smoke proves the distributed campaign fabric with real
# processes: a grid sharded across a coordinator and two workers — one
# kill -9ed mid-grid — must produce artifacts byte-identical to a
# single-node run, and resubmitting the identical spec must be served
# from the content-addressed result cache without re-simulating.
fabric-smoke:
	./scripts/fabric-smoke.sh

# cellbench-smoke runs cellbench's tests and one short traced pass of a
# Table I cell, failing unless every mission's outputs match the stored
# references (the benchmark itself exits 0 on wrong outputs).
cellbench-smoke:
	./scripts/cellbench-smoke.sh

# bench smoke-runs every benchmark once and leaves two records behind:
# BENCH_telemetry.json holds the telemetry pipeline's throughput
# figures (missions/s, ns/sim-step — machine-dependent, gitignored),
# and BENCH_baseline.json holds the campaign's deterministic work
# counters (missions, simulations, steps — committed, so a diff flags a
# behaviour change). It also re-verifies the telemetry package under
# the race detector, since its registry and trace writer are the only
# code every worker goroutine shares.
bench:
	BENCH_OUT=$(CURDIR)/BENCH_telemetry.json BENCH_BASELINE=$(CURDIR)/BENCH_baseline.json $(GO) test -bench=. -benchtime=1x -run=^$$ .
	rm -f $(CURDIR)/BENCH_hotpath.json
	BENCH_HOTPATH=$(CURDIR)/BENCH_hotpath.json $(GO) test -bench='^(BenchmarkSimStep|BenchmarkSeedSearch)$$' -benchtime=1x -run=^$$ .
	rm -f $(CURDIR)/BENCH_obs.json
	BENCH_OBS=$(CURDIR)/BENCH_obs.json $(GO) test -bench='^BenchmarkStatsSnapshot$$' -benchtime=1x -run=^$$ .
	rm -f $(CURDIR)/BENCH_atlas.json
	BENCH_ATLAS=$(CURDIR)/BENCH_atlas.json $(GO) test -bench='^BenchmarkSearchObserver$$' -benchtime=1x -run=^$$ .
	$(GO) test -race ./internal/telemetry/...

# bench-compare measures the hot path afresh and diffs it against the
# committed BENCH_hotpath.json, failing on any ns/step (or ns/walk)
# regression beyond 20%. Run `make bench` and commit the regenerated
# BENCH_hotpath.json to accept an intentional cost change.
bench-compare:
	rm -f $(CURDIR)/BENCH_hotpath.new.json
	BENCH_HOTPATH=$(CURDIR)/BENCH_hotpath.new.json $(GO) test -bench='^(BenchmarkSimStep|BenchmarkSeedSearch)$$' -benchtime=1x -run=^$$ .
	$(GO) run ./tools/benchcompare -old $(CURDIR)/BENCH_hotpath.json -new $(CURDIR)/BENCH_hotpath.new.json -max-regression 0.20
	rm -f $(CURDIR)/BENCH_obs.new.json
	BENCH_OBS=$(CURDIR)/BENCH_obs.new.json $(GO) test -bench='^BenchmarkStatsSnapshot$$' -benchtime=1x -run=^$$ .
	# The stats snapshot is measured under deliberate writer
	# contention, so its run-to-run band is wider than the sim step's.
	$(GO) run ./tools/benchcompare -old $(CURDIR)/BENCH_obs.json -new $(CURDIR)/BENCH_obs.new.json -max-regression 0.50
	rm -f $(CURDIR)/BENCH_atlas.new.json
	BENCH_ATLAS=$(CURDIR)/BENCH_atlas.new.json $(GO) test -bench='^BenchmarkSearchObserver$$' -benchtime=1x -run=^$$ .
	# The observed descent includes JSON encoding into io.Discard, so
	# its band matches the obs snapshot's rather than the sim step's.
	$(GO) run ./tools/benchcompare -old $(CURDIR)/BENCH_atlas.json -new $(CURDIR)/BENCH_atlas.new.json -max-regression 0.50
