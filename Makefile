GO ?= go

.PHONY: build vet fmt test race batch-equiv check metrics-lint fuzz-smoke serve-smoke chaos-smoke atlas-smoke fabric-smoke cellbench-smoke bench bench-compare

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when any tracked Go file is not gofmt-formatted. Listing
# the files through git keeps untracked build caches out of the check.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

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
# bit-identical commands and run results, receivers on either side of
# the shill boundary and the migration cut-off at the destination
# included, pairs at radii whose padded gates are NaN (squares outside
# the normal range) or ordered RRep > RFrict, and the kernel's
# farthest-neighbour gate at the edges of its proof: squared distances
# 1-3 ulps apart that share a rounded root, the padded gate ±1 ulp,
# subnormal, zero and infinite squared distances, reached from either
# side of the pair sweep. It also pins the step's square-root-free
# gates to the formulas they replace, bit for bit: ClampNorm's
# squared-norm test against the ungated formula, Body.Step with its
# limits built once per run against the three-clamp formula,
# IsFinite's x-x test against math's IsNaN and IsInf, the obstacle
# gate against the exact surface distance down to ±1 ulp around each
# boundary, the Stepper's deferred clearance against the eager
# per-step pass (results, collision steps and fork snapshots:
# approach and retreat, a switching nearest obstacle, positions
# inside the held band, contact on the exact step, resumed runs), and
# the drone-pair scan gate against the ungated row path on drones
# closing head-on at full speed. And it pins runs resumed from a
# clean run's fork points, which read GPS noise from the trajectory's
# shared table, to full runs that draw their own: with runs growing
# the table concurrently, in either order across its chunk ends, on
# receivers without noise or bias, and gps's table-side perceive step
# to Read. Finally it pins svg's t_clo, now computed from recorded
# positions, to the mean-distance series the simulator used to
# record, bit for bit, on collision-free clean runs. `race` already
# runs these tests too; the named target exists so the equivalence
# contract has its own CI handle and a fast local loop.
batch-equiv:
	$(GO) test -race -run '^(TestBatchPathMatchesRowPath|TestBatchPathMatchesRowPathWithDroneCollisions|TestBatchStepperMatchesSequentialRuns|TestBatchCommandsMatchesCommand|TestBatchFarthestNeighbourTies|TestClampNormMatchesReference|TestIsFiniteMatchesMath|TestBodyStepMatchesClampFormula|TestObstacleGatesMatchExact|TestDeferredClearanceMatchesEager|TestPairScanGateHeadOn|TestPrefixResumeConcurrent|TestNoiseTableOrderIndependence|TestPrefixResumeWithoutNoiseOrBias|TestPerceiveMatchesRead|TestTCloMatchesRecordedSeries)$$' \
		./internal/sim/ ./internal/flock/ ./internal/vec/ ./internal/gps/ ./internal/svg/

# check is the CI gate: vet plus gofmt plus metric-name hygiene plus
# the decide paths' bit-identity pins plus the full test suite under the race
# detector (the campaign engine's worker pool and the serving daemon's
# job queue must stay race-clean; `race` covers internal/serve too),
# plus the multi-process fabric smoke, plus the campaign-cell
# benchmark's output check against its stored references.
check: build vet fmt metrics-lint batch-equiv race fabric-smoke cellbench-smoke

# fuzz-smoke runs the native Go fuzz targets for inputs that can come
# from a client, a worker or a torn disk, 10 s each. The flight-log and
# atlas readers must never panic and must accept every prefix of an
# input they accept (for the atlas, every prefix that keeps the header
# line). The span-trace reader must never panic, must read every prefix
# cut at a newline as a prefix of the whole input's spans, and must
# read back what the trace writer wrote. JobSpec decode must never
# panic, Normalize must be idempotent, and Hash and CacheKey must
# survive normalization. The fabric's heartbeat, complete and fail
# handlers must answer every body with 200, 400 or 410, and a body that
# names no worker must never change the live-worker set. Checkpoint
# load and cell import must never panic, must reject every strict
# prefix of a valid checkpoint, must write no file when they reject,
# and an accepted cell must re-encode to bytes that load back to the
# same cell. Minimization is capped per input so the short budget goes
# to fuzzing, not to shrinking the multi-kilobyte seed logs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFlight$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/flightlog/
	$(GO) test -run '^$$' -fuzz '^FuzzReadAtlas$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/atlas/
	$(GO) test -run '^$$' -fuzz '^FuzzReadSpans$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzFabricVerdict$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/fabric/
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpoint$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/experiments/

# The four smoke targets run the real swarmfuzz and swarmfuzzd binaries
# through the e2e package: its TestMain builds both once, each test
# boots the daemons it needs on ephemeral ports, and every child
# process is reaped when the test ends. `go test ./...` runs them too.

# serve-smoke boots a real swarmfuzzd, submits a tiny fuzz job through
# the CLI client, and asserts it finishes with a persisted report, then
# checks stats, trace, atlas, dashboard and top on a small grid job —
# the daemon/store/API/client end-to-end proof.
serve-smoke:
	$(GO) test -count=1 -run '^TestServeSmoke$$' ./e2e/

# chaos-smoke runs the same grid job on a healthy daemon and on one
# under an injected fault schedule (torn write, ENOSPC, a watchdogged
# stall) plus a pre-corrupted store, and requires byte-identical
# reports with every failure visible on /metrics. Race-detector build
# of the daemon.
chaos-smoke:
	$(GO) test -count=1 -run '^TestChaosSmoke$$' ./e2e/

# atlas-smoke proves the search atlas end to end: the golden and
# checkpoint-resume byte-identity pins, two identical CLI runs
# diffing clean, and a served grid job whose artifact frames a
# populated cell and whose XHTML page parses as strict XML.
atlas-smoke:
	$(GO) test -count=1 -run 'TestGridAtlas' ./internal/experiments/
	$(GO) test -count=1 -run 'TestObserverParallelWalkByteIdentity|TestCollector' ./internal/fuzz/ ./internal/atlas/
	$(GO) test -count=1 -run '^TestAtlasSmoke$$' ./e2e/

# fabric-smoke proves the distributed campaign fabric with real
# processes: a grid sharded across a coordinator and two workers — one
# kill -9ed mid-grid — must produce artifacts byte-identical to a
# single-node run, and resubmitting the identical spec must be served
# from the content-addressed result cache without re-simulating.
fabric-smoke:
	$(GO) test -count=1 -run '^TestFabricSmoke$$' ./e2e/

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
