package serve

// Fabric integration: grid jobs shard cell-by-cell across attached
// worker daemons, and a content-addressed result cache serves repeat
// submissions — from any client — without re-simulating.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"swarmfuzz/internal/experiments"
	"swarmfuzz/internal/fabric"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/telemetry"
)

// Result-cache metric names.
const (
	// MCacheHits counts submissions served from the content-addressed
	// result cache: the job settled done with zero new sim steps.
	MCacheHits = "serve_cache_hits_total"
	// MCacheMisses counts cacheable submissions that had to execute.
	MCacheMisses = "serve_cache_misses_total"
	// MCacheStores counts completed reports written into the cache.
	MCacheStores = "serve_cache_stores_total"
)

func init() {
	for name, help := range map[string]string{
		MCacheHits:   "Submissions served from the content-addressed result cache.",
		MCacheMisses: "Cacheable submissions that had to execute.",
		MCacheStores: "Completed reports stored into the result cache.",
	} {
		telemetry.RegisterHelp(name, help)
	}
}

// cacheCounters are pre-registered when a cache is attached, so the
// hit/miss pair scrapes as explicit zeros from the first request.
var cacheCounters = []string{MCacheHits, MCacheMisses, MCacheStores}

// cacheLookup serves a cacheable spec from the result cache when a
// complete entry exists. Called with e.mu held; on a hit it adopts the
// lock (admitCached unlocks), on a miss the caller keeps it.
func (e *Engine) cacheLookup(spec JobSpec) (JobStatus, bool, error) {
	if e.opts.Cache == nil || !spec.Cacheable() {
		return JobStatus{}, false, nil
	}
	key := spec.CacheKey()
	ent, ok := e.opts.Cache.Get(key)
	if !ok || (spec.Atlas && ent.Atlas == nil) {
		e.rec.Add(MCacheMisses, 1)
		return JobStatus{}, false, nil
	}
	st, err := e.admitCached(spec, key, ent)
	return st, true, err
}

// admitCached creates a job directly in the done state from a cache
// entry: spec, status, report (and atlas artifact) persist exactly as
// an executed job's would, so every read path — report, atlas, events,
// dedup — behaves identically. Called with e.mu held; unlocks.
func (e *Engine) admitCached(spec JobSpec, key string, ent fabric.Entry) (JobStatus, error) {
	id := FormatID(e.nextID)
	e.nextID++
	now := e.opts.Clock()
	st := JobStatus{
		ID: id, Kind: spec.Kind, Fuzzer: spec.Fuzzer, SpecHash: spec.Hash(),
		State: StateDone, CacheHit: true,
		CreatedUnix: now.Unix(), FinishedUnix: now.Unix(),
	}
	if err := e.store.WriteSpec(id, spec); err != nil {
		e.mu.Unlock()
		return JobStatus{}, err
	}
	j := &job{spec: spec, hub: newHub(id, 0, e.store, e.log)}
	if err := e.store.WriteReport(id, ent.Report); err != nil {
		// Same degradation contract as settle: the result outlives the
		// write failure, served from memory until restart.
		j.report = ent.Report
		st.IODegraded = true
		e.log.Errorf("job %s: persist cached report: %v (degraded to in-memory report)", id, err)
	}
	if spec.Atlas {
		if err := e.store.writeFileAtomic(e.store.AtlasPath(id), ent.Atlas); err != nil {
			e.log.Warnf("job %s: persist cached atlas: %v", id, err)
		}
	}
	j.status = st
	if err := e.store.WriteStatus(st); err != nil {
		e.log.Errorf("job %s: persist status: %v", id, err)
	}
	e.jobs[id] = j
	if k := spec.IdempotencyKey; k != "" {
		e.byKey[k] = id
	}
	e.updateMetricsLocked()
	e.mu.Unlock()
	e.rec.Add(MCacheHits, 1)
	j.hub.publish("state", func(ev *Event) { ev.State = StateDone })
	j.hub.close()
	e.log.Infof("job %s: %s/%s served from result cache (key %s…)", id, spec.Kind, spec.Fuzzer, key[:12])
	return st, nil
}

// storeCacheEntry publishes a completed job's report (and atlas) into
// the result cache, best-effort: a failed store only costs a future
// miss.
func (e *Engine) storeCacheEntry(id string, spec JobSpec, report []byte) {
	ent := fabric.Entry{Report: report}
	if spec.Atlas {
		if reportUnsafe(report) {
			// The mission failed its no-attack test: no search ran, so
			// there is no atlas, and an entry without one never answers
			// an atlas spec's lookup.
			return
		}
		data, err := e.store.ReadAtlasArtifact(id)
		if err != nil {
			e.log.Warnf("job %s: cache: read atlas artifact: %v (result not cached)", id, err)
			return
		}
		ent.Atlas = data
	}
	if err := e.opts.Cache.Put(spec.CacheKey(), ent); err != nil {
		e.log.Warnf("job %s: cache store: %v", id, err)
		return
	}
	e.rec.Add(MCacheStores, 1)
}

// runFabric shards a grid job's unfinished cells across the fabric's
// live workers and imports each completed cell into the job's
// checkpoint directory. It returns nil when the grid should simply run
// locally (no workers, nothing left to do) — the caller always follows
// with experiments.Grid, which resumes the imported checkpoints and
// recomputes anything the fabric failed to deliver. Per-cell
// fabric_cell spans land under the job root span like any other child.
func (e *Engine) runFabric(ctx context.Context, id string, spec JobSpec,
	cfg experiments.Config, rec telemetry.Recorder) error {
	workers := e.opts.Fabric.LiveWorkers()
	if workers == 0 {
		e.log.Infof("job %s: no live fabric workers, running grid locally", id)
		return nil
	}
	var cells []fabric.Cell
	for _, d := range cfg.SpoofDistances {
		for _, n := range cfg.SwarmSizes {
			if !experiments.HasCheckpoint(cfg.Checkpoint, n, d) {
				cells = append(cells, fabric.Cell{SwarmSize: n, SpoofDistance: d})
			}
		}
	}
	if len(cells) == 0 {
		return nil
	}
	// Workers must not inherit the submitter's idempotency key: the
	// wire spec describes the work, not the submission.
	wire := spec
	wire.IdempotencyKey = ""
	raw, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	e.log.Infof("job %s: sharding %d cell(s) across %d fabric worker(s)", id, len(cells), workers)

	var mu sync.Mutex
	spans := make(map[fabric.Cell]telemetry.Span, len(cells))
	for _, cell := range cells {
		spans[cell] = rec.StartSpan(0, "fabric_cell",
			telemetry.KV("swarm_size", cell.SwarmSize),
			telemetry.KV("spoof_distance", cell.SpoofDistance))
	}
	err = e.opts.Fabric.RunJob(ctx, id, raw, cells, func(d fabric.CellDone) error {
		if ierr := experiments.ImportCellData(cfg.Checkpoint, d.Cell.SwarmSize, d.Cell.SpoofDistance,
			d.Output.Checkpoint, d.Output.Atlas); ierr != nil {
			return ierr
		}
		mu.Lock()
		if span, ok := spans[d.Cell]; ok {
			delete(spans, d.Cell)
			span.End(telemetry.KV("worker", d.Worker), telemetry.KV("attempt", d.Attempt))
		}
		mu.Unlock()
		return nil
	})
	mu.Lock()
	for cell, span := range spans {
		delete(spans, cell)
		span.End(telemetry.KV("completed", false))
	}
	mu.Unlock()
	if err != nil {
		return fmt.Errorf("serve: fabric grid %s: %w", id, err)
	}
	return nil
}

// CellRunnerOptions configure the runner a worker daemon executes
// leased cells with.
type CellRunnerOptions struct {
	// Fuzzers maps spec fuzzer names to implementations; nil means the
	// built-in registry (fuzz.ByName).
	Fuzzers map[string]fuzz.Fuzzer
	// Telemetry records the worker's pipeline counters; Log its
	// progress lines.
	Telemetry telemetry.Recorder
	Log       *telemetry.Logger
}

// CellRunner returns the fabric.Runner a `swarmfuzzd work` daemon
// executes leased grid cells with. The unit's JobSpec flows through
// the same CampaignConfig translation the coordinator's local path
// uses, so the returned checkpoint bytes are byte-identical to what a
// single-node run would have written.
func CellRunner(opts CellRunnerOptions) fabric.Runner {
	return func(ctx context.Context, u fabric.Unit) (fabric.CellOutput, error) {
		var spec JobSpec
		if err := json.Unmarshal(u.Spec, &spec); err != nil {
			return fabric.CellOutput{}, robust.Permanent(fmt.Errorf("serve: decode unit spec: %w", err))
		}
		spec.Normalize()
		fuzzer, err := fuzzerResolver(opts.Fuzzers)(spec.Fuzzer)
		if err != nil {
			return fabric.CellOutput{}, robust.Permanent(err)
		}
		cfg := spec.CampaignConfig()
		cfg.Telemetry = opts.Telemetry
		cfg.Log = opts.Log
		if spec.Atlas {
			// Any non-empty AtlasPath turns collection on; the path is
			// never written by RunCell — the fragment rides the wire back.
			cfg.AtlasPath = "fabric"
		}
		checkpoint, atlas, err := experiments.RunCell(ctx, cfg, fuzzer, u.Cell.SwarmSize, u.Cell.SpoofDistance)
		if err != nil {
			return fabric.CellOutput{}, err
		}
		return fabric.CellOutput{Cell: u.Cell, Checkpoint: checkpoint, Atlas: atlas}, nil
	}
}
