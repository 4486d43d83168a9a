package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"swarmfuzz/internal/chaos"
	"swarmfuzz/internal/experiments"
	"swarmfuzz/internal/fabric"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/telemetry"
)

// Daemon metric names, exposed on /metrics next to the campaign
// counters.
const (
	// MQueueDepth gauges the number of jobs waiting in the FIFO queue.
	MQueueDepth = "serve_queue_depth"
	// Per-state job gauges.
	MJobsQueued    = "serve_jobs_queued"
	MJobsRunning   = "serve_jobs_running"
	MJobsDone      = "serve_jobs_done"
	MJobsFailed    = "serve_jobs_failed"
	MJobsCancelled = "serve_jobs_cancelled"
	// MJobWallSeconds is the per-job wall-time histogram.
	MJobWallSeconds = "serve_job_wall_seconds"
	// MQueueWaitSeconds is the submit-to-dequeue latency histogram —
	// with MJobWallSeconds, the daemon's RED duration pair.
	MQueueWaitSeconds = "serve_queue_wait_seconds"
	// MJobAttempts counts job execution attempts (first runs and
	// retries alike).
	MJobAttempts = "serve_job_attempts_total"
	// MJobRetries counts re-queues after transient failures.
	MJobRetries = "serve_job_retries_total"
	// MFaultsInjected counts chaos faults fired into the store and
	// engine hook points (chaos.MFaultsInjected, re-exported so the
	// daemon's metric names live in one place).
	MFaultsInjected = chaos.MFaultsInjected
	// MStoreQuarantined counts job directories found corrupt at
	// startup and moved to jobs/.quarantine/.
	MStoreQuarantined = "serve_store_quarantined"
	// MIODegraded counts store writes that failed even after retries:
	// the job kept going, durability degraded.
	MIODegraded = "serve_io_degraded"
	// MWatchdogKills counts jobs killed by the per-job stall watchdog.
	MWatchdogKills = "serve_watchdog_kills"
	// MJobsGCed counts terminal jobs swept from the store by TTL
	// garbage collection.
	MJobsGCed = "serve_jobs_gced"
)

// robustnessCounters are pre-registered at engine creation so the
// failure-path counters are visible on /metrics as explicit zeros from
// the first scrape — an operator greps for them, not for their absence.
var robustnessCounters = []string{
	MFaultsInjected, MStoreQuarantined, MIODegraded, MWatchdogKills, MJobsGCed,
	MJobAttempts, MJobRetries,
}

// jobWallMetric names the per-kind wall-time histogram. Kind is one of
// the three validated JobSpec kinds, so the expansion set is closed:
// serve_job_{fuzz,campaign,grid}_wall_seconds.
func jobWallMetric(kind string) string { return "serve_job_" + kind + "_wall_seconds" }

func init() {
	for name, help := range map[string]string{
		MQueueDepth:                 "Jobs waiting in the FIFO queue.",
		MJobsQueued:                 "Jobs currently queued.",
		MJobsRunning:                "Jobs currently executing.",
		MJobsDone:                   "Jobs finished successfully.",
		MJobsFailed:                 "Jobs finished in failure.",
		MJobsCancelled:              "Jobs cancelled by request.",
		MJobWallSeconds:             "Per-attempt job wall time, all kinds.",
		MQueueWaitSeconds:           "Submit-to-dequeue queue wait.",
		MJobAttempts:                "Job execution attempts, first runs and retries alike.",
		MJobRetries:                 "Job re-queues after transient failures.",
		MFaultsInjected:             "Chaos faults fired into the store and engine.",
		MStoreQuarantined:           "Corrupt job directories quarantined at startup.",
		MIODegraded:                 "Store writes that failed even after retries.",
		MWatchdogKills:              "Job attempts killed by the stall watchdog.",
		MJobsGCed:                   "Terminal jobs swept by TTL garbage collection.",
		jobWallMetric(KindFuzz):     "Job wall time, fuzz jobs.",
		jobWallMetric(KindCampaign): "Job wall time, campaign jobs.",
		jobWallMetric(KindGrid):     "Job wall time, grid jobs.",
	} {
		telemetry.RegisterHelp(name, help)
	}
}

// Errors the engine maps to HTTP statuses.
var (
	// ErrBacklogFull rejects a submit when the queue is at capacity
	// (HTTP 429).
	ErrBacklogFull = errors.New("serve: job backlog full")
	// ErrDraining rejects a submit while the engine drains (HTTP 503).
	ErrDraining = errors.New("serve: daemon is draining")
	// ErrNotFound reports an unknown job id (HTTP 404).
	ErrNotFound = errors.New("serve: no such job")
	// ErrConflict reports an operation invalid in the job's current
	// state, e.g. cancelling a finished job (HTTP 409).
	ErrConflict = errors.New("serve: job state conflict")
)

// jobAttempts bounds executions per job, counting re-queues after
// transient failures (daemon restarts don't count).
const jobAttempts = 2

// Options configure an Engine.
type Options struct {
	// Store is the disk store directory (required).
	Store string
	// Workers bounds concurrent job execution; 0 means GOMAXPROCS.
	Workers int
	// Backlog bounds the number of queued jobs; a submit beyond it is
	// rejected with ErrBacklogFull. 0 means 64.
	Backlog int
	// StallTimeout kills a running job that has not heartbeat (no
	// telemetry activity) for this long: the job is cancelled with a
	// robust.ErrDeadline verdict, retried per jobAttempts, then marked
	// failed with a forensic event. 0 disables the watchdog.
	StallTimeout time.Duration
	// JobTTL garbage-collects terminal jobs this long after they
	// finished; 0 keeps jobs forever.
	JobTTL time.Duration
	// GCInterval is the TTL sweep period; 0 means 1 minute.
	GCInterval time.Duration
	// Chaos, when non-nil, injects the fault schedule into every store
	// operation and engine stall hook — the chaos harness.
	Chaos *chaos.Injector
	// Fuzzers maps spec fuzzer names to implementations; nil means the
	// built-in registry (fuzz.ByName). Tests inject stubs here.
	Fuzzers map[string]fuzz.Fuzzer
	// Fabric, when non-nil, is the distributed campaign coordinator:
	// grid jobs shard cell-by-cell across attached worker daemons
	// whenever at least one worker is live, falling back to local
	// execution otherwise. Mount its endpoints via NewServer.
	Fabric *fabric.Coordinator
	// Cache, when non-nil, is the fleet-wide content-addressed result
	// cache: a submission whose CacheKey is already stored settles
	// done instantly with the cached report, and completed cacheable
	// jobs populate it.
	Cache *fabric.Cache
	// Telemetry receives engine gauges and every job's pipeline
	// counters; nil disables recording.
	Telemetry telemetry.Recorder
	// Clock is the engine's time source (default time.Now). Tests
	// inject telemetry.FakeClock here: with one worker, every
	// timestamp, queue-wait and wall-time observation — and therefore
	// the stats API — is deterministic.
	Clock func() time.Time
	// Log receives the engine's progress lines; nil is silent.
	Log *telemetry.Logger
}

// job is the engine's in-memory view of one job. All fields are
// guarded by the engine mutex except hub, which locks itself.
type job struct {
	spec      JobSpec
	status    JobStatus
	hub       *hub
	cancel    context.CancelFunc // non-nil while running
	cancelled bool               // DELETE requested
	report    []byte             // in-memory fallback when report.json could not persist
	enqueued  time.Time          // last enqueue, for the queue-wait histogram
	queueWait float64            // seconds the last attempt waited before dequeue
	rec       *jobRecorder       // latest attempt's recorder; survives settle for /stats
}

// Engine owns the job queue, the worker pool and the store. Create it
// with NewEngine, start the workers with Start, and stop it with Drain
// (graceful) — jobs still queued or cancelled-by-drain resume when a
// new engine opens the same store.
type Engine struct {
	opts  Options
	store *Store
	log   *telemetry.Logger
	rec   telemetry.Recorder

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []string
	jobs     map[string]*job
	byKey    map[string]string // idempotency key -> job id
	nextID   int
	draining bool
	started  bool
	wg       sync.WaitGroup
}

// NewEngine opens the store, reloads every persisted job — re-queuing
// those that were queued or running when the previous daemon died —
// and returns an engine ready to Start.
func NewEngine(opts Options) (*Engine, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Backlog <= 0 {
		opts.Backlog = 64
	}
	if opts.GCInterval <= 0 {
		opts.GCInterval = time.Minute
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	rec := telemetry.OrNop(opts.Telemetry)
	var fsys chaos.FS // nil: the store runs on chaos.OS()
	if opts.Chaos != nil {
		// The engine owns metric routing: injected-fault counts must land
		// on the same /metrics as the degradation counters they explain.
		opts.Chaos.SetRecorder(rec)
		fsys = opts.Chaos.FS(nil)
	}
	store, err := OpenStoreWith(StoreOptions{
		Dir:       opts.Store,
		FS:        fsys,
		Telemetry: rec,
		Log:       opts.Log,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:  opts,
		store: store,
		log:   opts.Log,
		rec:   rec,
		jobs:  map[string]*job{},
		byKey: map[string]string{},
	}
	for _, name := range robustnessCounters {
		e.rec.Add(name, 0)
	}
	if opts.Cache != nil {
		for _, name := range cacheCounters {
			e.rec.Add(name, 0)
		}
	}
	e.cond = sync.NewCond(&e.mu)
	if err := e.reload(); err != nil {
		return nil, err
	}
	e.updateMetrics()
	return e, nil
}

// reload restores the engine's state from the store. A job directory
// whose metadata no longer parses — a torn manual edit, a bad disk, a
// version from the future — is quarantined and skipped, never a boot
// failure and never a silent skip: the daemon must come up with every
// loadable job and visible evidence of every unloadable one.
func (e *Engine) reload() error {
	ids, err := e.store.List()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if n, ok := parseID(id); ok && n >= e.nextID {
			// Quarantined ids advance the counter too, so a freed id is
			// never reissued to a new submission.
			e.nextID = n + 1
		}
		spec, err := e.store.ReadSpec(id)
		var st JobStatus
		if err == nil {
			st, err = e.store.ReadStatus(id)
		}
		if err != nil {
			if qerr := e.store.Quarantine(id, err.Error()); qerr != nil {
				e.log.Errorf("job %s: corrupt and unquarantinable, skipping: %v (quarantine: %v)", id, err, qerr)
			}
			continue
		}
		events, err := e.store.ReadEvents(id)
		if err != nil {
			// Losing persisted events degrades replay, not the job.
			e.log.Warnf("job %s: read events: %v (continuing without history)", id, err)
		}
		base := 0
		if n := len(events); n > 0 {
			base = events[n-1].Seq
		}
		h := newHub(id, base, e.store, e.log)
		j := &job{spec: spec, status: st, hub: h}
		switch st.State {
		case StateQueued:
			j.enqueued = e.opts.Clock()
			e.queue = append(e.queue, id)
		case StateRunning:
			// The previous daemon died mid-job: back to the queue. The
			// job's checkpoints survive, so a campaign resumes from its
			// finished cells instead of re-fuzzing them.
			j.status.State = StateQueued
			j.status.Restarts++
			if err := e.store.WriteStatus(j.status); err != nil {
				e.log.Warnf("job %s: persist re-queue: %v (will re-queue again next restart)", id, err)
			}
			h.publish("state", func(ev *Event) { ev.State = StateQueued })
			j.enqueued = e.opts.Clock()
			e.queue = append(e.queue, id)
			e.log.Infof("job %s: interrupted by restart, re-queued (restart %d)", id, j.status.Restarts)
		default:
			h.close()
		}
		e.jobs[id] = j
		if key := spec.IdempotencyKey; key != "" {
			if _, taken := e.byKey[key]; !taken {
				e.byKey[key] = id
			}
		}
	}
	if len(e.queue) > 0 {
		e.log.Infof("store %s: %d job(s) re-queued", e.store.Dir(), len(e.queue))
	}
	return nil
}

// Start launches the worker pool. ctx cancellation force-stops the
// engine (running jobs are cancelled and re-queued); prefer Drain for
// a graceful stop.
func (e *Engine) Start(ctx context.Context) {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.baseCtx, e.baseCancel = context.WithCancel(ctx)
	e.mu.Unlock()
	go func() {
		<-e.baseCtx.Done()
		e.mu.Lock()
		e.draining = true
		e.cond.Broadcast()
		e.mu.Unlock()
	}()
	for range e.opts.Workers {
		e.wg.Add(1)
		go e.worker()
	}
	if e.opts.JobTTL > 0 {
		go e.gcLoop()
	}
	e.log.Infof("engine started: %d workers, backlog %d, store %s",
		e.opts.Workers, e.opts.Backlog, e.store.Dir())
}

// gcLoop sweeps expired terminal jobs every GCInterval until the
// engine stops.
func (e *Engine) gcLoop() {
	t := time.NewTicker(e.opts.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-e.baseCtx.Done():
			return
		case <-t.C:
			e.gcSweep(e.opts.Clock())
		}
	}
}

// gcSweep removes every terminal job that finished more than JobTTL
// ago, returning how many it collected. Queued and running jobs are
// never touched: only a settled job whose report has had its TTL of
// retrievability is garbage.
func (e *Engine) gcSweep(now time.Time) int {
	if e.opts.JobTTL <= 0 {
		return 0
	}
	cutoff := now.Add(-e.opts.JobTTL).Unix()
	e.mu.Lock()
	var expired []string
	for id, j := range e.jobs {
		if j.status.State.Terminal() && j.status.FinishedUnix > 0 && j.status.FinishedUnix <= cutoff {
			expired = append(expired, id)
		}
	}
	for _, id := range expired {
		j := e.jobs[id]
		delete(e.jobs, id)
		if key := j.spec.IdempotencyKey; key != "" && e.byKey[key] == id {
			delete(e.byKey, key)
		}
	}
	e.updateMetricsLocked()
	e.mu.Unlock()
	for _, id := range expired {
		if err := e.store.RemoveJob(id); err != nil {
			e.log.Warnf("gc: remove job %s: %v", id, err)
		}
		e.rec.Add(MJobsGCed, 1)
	}
	if len(expired) > 0 {
		e.log.Infof("gc: collected %d job(s) older than %v", len(expired), e.opts.JobTTL)
	}
	return len(expired)
}

// Draining reports whether the engine has stopped accepting jobs.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Drain gracefully stops the engine: intake closes immediately, then
// in-flight jobs get grace to finish; those still running afterwards
// are cancelled, which re-queues them (their campaign checkpoints make
// the eventual resume cheap). Drain returns when every worker has
// exited. Queued jobs stay queued in the store for the next start.
func (e *Engine) Drain(grace time.Duration) {
	e.mu.Lock()
	e.draining = true
	e.cond.Broadcast()
	e.mu.Unlock()

	done := make(chan struct{})
	go func() { e.wg.Wait(); close(done) }()
	if grace > 0 {
		t := time.NewTimer(grace)
		defer t.Stop()
		select {
		case <-done:
			return
		case <-t.C:
		}
	}
	e.mu.Lock()
	for id, j := range e.jobs {
		if j.cancel != nil {
			e.log.Warnf("job %s: drain grace expired, cancelling", id)
			j.cancel()
		}
	}
	e.mu.Unlock()
	<-done
}

// Submit validates, persists and enqueues a job, returning its status.
// A spec carrying an idempotency key the engine has already accepted
// returns the existing job's status instead of enqueuing a duplicate —
// the property that makes client-side submit retries safe.
func (e *Engine) Submit(spec JobSpec) (JobStatus, error) {
	spec.Normalize()
	if err := spec.Validate(fuzzerResolver(e.opts.Fuzzers)); err != nil {
		return JobStatus{}, err
	}
	e.mu.Lock()
	if key := spec.IdempotencyKey; key != "" {
		if id, ok := e.byKey[key]; ok {
			st := e.jobs[id].status
			e.mu.Unlock()
			e.log.Infof("job %s: resubmission deduplicated (idempotency key %s)", id, key)
			return st, nil
		}
	}
	if e.draining {
		e.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	if st, hit, err := e.cacheLookup(spec); hit || err != nil {
		// cacheLookup released the lock on a hit or a hit-path error.
		return st, err
	}
	if len(e.queue) >= e.opts.Backlog {
		e.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w (%d queued)", ErrBacklogFull, len(e.queue))
	}
	id := FormatID(e.nextID)
	e.nextID++
	now := e.opts.Clock()
	st := JobStatus{
		ID: id, Kind: spec.Kind, Fuzzer: spec.Fuzzer, SpecHash: spec.Hash(),
		State: StateQueued, CreatedUnix: now.Unix(),
	}
	if err := e.store.WriteSpec(id, spec); err != nil {
		e.mu.Unlock()
		return JobStatus{}, err
	}
	if err := e.store.WriteStatus(st); err != nil {
		e.mu.Unlock()
		return JobStatus{}, err
	}
	j := &job{spec: spec, status: st, hub: newHub(id, 0, e.store, e.log), enqueued: now}
	// Publish before the job becomes visible to the workers, so its
	// stream always opens with "queued", never after "running".
	j.hub.publish("state", func(ev *Event) { ev.State = StateQueued })
	e.jobs[id] = j
	if key := spec.IdempotencyKey; key != "" {
		e.byKey[key] = id
	}
	e.queue = append(e.queue, id)
	e.cond.Signal()
	e.updateMetricsLocked()
	e.mu.Unlock()
	e.log.Infof("job %s: %s/%s queued", id, spec.Kind, spec.Fuzzer)
	return st, nil
}

// Get returns the job's current status.
func (e *Engine) Get(id string) (JobStatus, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return j.status, nil
}

// JobsPage returns up to limit statuses with ids strictly after the
// cursor, in submission order (limit 0 means no bound), plus the
// cursor for the next page ("" when this page exhausts the listing).
// The cursor is a job id, so pagination is stable under concurrent
// submissions: new jobs only ever appear after every existing cursor.
func (e *Engine) JobsPage(after string, limit int) (page []JobStatus, next string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	start := 0
	if n, ok := parseID(after); ok {
		start = n + 1
	}
	page = make([]JobStatus, 0, len(e.jobs))
	for n := start; n < e.nextID; n++ {
		j, ok := e.jobs[FormatID(n)]
		if !ok {
			continue // gc'd or quarantined id
		}
		if limit > 0 && len(page) == limit {
			return page, page[len(page)-1].ID
		}
		page = append(page, j.status)
	}
	return page, ""
}

// Report returns the job's persisted report bytes. ErrConflict means
// the job has not (or not successfully) finished.
func (e *Engine) Report(id string) ([]byte, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.status.State != StateDone {
		st := j.status.State
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: job is %s, report exists once done", ErrConflict, st)
	}
	fallback := j.report
	e.mu.Unlock()
	data, err := e.store.ReadReport(id)
	if err != nil && fallback != nil {
		// The disk lost the report (io_degraded done job): serve the
		// in-memory copy — the result outlives the write failure.
		return fallback, nil
	}
	return data, err
}

// Atlas returns the job's search-atlas artifact bytes, verbatim as the
// job recorded them. ErrConflict means the job has not finished, was
// not submitted with atlas recording enabled, or is a fuzz job whose
// mission failed its no-attack test, so no search ran.
func (e *Engine) Atlas(id string) ([]byte, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.status.State != StateDone {
		st := j.status.State
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: job is %s, atlas exists once done", ErrConflict, st)
	}
	recorded := j.spec.Atlas
	e.mu.Unlock()
	if !recorded {
		return nil, fmt.Errorf("%w: job was submitted without atlas recording", ErrConflict)
	}
	data, err := e.store.ReadAtlasArtifact(id)
	if os.IsNotExist(err) {
		if report, rerr := e.Report(id); rerr == nil && reportUnsafe(report) {
			return nil, fmt.Errorf("%w: mission failed its no-attack test, so no search ran and the job has no atlas", ErrConflict)
		}
		return nil, fmt.Errorf("%w: atlas artifact missing from the store", ErrConflict)
	}
	return data, err
}

// Cancel stops a queued or running job. Cancelling a queued job
// settles it immediately; a running one is interrupted and settles
// when its worker observes the cancellation.
func (e *Engine) Cancel(id string) (JobStatus, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if !ok {
		e.mu.Unlock()
		return JobStatus{}, ErrNotFound
	}
	switch j.status.State {
	case StateQueued:
		j.cancelled = true
		j.status.State = StateCancelled
		j.status.FinishedUnix = e.opts.Clock().Unix()
		st := j.status
		if err := e.store.WriteStatus(st); err != nil {
			e.mu.Unlock()
			return JobStatus{}, err
		}
		e.updateMetricsLocked()
		e.mu.Unlock()
		j.hub.publish("state", func(ev *Event) { ev.State = StateCancelled })
		j.hub.close()
		e.log.Infof("job %s: cancelled while queued", id)
		return st, nil
	case StateRunning:
		j.cancelled = true
		if j.cancel != nil {
			j.cancel()
		}
		st := j.status
		e.mu.Unlock()
		e.log.Infof("job %s: cancellation requested", id)
		return st, nil
	default:
		st := j.status.State
		e.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: job already %s", ErrConflict, st)
	}
}

// Subscribe returns the job's full event history so far (persisted and
// in-process, deduplicated by seq) plus a live channel (nil when the
// stream has ended) and an unsubscribe func.
func (e *Engine) Subscribe(id string) ([]Event, chan Event, func(), error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return nil, nil, nil, ErrNotFound
	}
	// Subscribe before reading the file so no event can fall between
	// the two; the seq dedupe below drops the overlap.
	history, live, cancel := j.hub.subscribe()
	persisted, err := e.store.ReadEvents(id)
	if err != nil {
		cancel()
		return nil, nil, nil, err
	}
	all := persisted
	last := 0
	if n := len(all); n > 0 {
		last = all[n-1].Seq
	}
	for _, ev := range history {
		if ev.Seq > last {
			all = append(all, ev)
			last = ev.Seq
		}
	}
	return all, live, cancel, nil
}

// fuzzerResolver maps spec fuzzer names to implementations through
// the injected registry when it is non-nil and through the built-ins
// (fuzz.ByName) otherwise. The engine and the fabric worker's
// CellRunner both resolve through it.
func fuzzerResolver(injected map[string]fuzz.Fuzzer) func(name string) (fuzz.Fuzzer, error) {
	if injected == nil {
		return fuzz.ByName
	}
	return func(name string) (fuzz.Fuzzer, error) {
		if f, ok := injected[strings.ToLower(name)]; ok {
			return f, nil
		}
		return nil, fmt.Errorf("serve: unknown fuzzer %q", name)
	}
}

// worker pulls job ids until the engine drains or force-stops.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.draining {
			e.cond.Wait()
		}
		if e.draining {
			// Draining: start no new work. Whatever is still queued
			// stays persisted for the next start.
			e.mu.Unlock()
			return
		}
		id := e.queue[0]
		e.queue = e.queue[1:]
		j := e.jobs[id]
		if j.status.State != StateQueued || j.cancelled {
			// Cancelled while queued; already settled.
			e.updateMetricsLocked()
			e.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(e.baseCtx)
		j.cancel = cancel
		j.status.State = StateRunning
		now := e.opts.Clock()
		j.status.StartedUnix = now.Unix()
		j.status.Attempts++
		if !j.enqueued.IsZero() {
			j.queueWait = now.Sub(j.enqueued).Seconds()
			e.rec.Observe(MQueueWaitSeconds, j.queueWait)
		}
		e.rec.Add(MJobAttempts, 1)
		st := j.status
		if err := e.store.WriteStatus(st); err != nil {
			e.log.Errorf("job %s: persist status: %v", id, err)
		}
		e.updateMetricsLocked()
		e.mu.Unlock()

		j.hub.publish("state", func(ev *Event) { ev.State = StateRunning })
		e.log.Infof("job %s: running (attempt %d)", id, st.Attempts)
		start := e.opts.Clock()
		report, err := e.executeWatched(ctx, cancel, id, j)
		cancel()
		e.settle(id, j, report, err, e.opts.Clock().Sub(start))
	}
}

// startTrace builds the attempt's telemetry: a fresh registry for the
// job's counters and gauges, plus a span stream appending to the
// store's trace.jsonl. Every span carries the job id as its trace ID,
// and span IDs continue past whatever an earlier attempt left in the
// file, so a retried job appends to one coherent trace instead of
// colliding with its own history. A trace that cannot open leaves the
// attempt without a span stream — observability never fails a job.
func (e *Engine) startTrace(id string) (*telemetry.Telemetry, func()) {
	base := uint64(0)
	if spans, err := e.store.ReadTrace(id); err == nil {
		for _, s := range spans {
			if s.ID > base {
				base = s.ID
			}
		}
	}
	w, err := e.store.OpenTrace(id)
	if err != nil {
		e.log.Warnf("job %s: open trace: %v (spans not recorded this attempt)", id, err)
		return telemetry.New(telemetry.NewRegistry(), nil), func() {}
	}
	tr := telemetry.New(telemetry.NewRegistry(), w)
	tr.SetClock(e.opts.Clock)
	tr.SetTraceID(id)
	tr.SetSpanBase(base)
	return tr, func() {
		if cerr := w.Close(); cerr != nil {
			e.log.Warnf("job %s: close trace: %v", id, cerr)
		}
	}
}

// executeWatched runs one job under the stall watchdog (when enabled)
// and converts a watchdog kill into a robust.ErrDeadline verdict so
// the normal transient-retry machinery handles it.
func (e *Engine) executeWatched(ctx context.Context, cancel context.CancelFunc, id string, j *job) ([]byte, error) {
	tel, closeTrace := e.startTrace(id)
	defer closeTrace()
	rec := &jobRecorder{Recorder: e.rec, job: tel, hub: j.hub, chaos: e.opts.Chaos}
	e.mu.Lock()
	j.rec = rec
	e.mu.Unlock()
	var wd *watchdog
	if e.opts.StallTimeout > 0 {
		wd = newWatchdog(e.opts.StallTimeout)
		rec.beat = wd.touch
		stop := wd.run(ctx, func() {
			e.rec.Add(MWatchdogKills, 1)
			e.log.Warnf("job %s: watchdog: no heartbeat for %v, killing this attempt", id, e.opts.StallTimeout)
			// The forensic event: what died, why, and when, persisted in
			// the job's stream before the state transition that follows.
			j.hub.publish("watchdog", func(ev *Event) {
				ev.Error = fmt.Sprintf("watchdog: no heartbeat for %v, attempt killed", e.opts.StallTimeout)
			})
			cancel()
		})
		defer stop()
	}
	report, err := e.execute(ctx, id, j.spec, rec)
	if wd != nil && wd.Stalled() && err != nil {
		err = fmt.Errorf("serve: job stalled (no heartbeat for %v): %w", e.opts.StallTimeout, robust.ErrDeadline)
	}
	return report, err
}

// settle records one execution's outcome: done with a report, failed,
// cancelled, or back to the queue (drain interruption or a transient
// failure with attempts to spare).
func (e *Engine) settle(id string, j *job, report []byte, err error, wall time.Duration) {
	e.mu.Lock()
	j.cancel = nil
	j.status.WallSeconds = wall.Seconds()
	e.rec.Observe(MJobWallSeconds, wall.Seconds())
	e.rec.Observe(jobWallMetric(j.spec.Kind), wall.Seconds())

	var state State
	var requeue bool
	switch {
	case err == nil:
		state = StateDone
	case j.cancelled:
		state = StateCancelled
	case errors.Is(err, context.Canceled):
		// Not cancelled by the user, so the engine is stopping: hand
		// the job back to the queue for the next daemon. Checkpoints
		// written so far make the resume incremental.
		state = StateQueued
		requeue = true
	case robust.IsTransient(err) && j.status.Attempts < jobAttempts:
		state = StateQueued
		requeue = true
		e.rec.Add(MJobRetries, 1)
	default:
		state = StateFailed
		j.status.Error = err.Error()
	}
	j.status.State = state
	if state.Terminal() {
		j.status.FinishedUnix = e.opts.Clock().Unix()
	}
	if state == StateDone {
		if werr := e.store.WriteReport(id, report); werr != nil {
			// The result outlives the write failure: the job stays done,
			// the report is served from the in-memory copy, and the
			// degradation is visible in the status and the event stream.
			j.report = report
			j.status.IODegraded = true
			e.log.Errorf("job %s: persist report: %v (degraded to in-memory report)", id, werr)
			// Published under e.mu, so the event is in the job's log
			// before anyone can observe the done state.
			j.hub.publish("io_degraded", func(ev *Event) {
				ev.Error = "report could not be persisted; serving the in-memory copy"
			})
		} else if e.opts.Cache != nil && j.spec.Cacheable() {
			// Cached under e.mu too, so a resubmission that sees this
			// job done also finds its result.
			e.storeCacheEntry(id, j.spec, report)
		}
	}
	if werr := e.store.WriteStatus(j.status); werr != nil {
		e.log.Errorf("job %s: persist status: %v", id, werr)
	}
	if requeue && !e.draining {
		j.enqueued = e.opts.Clock()
		e.queue = append(e.queue, id)
		e.cond.Signal()
	}
	e.updateMetricsLocked()
	draining := e.draining
	e.mu.Unlock()

	errText := ""
	if err != nil && state != StateDone {
		errText = err.Error()
	}
	j.hub.publish("state", func(ev *Event) {
		ev.State = state
		if state == StateFailed {
			ev.Error = errText
		}
	})
	if state.Terminal() {
		j.hub.close()
	}
	switch {
	case state == StateDone:
		e.log.Infof("job %s: done in %.2fs", id, wall.Seconds())
	case requeue && draining:
		e.log.Infof("job %s: interrupted by drain, re-queued", id)
	case requeue:
		e.log.Warnf("job %s: transient failure, re-queued: %v", id, err)
	default:
		e.log.Warnf("job %s: %s: %v", id, state, err)
	}
}

// execute runs one job to completion under a panic guard and returns
// its encoded report. The error is the job's verdict: nil means done.
func (e *Engine) execute(ctx context.Context, id string, spec JobSpec, rec *jobRecorder) ([]byte, error) {
	span := rec.StartSpan(0, "job",
		telemetry.KV("job", id), telemetry.KV("kind", spec.Kind), telemetry.KV("fuzzer", spec.Fuzzer))
	defer span.End()
	return robust.Guard(func() ([]byte, error) {
		fuzzer, err := fuzzerResolver(e.opts.Fuzzers)(spec.Fuzzer)
		if err != nil {
			return nil, err
		}
		switch spec.Kind {
		case KindFuzz:
			return e.runFuzz(ctx, id, spec, fuzzer, rec)
		default:
			return e.runCampaign(ctx, id, spec, fuzzer, rec)
		}
	})
}

// runFuzz executes a single-mission fuzz job through the same
// experiments.RunMission as cmd/swarmfuzz. A mission that fails its
// no-attack test is a verdict, as in the CLI: the job is done, its
// report is marked unsafe and it has no atlas. Observability never
// fails a job: an artifact that cannot be made degrades to a warning.
func (e *Engine) runFuzz(ctx context.Context, id string, spec JobSpec, fuzzer fuzz.Fuzzer,
	rec telemetry.Recorder) ([]byte, error) {
	ms := spec.MissionSpec()
	ms.Fuzz.Telemetry = rec
	if spec.Flightlog {
		ms.FlightDir = e.store.FlightDir(id)
	}
	res, err := experiments.RunMission(ctx, ms, fuzzer)
	if res.FlightErr != nil {
		e.log.Warnf("job %s: flight log: %v", id, res.FlightErr)
	}
	if res.PostmortemErr != nil {
		e.log.Warnf("job %s: post-mortem: %v", id, res.PostmortemErr)
	}
	if errors.Is(err, fuzz.ErrUnsafeMission) && res.Report != nil {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	if res.AtlasErr != nil {
		e.log.Warnf("job %s: %v (artifact not written)", id, res.AtlasErr)
	} else if res.Atlas != nil {
		if werr := e.store.writeFileAtomic(e.store.AtlasPath(id), res.Atlas); werr != nil {
			e.log.Warnf("job %s: persist atlas: %v", id, werr)
		}
	}
	return MarshalReport(NewFuzzReport(spec, res.Report))
}

// runCampaign executes a campaign or grid job through experiments.Grid
// with per-cell checkpoints inside the job directory, so interruptions
// resume instead of restarting.
func (e *Engine) runCampaign(ctx context.Context, id string, spec JobSpec, fuzzer fuzz.Fuzzer,
	rec telemetry.Recorder) ([]byte, error) {
	cfg := spec.CampaignConfig()
	cfg.Telemetry = rec
	cfg.Log = e.log
	cfg.Checkpoint = e.store.CheckpointDir(id)
	if spec.Flightlog {
		cfg.FlightDir = e.store.FlightDir(id)
	}
	if spec.Atlas {
		cfg.AtlasPath = e.store.AtlasPath(id)
	}
	if spec.Kind == KindGrid && e.opts.Fabric != nil {
		// Shard unfinished cells across the fleet; imported cells land
		// as checkpoints, and the Grid below resumes them (recomputing
		// locally whatever the fabric failed to deliver).
		if err := e.runFabric(ctx, id, spec, cfg, rec); err != nil {
			return nil, err
		}
	}
	cells, err := experiments.Grid(ctx, cfg, fuzzer)
	if err != nil {
		return nil, err
	}
	if spec.Kind == KindCampaign {
		return MarshalReport(cells[0])
	}
	return MarshalReport(cells)
}

// updateMetrics refreshes the engine gauges from current state.
func (e *Engine) updateMetrics() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.updateMetricsLocked()
}

func (e *Engine) updateMetricsLocked() {
	counts := map[State]int{}
	for _, j := range e.jobs {
		counts[j.status.State]++
	}
	e.rec.Set(MQueueDepth, float64(len(e.queue)))
	e.rec.Set(MJobsQueued, float64(counts[StateQueued]))
	e.rec.Set(MJobsRunning, float64(counts[StateRunning]))
	e.rec.Set(MJobsDone, float64(counts[StateDone]))
	e.rec.Set(MJobsFailed, float64(counts[StateFailed]))
	e.rec.Set(MJobsCancelled, float64(counts[StateCancelled]))
}
