package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/telemetry"
)

// Options configure a Coordinator. The zero value is usable: every
// knob has a default.
type Options struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// (default 15s). Workers heartbeat at TTL/3, so a healthy worker
	// renews twice before expiry.
	LeaseTTL time.Duration
	// MaxAttempts bounds lease grants per unit (default 3): a cell
	// that keeps killing workers eventually fails the job instead of
	// cycling forever.
	MaxAttempts int
	// NoWorkerGrace fails a sharded job transiently when no worker has
	// contacted the coordinator for this long (default 1m) — the
	// engine's retry then falls back to local execution.
	NoWorkerGrace time.Duration
	// Telemetry records lease metrics; Clock overrides time.Now for
	// tests; Log receives coordination events.
	Telemetry telemetry.Recorder
	Clock     func() time.Time
	Log       *telemetry.Logger
}

// Coordinator owns the lease queue. It has no background goroutine:
// expiry sweeps run inline on every fabric HTTP request and on each
// RunJob wait tick, so an idle coordinator costs nothing.
type Coordinator struct {
	opts Options
	rec  telemetry.Recorder
	log  *telemetry.Logger

	mu                                  sync.Mutex
	queue                               []*unit          // grant order; may hold entries for settled jobs, skipped at grant
	units                               map[string]*unit // unit id → live unit (pending or leased)
	leases                              map[string]*unit // lease token → leased unit
	workers                             map[string]time.Time
	refused                             map[string]refusal
	jobs                                map[string]*fabJob
	nextLease                           uint64
	granted, expired, completed, failed int64
	lastContact                         time.Time
}

// fabJob tracks one sharded grid job. onDone runs under the job mutex,
// so cell imports are serialized per job.
type fabJob struct {
	id     string
	onDone func(CellDone) error

	mu        sync.Mutex
	remaining int
	settled   bool
	err       error
	done      chan struct{}
}

// settle resolves the job once; later verdicts are ignored.
func (j *fabJob) settle(err error) {
	j.mu.Lock()
	if !j.settled {
		j.settled = true
		j.err = err
		close(j.done)
	}
	j.mu.Unlock()
}

type unit struct {
	id      string
	job     *fabJob
	cell    Cell
	spec    json.RawMessage
	attempt int
	lease   string
	worker  string
	expiry  time.Time
}

// NewCoordinator returns a coordinator with defaults applied.
func NewCoordinator(opts Options) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.NoWorkerGrace <= 0 {
		opts.NoWorkerGrace = time.Minute
	}
	return &Coordinator{
		opts:    opts,
		rec:     telemetry.OrNop(opts.Telemetry),
		log:     opts.Log,
		units:   map[string]*unit{},
		leases:  map[string]*unit{},
		workers: map[string]time.Time{},
		refused: map[string]refusal{},
		jobs:    map[string]*fabJob{},
	}
}

func (c *Coordinator) now() time.Time {
	if c.opts.Clock != nil {
		return c.opts.Clock()
	}
	return time.Now()
}

func unitID(job string, cell Cell) string {
	return fmt.Sprintf("%s/n%d_d%g", job, cell.SwarmSize, cell.SpoofDistance)
}

// RunJob shards one grid job: it queues a unit per cell, invokes
// onDone for every completed cell (serialized per job; an onDone error
// drops that cell — the caller's local fallback recomputes it), and
// returns when every cell settled, a unit failed terminally, or ctx
// ended. The error carries the robust taxonomy: lease exhaustion and
// worker desertion are transient (a retry may succeed locally),
// worker-reported permanent errors stay permanent.
func (c *Coordinator) RunJob(ctx context.Context, jobID string, spec json.RawMessage, cells []Cell, onDone func(CellDone) error) error {
	if len(cells) == 0 {
		return nil
	}
	j := &fabJob{id: jobID, onDone: onDone, remaining: len(cells), done: make(chan struct{})}
	c.mu.Lock()
	if _, exists := c.jobs[jobID]; exists {
		c.mu.Unlock()
		return fmt.Errorf("fabric: job %s is already sharded", jobID)
	}
	c.jobs[jobID] = j
	for _, cell := range cells {
		u := &unit{id: unitID(jobID, cell), job: j, cell: cell, spec: spec}
		c.units[u.id] = u
		c.queue = append(c.queue, u)
	}
	start := c.now()
	c.gaugesLocked()
	c.mu.Unlock()
	c.log.Infof("fabric: job %s: queued %d cell unit(s)", jobID, len(cells))

	defer func() {
		// Detach the job however it ended: orphan its units so a late
		// worker's complete/fail gets a lease-gone conflict instead of
		// mutating a finished job.
		c.mu.Lock()
		delete(c.jobs, jobID)
		for id, u := range c.units {
			if u.job == j {
				delete(c.units, id)
			}
		}
		for lease, u := range c.leases {
			if u.job == j {
				delete(c.leases, lease)
			}
		}
		c.gaugesLocked()
		c.mu.Unlock()
	}()

	tick := c.opts.LeaseTTL / 4
	if tick < 25*time.Millisecond {
		tick = 25 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-j.done:
			j.mu.Lock()
			err := j.err
			j.mu.Unlock()
			return err
		case <-t.C:
			c.sweep()
			c.checkDeserted(j, start)
		}
	}
}

// sweep expires lapsed leases: the unit returns to the queue, or —
// out of attempts — fails its job transiently (the worker pool is
// unhealthy, not the work).
func (c *Coordinator) sweep() {
	now := c.now()
	type expiry struct {
		j       *fabJob
		unitID  string
		attempt int
		requeue bool
	}
	var lapsed []expiry
	c.mu.Lock()
	for lease, u := range c.leases {
		if now.Before(u.expiry) {
			continue
		}
		delete(c.leases, lease)
		u.lease, u.worker = "", ""
		c.expired++
		e := expiry{j: u.job, unitID: u.id, attempt: u.attempt}
		if u.attempt < c.opts.MaxAttempts {
			e.requeue = true
			c.queue = append(c.queue, u)
		} else {
			delete(c.units, u.id)
		}
		lapsed = append(lapsed, e)
	}
	if len(lapsed) > 0 {
		c.gaugesLocked()
	}
	c.mu.Unlock()
	for _, e := range lapsed {
		c.rec.Add(MLeasesExpired, 1)
		if e.requeue {
			c.log.Warnf("fabric: unit %s: lease expired (attempt %d), re-queued", e.unitID, e.attempt)
			continue
		}
		c.log.Warnf("fabric: unit %s: lease expired on final attempt %d, failing job", e.unitID, e.attempt)
		e.j.settle(robust.Transient(fmt.Errorf("fabric: unit %s: lease expired after %d attempt(s): %w",
			e.unitID, e.attempt, robust.ErrDeadline)))
	}
}

// checkDeserted fails j transiently when no worker has contacted the
// coordinator since the later of job start and last contact, for
// longer than the grace period — the engine's transient retry then
// runs the grid locally instead of waiting forever.
func (c *Coordinator) checkDeserted(j *fabJob, start time.Time) {
	c.mu.Lock()
	last := c.lastContact
	c.mu.Unlock()
	if last.Before(start) {
		last = start
	}
	if silent := c.now().Sub(last); silent > c.opts.NoWorkerGrace {
		j.settle(robust.Transient(fmt.Errorf("fabric: no worker contact for %s: %w",
			silent.Round(time.Second), robust.ErrDeadline)))
	}
}

// LiveWorkers counts workers seen within the liveness window, three
// lease TTLs. The engine shards a grid only when this is positive.
func (c *Coordinator) LiveWorkers() int {
	cutoff := c.now().Add(-3 * c.opts.LeaseTTL)
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for id, seen := range c.workers {
		if seen.Before(cutoff) {
			delete(c.workers, id)
			continue
		}
		n++
	}
	return n
}

// Status snapshots the coordinator for GET /fabric/v1/status.
func (c *Coordinator) Status() Status {
	cutoff := c.now().Add(-3 * c.opts.LeaseTTL)
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ActiveJobs:      len(c.jobs),
		LeasesGranted:   c.granted,
		LeasesExpired:   c.expired,
		LeasesCompleted: c.completed,
		LeasesFailed:    c.failed,
	}
	for id, seen := range c.workers {
		if !seen.Before(cutoff) {
			st.Workers = append(st.Workers, id)
		}
	}
	sort.Strings(st.Workers)
	st.LiveWorkers = len(st.Workers)
	for id, r := range c.refused {
		if r.seen.Before(cutoff) {
			delete(c.refused, id)
			continue
		}
		st.Refused = append(st.Refused, Refusal{Worker: id, GOARCH: r.arch, Reason: r.reason()})
	}
	sort.Slice(st.Refused, func(a, b int) bool { return st.Refused[a].Worker < st.Refused[b].Worker })
	for _, u := range c.units {
		if u.lease == "" {
			st.Pending++
		} else {
			st.Leased++
		}
	}
	return st
}

// gaugesLocked refreshes the pending/live gauges; callers hold c.mu.
func (c *Coordinator) gaugesLocked() {
	pending := 0
	for _, u := range c.units {
		if u.lease == "" {
			pending++
		}
	}
	c.rec.Set(MUnitsPending, float64(pending))
	cutoff := c.now().Add(-3 * c.opts.LeaseTTL)
	live := 0
	for _, seen := range c.workers {
		if !seen.Before(cutoff) {
			live++
		}
	}
	c.rec.Set(MWorkersLive, float64(live))
}

// refusal records a worker refused for its GOARCH, and when.
type refusal struct {
	arch string
	seen time.Time
}

func (r refusal) reason() string {
	if r.arch == "" {
		return fmt.Sprintf("fabric: worker reported no GOARCH; the coordinator leases only to %s workers", runtime.GOARCH)
	}
	return fmt.Sprintf("fabric: worker GOARCH %s differs from the coordinator's %s, so its cells could differ in the last bit",
		r.arch, runtime.GOARCH)
}

// admitLocked reports whether a worker reporting GOARCH arch may take
// or renew a lease: only a worker built for the coordinator's own
// architecture may. A refused worker is dropped from the live set and
// listed in Status; callers hold c.mu.
func (c *Coordinator) admitLocked(id, arch string) (refusal, bool) {
	if arch == runtime.GOARCH {
		delete(c.refused, id)
		return refusal{}, true
	}
	r := refusal{arch: arch, seen: c.now()}
	c.refused[id] = r
	delete(c.workers, id)
	return r, false
}

func (c *Coordinator) touchWorkerLocked(id string) {
	now := c.now()
	c.workers[id] = now
	c.lastContact = now
}

// Register mounts the fabric endpoints on mux.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("/fabric/v1/lease", c.handleLease)
	mux.HandleFunc("/fabric/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/fabric/v1/complete", c.handleComplete)
	mux.HandleFunc("/fabric/v1/fail", c.handleFail)
	mux.HandleFunc("/fabric/v1/status", c.handleStatus)
}

func writeFabricJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, _ := json.Marshal(v)
	w.Write(append(data, '\n'))
}

func writeFabricError(w http.ResponseWriter, status int, msg string) {
	writeFabricJSON(w, status, map[string]string{"error": msg})
}

func decodeFabricBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeFabricError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(v); err != nil {
		writeFabricError(w, http.StatusBadRequest, "fabric: decode request: "+err.Error())
		return false
	}
	return true
}

// requireWorker answers 400 when a request names no worker. It runs
// before any handler touches the worker table: registering the empty
// id would count a phantom live worker and postpone the desertion
// check.
func requireWorker(w http.ResponseWriter, worker, what string) bool {
	if worker == "" {
		writeFabricError(w, http.StatusBadRequest, "fabric: "+what+" needs a worker id")
		return false
	}
	return true
}

type leaseRequest struct {
	Worker string `json:"worker"`
	GOARCH string `json:"goarch"`
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeFabricBody(w, r, &req) || !requireWorker(w, req.Worker, "lease") {
		return
	}
	c.sweep() // a dead worker's unit must be re-grantable right now
	c.mu.Lock()
	if r, ok := c.admitLocked(req.Worker, req.GOARCH); !ok {
		c.gaugesLocked()
		c.mu.Unlock()
		c.log.Warnf("fabric: lease refused to %s: %s", req.Worker, r.reason())
		writeFabricError(w, http.StatusForbidden, r.reason())
		return
	}
	c.touchWorkerLocked(req.Worker)
	var u *unit
	for len(c.queue) > 0 {
		head := c.queue[0]
		c.queue = c.queue[1:]
		// Skip queue entries whose unit was settled or re-leased since
		// they were appended.
		if live, ok := c.units[head.id]; ok && live == head && head.lease == "" {
			u = head
			break
		}
	}
	if u == nil {
		c.gaugesLocked()
		c.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	c.nextLease++
	u.lease = fmt.Sprintf("L%d", c.nextLease)
	u.worker = req.Worker
	u.attempt++
	u.expiry = c.now().Add(c.opts.LeaseTTL)
	c.leases[u.lease] = u
	c.granted++
	out := Unit{
		Job:        u.job.id,
		Unit:       u.id,
		Lease:      u.lease,
		Cell:       u.cell,
		Spec:       u.spec,
		Attempt:    u.attempt,
		TTLSeconds: c.opts.LeaseTTL.Seconds(),
	}
	c.gaugesLocked()
	c.mu.Unlock()
	c.rec.Add(MLeasesGranted, 1)
	c.log.Infof("fabric: unit %s leased to %s (attempt %d)", out.Unit, req.Worker, out.Attempt)
	writeFabricJSON(w, http.StatusOK, out)
}

type heartbeatRequest struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
	GOARCH string `json:"goarch"`
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeFabricBody(w, r, &req) || !requireWorker(w, req.Worker, "heartbeat") {
		return
	}
	c.mu.Lock()
	// A refused worker's lease is not renewed; it expires and the unit
	// returns to the queue.
	_, admitted := c.admitLocked(req.Worker, req.GOARCH)
	if admitted {
		c.touchWorkerLocked(req.Worker)
	}
	u, ok := c.leases[req.Lease]
	ok = ok && admitted
	if ok {
		u.expiry = c.now().Add(c.opts.LeaseTTL)
	}
	c.mu.Unlock()
	if !ok {
		// Gone: expired (and possibly re-assigned), or the worker was
		// refused. The worker must abandon the unit.
		writeFabricError(w, http.StatusGone, "fabric: lease not held")
		return
	}
	writeFabricJSON(w, http.StatusOK, map[string]float64{"ttl_seconds": c.opts.LeaseTTL.Seconds()})
}

type completeRequest struct {
	Worker string     `json:"worker"`
	Lease  string     `json:"lease"`
	Output CellOutput `json:"output"`
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decodeFabricBody(w, r, &req) || !requireWorker(w, req.Worker, "complete") {
		return
	}
	c.sweep()
	c.mu.Lock()
	c.touchWorkerLocked(req.Worker)
	u, ok := c.leases[req.Lease]
	if !ok {
		c.mu.Unlock()
		// The lease lapsed and the unit moved on; this result is
		// dropped. Cells are deterministic, so whichever worker's
		// verdict lands first is the same cell.
		writeFabricError(w, http.StatusGone, "fabric: lease not held; result discarded")
		return
	}
	delete(c.leases, req.Lease)
	delete(c.units, u.id)
	j, attempt := u.job, u.attempt
	c.completed++
	c.gaugesLocked()
	c.mu.Unlock()
	c.rec.Add(MLeasesCompleted, 1)

	j.mu.Lock()
	if !j.settled {
		if err := j.onDone(CellDone{Cell: u.cell, Output: req.Output, Worker: req.Worker, Attempt: attempt}); err != nil {
			// The cell is consumed but not merged; the caller's local
			// pass recomputes it from scratch.
			c.log.Warnf("fabric: job %s: merge cell n%d d%g: %v (cell will be recomputed locally)",
				j.id, u.cell.SwarmSize, u.cell.SpoofDistance, err)
		}
		j.remaining--
		if j.remaining == 0 {
			j.settled = true
			close(j.done)
		}
	}
	j.mu.Unlock()
	c.log.Infof("fabric: unit %s completed by %s", u.id, req.Worker)
	writeFabricJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

type failRequest struct {
	Worker    string `json:"worker"`
	Lease     string `json:"lease"`
	Error     string `json:"error"`
	Transient bool   `json:"transient"`
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req failRequest
	if !decodeFabricBody(w, r, &req) || !requireWorker(w, req.Worker, "fail") {
		return
	}
	c.mu.Lock()
	c.touchWorkerLocked(req.Worker)
	u, ok := c.leases[req.Lease]
	if !ok {
		c.mu.Unlock()
		writeFabricError(w, http.StatusGone, "fabric: lease not held")
		return
	}
	delete(c.leases, req.Lease)
	u.lease, u.worker = "", ""
	c.failed++
	requeue := req.Transient && u.attempt < c.opts.MaxAttempts
	if requeue {
		c.queue = append(c.queue, u)
	} else {
		delete(c.units, u.id)
	}
	c.gaugesLocked()
	c.mu.Unlock()
	c.rec.Add(MLeasesFailed, 1)
	if requeue {
		c.log.Warnf("fabric: unit %s failed transiently on %s (attempt %d): %s — re-queued",
			u.id, req.Worker, u.attempt, req.Error)
	} else {
		base := fmt.Errorf("fabric: unit %s failed on worker %s (attempt %d): %s",
			u.id, req.Worker, u.attempt, req.Error)
		if req.Transient {
			u.job.settle(robust.Transient(fmt.Errorf("%w: %w", base, robust.ErrDeadline)))
		} else {
			u.job.settle(robust.Permanent(base))
		}
	}
	writeFabricJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeFabricError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	c.sweep()
	writeFabricJSON(w, http.StatusOK, c.Status())
}
