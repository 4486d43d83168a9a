package serve

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"swarmfuzz/internal/chaos"
	"swarmfuzz/internal/telemetry"
)

// Event is one entry of a job's progress stream, served live over
// GET /v1/jobs/{id}/events and persisted to events.jsonl. Sequence
// numbers are per-job, contiguous and stable across daemon restarts,
// so a client can resume a stream without duplicates.
type Event struct {
	// Seq orders the job's events (1-based).
	Seq int `json:"seq"`
	// Type is "state" for lifecycle transitions, "progress" for
	// counter updates.
	Type string `json:"type"`
	// State is the new lifecycle state (state events).
	State State `json:"state,omitempty"`
	// Error carries the failure of a failed transition.
	Error string `json:"error,omitempty"`
	// Counters is the job's cumulative counter snapshot (progress
	// events): missions planned/done/cracked, sim runs, checkpoints.
	Counters map[string]int64 `json:"counters,omitempty"`
	// TimeUnix is the wall-clock second the event was recorded.
	TimeUnix int64 `json:"time_unix,omitempty"`
}

// hub fans a job's events out to any number of subscribers while
// persisting them. It keeps the full in-process history so a
// subscriber arriving mid-job replays everything before going live;
// events emitted by an earlier incarnation of the daemon are read from
// the store (their seq numbers are all <= base).
type hub struct {
	id    string
	store *Store
	log   *telemetry.Logger

	mu      sync.Mutex
	base    int // events persisted by previous daemon incarnations
	history []Event
	subs    map[chan Event]struct{}
	closed  bool
}

func newHub(id string, base int, store *Store, log *telemetry.Logger) *hub {
	return &hub{id: id, base: base, store: store, log: log, subs: map[chan Event]struct{}{}}
}

// publish appends the event to the history, persists it and delivers
// it to every live subscriber. A subscriber too slow to keep up with
// its buffer is dropped (it can reconnect and replay by seq).
func (h *hub) publish(typ string, mutate func(*Event)) {
	e := Event{Type: typ, TimeUnix: time.Now().Unix()}
	if mutate != nil {
		mutate(&e)
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	e.Seq = h.base + len(h.history) + 1
	h.history = append(h.history, e)
	var dropped []chan Event
	for ch := range h.subs {
		select {
		case ch <- e:
		default:
			dropped = append(dropped, ch)
		}
	}
	for _, ch := range dropped {
		delete(h.subs, ch)
		close(ch)
	}
	h.mu.Unlock()
	if h.store != nil {
		if data, err := json.Marshal(e); err == nil {
			if err := h.store.AppendEvent(h.id, data); err != nil {
				h.log.Warnf("job %s: persist event: %v", h.id, err)
			}
		}
	}
}

// close ends the stream: subscribers drain what they have and stop.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
}

// subscribe returns the in-process history so far plus a live channel
// (nil when the stream is already closed) and an unsubscribe func.
func (h *hub) subscribe() (history []Event, live chan Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	history = append([]Event(nil), h.history...)
	if h.closed {
		return history, nil, func() {}
	}
	ch := make(chan Event, 256)
	h.subs[ch] = struct{}{}
	return history, ch, func() {
		h.mu.Lock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
		h.mu.Unlock()
	}
}

// progressCounters are the pipeline counters a job's progress events
// snapshot. Mission-level counters trigger an event; the rest ride
// along in the snapshot.
var progressCounters = map[string]bool{
	telemetry.MMissionsPlanned: true,
	telemetry.MMissionsDone:    true,
	telemetry.MMissionsCracked: true,
	telemetry.MMissionErrors:   true,
	telemetry.MSimRuns:         true,
	telemetry.MSeedsScheduled:  true,
	telemetry.MCheckpointSaves: true,
	telemetry.MCheckpointLoads: true,
}

// progressTriggers are the counter increments that emit a progress
// event. Mission completions bound the stream's volume to a few events
// per mission rather than one per simulation.
var progressTriggers = map[string]bool{
	telemetry.MMissionsPlanned: true,
	telemetry.MMissionsDone:    true,
	telemetry.MCheckpointSaves: true,
}

// jobRecorder is the telemetry.Recorder a job runs under: it forwards
// everything to the daemon's shared recorder (so /metrics aggregates
// across jobs), records counters, gauges and spans into the attempt's
// own telemetry, and publishes a progress event whenever a mission
// settles. It is also the job's liveness surface: every counter
// increment beats the stall watchdog, and the chaos harness can wedge
// the job here ("job:<counter>" stall points) to prove the watchdog
// notices.
type jobRecorder struct {
	telemetry.Recorder
	job   *telemetry.Telemetry // the attempt's registry and span stream
	hub   *hub
	beat  func()          // watchdog heartbeat; nil when the watchdog is off
	chaos *chaos.Injector // stall hook points; nil when chaos is off
	root  atomic.Uint64   // the job root span's ID, once started
}

// StartSpan implements telemetry.Recorder, routing spans into the
// job's own trace stream. The first span started (the engine's "job"
// span) becomes the trace root; later parentless spans — the campaign
// and checkpoint spans the pipeline starts with parent 0 — are
// reparented under it, which is what stitches one job's spans into a
// single tree.
func (r *jobRecorder) StartSpan(parent telemetry.SpanID, name string, attrs ...telemetry.Attr) telemetry.Span {
	if parent == 0 {
		parent = telemetry.SpanID(r.root.Load())
	}
	span := r.job.StartSpan(parent, name, attrs...)
	r.root.CompareAndSwap(0, uint64(span.ID()))
	return span
}

// Add implements telemetry.Recorder.
func (r *jobRecorder) Add(name string, delta int64) {
	if r.chaos != nil {
		// Stall before the heartbeat: an injected wedge must look like
		// silence to the watchdog, not like one last sign of life.
		r.chaos.Stall("job:" + name)
	}
	if r.beat != nil {
		r.beat()
	}
	r.Recorder.Add(name, delta)
	r.job.Add(name, delta)
	if progressTriggers[name] {
		r.hub.publish("progress", func(e *Event) {
			e.Counters = r.job.Registry().Snapshot().Counters
			for k, v := range e.Counters {
				if v == 0 || !progressCounters[k] {
					delete(e.Counters, k)
				}
			}
		})
	}
}

// Set implements telemetry.Recorder, keeping the per-job value — the
// shared gauge is last-writer-wins across concurrent jobs, so a job's
// own search-progress gauges (best SPV objective) live in the
// attempt's registry.
func (r *jobRecorder) Set(name string, v float64) {
	if r.beat != nil {
		r.beat()
	}
	r.Recorder.Set(name, v)
	r.job.Set(name, v)
}

// Observe implements telemetry.Recorder; histogram samples count as
// heartbeats too.
func (r *jobRecorder) Observe(name string, v float64) {
	if r.beat != nil {
		r.beat()
	}
	r.Recorder.Observe(name, v)
}
