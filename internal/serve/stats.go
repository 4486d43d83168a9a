package serve

import (
	"swarmfuzz/internal/telemetry"
)

// LatencySummary condenses one latency histogram into the percentiles
// an operator actually reads. Percentiles are derived from the fixed
// bucket bounds (HistogramSnapshot.Quantile), so they are estimates
// with bucket-resolution error — and, crucially for the golden tests,
// deterministic functions of the observation sequence.
type LatencySummary struct {
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// SumSeconds is the total observed time.
	SumSeconds float64 `json:"sum_seconds"`
	// P50, P90 and P99 are interpolated bucket quantiles, in seconds.
	P50 float64 `json:"p50_seconds"`
	P90 float64 `json:"p90_seconds"`
	P99 float64 `json:"p99_seconds"`
}

func summarize(h telemetry.HistogramSnapshot) LatencySummary {
	return LatencySummary{
		Count:      h.Count,
		SumSeconds: h.Sum,
		P50:        h.Quantile(0.50),
		P90:        h.Quantile(0.90),
		P99:        h.Quantile(0.99),
	}
}

// FleetStats is the GET /v1/stats document: the daemon's RED view —
// rate (jobs by state and kind, attempts), errors (failures, retries,
// watchdog kills, IO degradation) and duration (queue-wait and
// wall-time percentiles). Field order is fixed by this struct and map
// keys are sorted by encoding/json, so the encoding is deterministic
// for a given engine history.
type FleetStats struct {
	// TimeUnix is when the snapshot was taken, by the engine clock.
	TimeUnix int64 `json:"time_unix"`
	// Workers is the configured worker-pool size.
	Workers int `json:"workers"`
	// Draining reports whether intake has closed.
	Draining bool `json:"draining"`
	// QueueDepth is the number of jobs waiting right now.
	QueueDepth int `json:"queue_depth"`
	// JobsByState and JobsByKind count the jobs the engine knows
	// (terminal jobs age out via TTL GC).
	JobsByState map[string]int `json:"jobs_by_state"`
	JobsByKind  map[string]int `json:"jobs_by_kind"`
	// QueueWait and JobWall summarise the fleet latency histograms;
	// JobWallByKind breaks wall time down per job kind (kinds with no
	// finished attempts are omitted).
	QueueWait     LatencySummary            `json:"queue_wait"`
	JobWall       LatencySummary            `json:"job_wall"`
	JobWallByKind map[string]LatencySummary `json:"job_wall_by_kind,omitempty"`
	// Attempt and failure-path totals, from the shared registry.
	AttemptsTotal       int64 `json:"attempts_total"`
	RetriesTotal        int64 `json:"retries_total"`
	WatchdogKillsTotal  int64 `json:"watchdog_kills_total"`
	FaultsInjectedTotal int64 `json:"faults_injected_total"`
	IODegradedTotal     int64 `json:"io_degraded_total"`
	QuarantinedTotal    int64 `json:"quarantined_total"`
	GCedTotal           int64 `json:"gced_total"`
}

// Stats assembles the fleet aggregate view. reg is the registry the
// engine records into (the one handed to NewServer); nil yields the
// engine-state fields with zeroed metric aggregates.
func (e *Engine) Stats(reg *telemetry.Registry) FleetStats {
	e.mu.Lock()
	st := FleetStats{
		TimeUnix:    e.opts.Clock().Unix(),
		Workers:     e.opts.Workers,
		Draining:    e.draining,
		QueueDepth:  len(e.queue),
		JobsByState: map[string]int{},
		JobsByKind:  map[string]int{},
	}
	for _, j := range e.jobs {
		st.JobsByState[string(j.status.State)]++
		st.JobsByKind[j.spec.Kind]++
	}
	e.mu.Unlock()
	if reg == nil {
		return st
	}
	snap := reg.Snapshot()
	st.QueueWait = summarize(snap.Histograms[MQueueWaitSeconds])
	st.JobWall = summarize(snap.Histograms[MJobWallSeconds])
	for _, kind := range []string{KindFuzz, KindCampaign, KindGrid} {
		if h, ok := snap.Histograms[jobWallMetric(kind)]; ok && h.Count > 0 {
			if st.JobWallByKind == nil {
				st.JobWallByKind = map[string]LatencySummary{}
			}
			st.JobWallByKind[kind] = summarize(h)
		}
	}
	st.AttemptsTotal = snap.Counters[MJobAttempts]
	st.RetriesTotal = snap.Counters[MJobRetries]
	st.WatchdogKillsTotal = snap.Counters[MWatchdogKills]
	st.FaultsInjectedTotal = snap.Counters[MFaultsInjected]
	st.IODegradedTotal = snap.Counters[MIODegraded]
	st.QuarantinedTotal = snap.Counters[MStoreQuarantined]
	st.GCedTotal = snap.Counters[MJobsGCed]
	return st
}

// JobProgress is the GET /v1/jobs/{id}/stats document: one job's
// search-progress snapshot — the status plus every pipeline counter
// and gauge its recorder has seen (missions planned/done/cracked, sim
// runs, seeds scheduled/cracked, best SPV objective). Counters and
// gauges are empty for a job that has not run in this daemon's
// lifetime: per-job metrics are in-memory, only the trace and events
// persist.
type JobProgress struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Fuzzer string `json:"fuzzer"`
	State  State  `json:"state"`
	// Attempts and Restarts echo the status accounting.
	Attempts int `json:"attempts,omitempty"`
	Restarts int `json:"restarts,omitempty"`
	// QueueWaitSeconds is how long the latest attempt waited before a
	// worker picked it up; WallSeconds its execution wall time.
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	WallSeconds      float64 `json:"wall_seconds,omitempty"`
	// Counters and Gauges are the job's cumulative pipeline metrics.
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// JobStats returns the job's progress snapshot.
func (e *Engine) JobStats(id string) (JobProgress, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return JobProgress{}, ErrNotFound
	}
	p := JobProgress{
		ID:               j.status.ID,
		Kind:             j.status.Kind,
		Fuzzer:           j.status.Fuzzer,
		State:            j.status.State,
		Attempts:         j.status.Attempts,
		Restarts:         j.status.Restarts,
		QueueWaitSeconds: j.queueWait,
		WallSeconds:      j.status.WallSeconds,
	}
	if j.rec != nil {
		snap := j.rec.job.Registry().Snapshot()
		p.Counters, p.Gauges = snap.Counters, snap.Gauges
	}
	return p, nil
}

// Trace returns the job's persisted span tree in completion order. The
// root span (parent 0) is the engine's "job" span; every other span
// parents into it, and every span carries the job id as its trace ID.
func (e *Engine) Trace(id string) ([]telemetry.SpanEvent, error) {
	e.mu.Lock()
	_, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return e.store.ReadTrace(id)
}
