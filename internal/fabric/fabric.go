// Package fabric is the distributed campaign fabric: it shards a grid
// job's cells across worker daemons and deduplicates repeat
// submissions through a content-addressed result cache.
//
// The sharding protocol is lease-based, in the SwarmRaft spirit of
// heartbeat-governed coordination for swarm workloads. A coordinator
// holds a queue of cell work-units; workers poll POST
// /fabric/v1/lease for a unit, renew their claim with POST
// /fabric/v1/heartbeat while computing it, and settle with POST
// /fabric/v1/complete (the cell's checkpoint bytes) or POST
// /fabric/v1/fail (an error classified transient or permanent via the
// internal/robust taxonomy). A worker that dies mid-cell simply stops
// heartbeating: its lease expires, the unit returns to the queue, and
// another worker picks it up. Cells are deterministic and ship in the
// checkpoint encoding, so re-assignment can never change the merged
// result — the coordinator's grid is byte-identical to a single-node
// run no matter how the cells were scattered.
//
// The cache (Cache) is a flat content-addressed store keyed by the
// normalized spec digest (serve.JobSpec.CacheKey): whoever submits an
// equivalent job — same seed, same search budget, any requester —
// gets the previously computed report bytes with zero new simulation
// steps.
package fabric

import (
	"context"
	"encoding/json"

	"swarmfuzz/internal/telemetry"
)

// Metric names. Counters register # HELP text in init; the two gauges
// are levels (unitless) and appear in scripts/metrics-allowlist.txt.
const (
	// MLeasesGranted counts cell leases handed to workers, including
	// re-grants after expiry.
	MLeasesGranted = "fabric_leases_granted_total"
	// MLeasesExpired counts leases that lapsed without a verdict — a
	// worker died or stalled past its TTL — returning the unit to the
	// queue.
	MLeasesExpired = "fabric_leases_expired_total"
	// MLeasesCompleted counts leases settled with a completed cell.
	MLeasesCompleted = "fabric_leases_completed_total"
	// MLeasesFailed counts leases settled with a worker-reported error.
	MLeasesFailed = "fabric_leases_failed_total"
	// MUnitsPending gauges cell units waiting for a worker.
	MUnitsPending = "fabric_units_pending"
	// MWorkersLive gauges workers seen within the liveness window.
	MWorkersLive = "fabric_workers_live"
	// MWorkerUnits counts units this worker process completed
	// (worker-side registry, not the coordinator's).
	MWorkerUnits = "fabric_worker_units_total"
)

func init() {
	for name, help := range map[string]string{
		MLeasesGranted:   "Cell leases granted to fabric workers, including re-grants after expiry.",
		MLeasesExpired:   "Cell leases that expired without a verdict; the unit was re-queued.",
		MLeasesCompleted: "Cell leases settled with a completed cell.",
		MLeasesFailed:    "Cell leases settled with a worker-reported error.",
		MUnitsPending:    "Cell work-units waiting for a fabric worker.",
		MWorkersLive:     "Fabric workers seen within the liveness window.",
		MWorkerUnits:     "Cell units completed by this fabric worker process.",
	} {
		telemetry.RegisterHelp(name, help)
	}
}

// Cell identifies one grid cell: the unit of distributed work.
type Cell struct {
	SwarmSize     int     `json:"swarm_size"`
	SpoofDistance float64 `json:"spoof_distance"`
}

// Unit is a leased work assignment, returned by POST /fabric/v1/lease.
type Unit struct {
	// Job is the coordinator's job identifier; Unit names the cell
	// within it; Lease is the claim token every follow-up call carries.
	Job   string `json:"job"`
	Unit  string `json:"unit"`
	Lease string `json:"lease"`
	// Cell is the work itself; Spec is the job's spec document, opaque
	// to the fabric (the runner decodes it).
	Cell Cell            `json:"cell"`
	Spec json.RawMessage `json:"spec"`
	// Attempt counts lease grants for this unit, 1-based.
	Attempt int `json:"attempt"`
	// TTLSeconds is how long the lease lives between heartbeats.
	TTLSeconds float64 `json:"ttl_seconds"`
}

// CellOutput is a completed unit's payload: the cell in the
// experiments checkpoint encoding, plus its atlas fragment when the
// job records one.
type CellOutput struct {
	Cell       Cell   `json:"cell"`
	Checkpoint []byte `json:"checkpoint"`
	Atlas      []byte `json:"atlas,omitempty"`
}

// CellDone is delivered to the coordinator's per-job merge callback
// once for every completed cell.
type CellDone struct {
	Cell    Cell
	Output  CellOutput
	Worker  string
	Attempt int
}

// Runner computes one leased unit on a worker. It must honour ctx —
// the worker cancels it when the lease is lost — and may classify
// errors with robust.Transient/Permanent; unmarked errors count as
// permanent, failing the job rather than silently retrying
// deterministic work.
type Runner func(ctx context.Context, u Unit) (CellOutput, error)

// Status is the coordinator's observable state, served by GET
// /fabric/v1/status.
type Status struct {
	// LiveWorkers counts workers seen within the liveness window;
	// Workers lists their ids, sorted.
	LiveWorkers int      `json:"live_workers"`
	Workers     []string `json:"workers,omitempty"`
	// Refused lists, by worker id, the workers refused within the
	// liveness window and why. They are not counted live.
	Refused []Refusal `json:"refused,omitempty"`
	// Pending and Leased count cell units waiting and claimed.
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	// ActiveJobs counts grid jobs currently sharded over the fabric.
	ActiveJobs int `json:"active_jobs"`
	// Lease counters since the coordinator started.
	LeasesGranted   int64 `json:"leases_granted"`
	LeasesExpired   int64 `json:"leases_expired"`
	LeasesCompleted int64 `json:"leases_completed"`
	LeasesFailed    int64 `json:"leases_failed"`
}

// Refusal says why the coordinator refused a worker's lease or
// heartbeat: a worker whose GOARCH differs from the coordinator's may
// round the same cell differently (some architectures fuse x*y + z),
// so its cells would break the fabric's byte-identity.
type Refusal struct {
	Worker string `json:"worker"`
	GOARCH string `json:"goarch"`
	Reason string `json:"reason"`
}
