// Package serve is the fuzzing-as-a-service layer: a long-running
// daemon engine that accepts fuzzing and campaign jobs, runs them on a
// bounded worker pool, persists specs, statuses and reports to a
// disk-backed store, and exposes the whole lifecycle over a small HTTP
// API (see NewServer) with per-job progress streaming.
//
// The paper frames SwarmFuzz as a batch tool; the roadmap's north star
// is a production system where spoofing-parameter searches across many
// scenarios are submitted, queried and cancelled over the network.
// This package is that serving skeleton:
//
//   - Job model: JobSpec describes a single-mission fuzz run, one
//     campaign cell, or a full experiments grid; it is validated on
//     submit and translated by MissionSpec and CampaignConfig into
//     the experiments runs the CLIs make, so a job's report is
//     byte-identical to the same-seed CLI run.
//   - Lifecycle: queued → running → done | failed | cancelled. A FIFO
//     queue with a bounded backlog feeds a fixed worker pool; each
//     running job has its own cancellable context.
//   - Store: <dir>/jobs/<id>/{spec,status,report}.json plus
//     events.jsonl, a checkpoint/ directory (campaign cells, reusing
//     the experiments checkpoint machinery) and flights/ (forensics).
//     Every file is written atomically; a restarted engine re-queues
//     jobs that were queued or running when the process died, and a
//     resumed campaign picks up from its checkpointed cells.
//   - Failure semantics: worker panics and per-job errors degrade the
//     job, never the daemon; transiently-failed jobs (classified via
//     internal/robust) are re-queued a bounded number of times.
//     Draining stops intake and gives in-flight jobs a grace period to
//     finish before cancelling them back into the queue.
//   - Robustness (DESIGN.md §4.10): store writes retry transient IO
//     errors and degrade to an in-memory report (io_degraded) when the
//     disk stays broken; corrupt job dirs are quarantined at startup,
//     never a boot failure; a per-job watchdog kills attempts whose
//     telemetry heartbeat goes silent; submissions dedupe by
//     idempotency key so client retries are safe; terminal jobs are
//     TTL-garbage-collected. All store IO runs through internal/chaos'
//     FS so the deterministic fault-injection harness can sit between
//     the daemon and the disk (make chaos-smoke).
//
// Everything the engine records flows through the shared telemetry
// registry, so the daemon's /metrics endpoint exposes queue depth,
// job-state gauges and per-job wall time next to the existing
// campaign counters.
package serve

import "encoding/json"

// MarshalReport is the canonical encoding of every report the engine
// persists: indented JSON with a trailing newline, exactly what
// json.MarshalIndent produces. Tests compare report.json bytes against
// MarshalReport of a directly-computed result, so the daemon must never
// encode reports any other way.
func MarshalReport(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
