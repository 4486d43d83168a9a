package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/telemetry"
)

// WorkerOptions configure a fabric worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (required).
	Coordinator string
	// ID names the worker in leases and logs (default hostname-pid).
	ID string
	// Run computes a leased unit (required).
	Run Runner
	// Poll is the idle re-poll interval when no work is available
	// (default 500ms).
	Poll time.Duration
	// Telemetry counts completed units; Log receives lease events.
	Telemetry telemetry.Recorder
	Log       *telemetry.Logger
}

// Worker polls a coordinator for cell leases, heartbeats while
// computing, and reports verdicts. One Worker processes one unit at a
// time; run several processes (or several Workers) for parallelism —
// the whole point of the fabric is that workers are cheap to add.
type Worker struct {
	opts WorkerOptions
	base string
	rec  telemetry.Recorder
	log  *telemetry.Logger
}

// workerHTTP is every worker's client to its coordinator.
var workerHTTP = &http.Client{Timeout: 30 * time.Second}

// errLeaseGone marks a 410 from the coordinator: the lease lapsed and
// the unit no longer belongs to this worker.
var errLeaseGone = errors.New("fabric: lease gone")

// NewWorker validates options and returns a worker.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, errors.New("fabric: worker needs a coordinator URL")
	}
	if _, err := url.Parse(opts.Coordinator); err != nil {
		return nil, fmt.Errorf("fabric: coordinator URL: %w", err)
	}
	if opts.Run == nil {
		return nil, errors.New("fabric: worker needs a Runner")
	}
	if opts.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		opts.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	return &Worker{
		opts: opts,
		base: strings.TrimRight(opts.Coordinator, "/"),
		rec:  telemetry.OrNop(opts.Telemetry),
		log:  opts.Log,
	}, nil
}

// ID returns the worker's lease identity.
func (w *Worker) ID() string { return w.opts.ID }

// Run polls for leases until ctx ends. Transport errors are logged and
// retried at the poll interval — a worker outlives coordinator
// restarts. A coordinator that refuses this worker's GOARCH ends Run
// with its reason: no poll could change the answer.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		u, ok, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, errRefused) {
				return err
			}
			w.log.Warnf("fabric worker %s: lease: %v (retrying)", w.opts.ID, err)
		}
		if err != nil || !ok {
			if !sleepCtx(ctx, w.opts.Poll) {
				return ctx.Err()
			}
			continue
		}
		w.process(ctx, u)
	}
}

// process computes one leased unit under a heartbeat. A lost lease (or
// worker shutdown) cancels the unit context and reports nothing: the
// coordinator's expiry re-assigns the cell, and a stale verdict would
// be refused anyway.
func (w *Worker) process(ctx context.Context, u Unit) {
	uctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ttl := time.Duration(u.TTLSeconds * float64(time.Second))
	beat := ttl / 3
	if beat < 25*time.Millisecond {
		beat = 25 * time.Millisecond
	}
	var lost bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(beat)
		defer t.Stop()
		for {
			select {
			case <-uctx.Done():
				return
			case <-t.C:
				err := w.post(uctx, "/fabric/v1/heartbeat", heartbeatRequest{Worker: w.opts.ID, Lease: u.Lease, GOARCH: runtime.GOARCH}, nil)
				if errors.Is(err, errLeaseGone) {
					w.log.Warnf("fabric worker %s: lease %s for %s lost, abandoning", w.opts.ID, u.Lease, u.Unit)
					mu.Lock()
					lost = true
					mu.Unlock()
					cancel()
					return
				}
				if err != nil && uctx.Err() == nil {
					w.log.Warnf("fabric worker %s: heartbeat %s: %v", w.opts.ID, u.Lease, err)
				}
			}
		}
	}()

	w.log.Infof("fabric worker %s: computing %s (attempt %d)", w.opts.ID, u.Unit, u.Attempt)
	out, err := robust.Guard(func() (CellOutput, error) { return w.opts.Run(uctx, u) })
	cancel()
	wg.Wait()
	mu.Lock()
	abandoned := lost
	mu.Unlock()
	if abandoned || ctx.Err() != nil {
		return
	}
	if err != nil {
		w.report(ctx, "/fabric/v1/fail", failRequest{
			Worker:    w.opts.ID,
			Lease:     u.Lease,
			Error:     err.Error(),
			Transient: robust.IsTransient(err),
		})
		return
	}
	out.Cell = u.Cell
	w.report(ctx, "/fabric/v1/complete", completeRequest{Worker: w.opts.ID, Lease: u.Lease, Output: out})
	w.rec.Add(MWorkerUnits, 1)
}

// report delivers a verdict, retrying transport blips briefly. On
// final failure the lease simply expires and the cell is recomputed —
// correctness never depends on a verdict landing.
func (w *Worker) report(ctx context.Context, path string, body any) {
	_, _, err := robust.Retry(ctx, robust.Policy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second},
		func(ctx context.Context) (struct{}, error) {
			err := w.post(ctx, path, body, nil)
			if err != nil && !errors.Is(err, errLeaseGone) {
				err = robust.Transient(err)
			}
			return struct{}{}, err
		})
	if err != nil && !errors.Is(err, errLeaseGone) && ctx.Err() == nil {
		w.log.Warnf("fabric worker %s: %s: %v (lease will expire)", w.opts.ID, path, err)
	}
}

// lease asks for work; ok is false when the queue is empty.
func (w *Worker) lease(ctx context.Context) (Unit, bool, error) {
	var u Unit
	err := w.post(ctx, "/fabric/v1/lease", leaseRequest{Worker: w.opts.ID, GOARCH: runtime.GOARCH}, &u)
	if errors.Is(err, errNoContent) {
		return Unit{}, false, nil
	}
	if err != nil {
		return Unit{}, false, err
	}
	return u, true, nil
}

// errNoContent marks a 204 lease response: no work right now.
var errNoContent = errors.New("fabric: no work")

// errRefused marks a 403: the coordinator refuses this worker's
// GOARCH.
var errRefused = errors.New("fabric: refused by coordinator")

// post sends a JSON request to the coordinator and decodes the reply
// into out when non-nil. 410 maps to errLeaseGone, 204 to
// errNoContent, 403 to errRefused.
func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("fabric: encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := workerHTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return errNoContent
	case resp.StatusCode == http.StatusGone:
		return errLeaseGone
	case resp.StatusCode == http.StatusForbidden:
		return fmt.Errorf("%w: %s", errRefused, strings.TrimSpace(string(raw)))
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("fabric: %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("fabric: decode %s response: %w", path, err)
		}
	}
	return nil
}

// sleepCtx waits d or until ctx ends; it reports whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
