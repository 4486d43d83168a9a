package fuzz

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"swarmfuzz/internal/opt"
	"swarmfuzz/internal/svg"
	"swarmfuzz/internal/telemetry"
)

// clampWorkers caps a requested speculative worker count at the
// scheduler's usable parallelism: extra workers cannot run anywhere
// and only pay goroutine/channel overhead for speculation that is
// discarded anyway. The walk's output is byte-identical at any worker
// count, so the clamp changes wall time only.
func clampWorkers(requested int) int {
	if max := runtime.GOMAXPROCS(0); requested > max {
		return max
	}
	return requested
}

// Speculative-parallel seed walk.
//
// The sequential walk tries scheduled seeds one at a time and stops at
// the first SPV (or error). The seeds are independent simulations, so
// the speculative walk runs them on a bounded worker pool — but the
// Report must stay byte-identical to the sequential one, whose
// observable state (SeedsTried, IterationsToFind, SimRuns, the first
// finding, the flight log's search trail, the trace's span order) is
// defined by the walk order. The walk therefore separates *execution*
// from *commitment*: workers record each seed's counters and search
// trail into private buffers, and fuzzWith's commit loop — the same
// one the sequential walk runs — takes the outcomes strictly in
// schedule order, so everything from seeds scheduled after the first
// committed finding or error is never replayed. Once that commit point
// is known, later in-flight searches are cancelled via the stop flag
// (their next simulation aborts), which is where the wall-clock win
// comes from: seed k+1..k+W-1 ran while seed k was still searching,
// and their speculative work is only kept when seed k turned out not
// to crack.

// recOp is one buffered telemetry mutation.
type recOp struct {
	kind byte // 'a' Add, 's' Set, 'o' Observe
	name string
	i    int64
	f    float64
}

// bufRecorder is a telemetry.Recorder that buffers counter mutations
// for in-order replay. Spans are not buffered: stage spans are created
// by the committer itself, and nothing inside a seed search opens
// spans. Now forwards to the parent so wall-time histograms keep
// measuring real durations.
type bufRecorder struct {
	parent telemetry.Recorder
	ops    []recOp
}

var _ telemetry.Recorder = (*bufRecorder)(nil)

// Now implements telemetry.Recorder.
func (b *bufRecorder) Now() time.Time { return b.parent.Now() }

// StartSpan implements telemetry.Recorder; the zero Span is a valid
// no-op span.
func (b *bufRecorder) StartSpan(telemetry.SpanID, string, ...telemetry.Attr) telemetry.Span {
	return telemetry.Span{}
}

// Add implements telemetry.Recorder.
func (b *bufRecorder) Add(name string, delta int64) {
	b.ops = append(b.ops, recOp{kind: 'a', name: name, i: delta})
}

// Set implements telemetry.Recorder.
func (b *bufRecorder) Set(name string, v float64) {
	b.ops = append(b.ops, recOp{kind: 's', name: name, f: v})
}

// Observe implements telemetry.Recorder.
func (b *bufRecorder) Observe(name string, v float64) {
	b.ops = append(b.ops, recOp{kind: 'o', name: name, f: v})
}

// replay applies the buffered mutations to rec in recording order.
func (b *bufRecorder) replay(rec telemetry.Recorder) {
	for _, op := range b.ops {
		switch op.kind {
		case 'a':
			rec.Add(op.name, op.i)
		case 's':
			rec.Set(op.name, op.f)
		case 'o':
			rec.Observe(op.name, op.f)
		}
	}
}

// seedOutcome is one worker's result for one seed, pending commitment.
// The trail buffers the seed's structured iterates for in-order replay
// into the flight log and the search observer.
type seedOutcome struct {
	iters   int
	finding *Finding
	err     error
	rec     *bufRecorder
	trail   []opt.Iterate
}

// speculate starts the speculative worker pool over seeds. next(i)
// waits for seed i's outcome and replays its buffered counters into
// rec and its search trail into the flight log and observer, so the
// caller's commit loop sees exactly what an inline search would have
// produced; it must be called for i = 0, 1, … in order. stop cancels
// the in-flight searches and waits for the pool to exit.
func speculate(in Input, opts Options, search searchFn, cr *cleanRun, seeds []svg.Seed, rec telemetry.Recorder) (next func(i int) (int, *Finding, error), stop func()) {
	workers := min(opts.SeedWorkers, len(seeds))

	var stopFlag atomic.Bool
	cancelled := func() bool { return stopFlag.Load() }
	quit := make(chan struct{})
	idxCh := make(chan int)
	outcomes := make([]chan seedOutcome, len(seeds))
	for i := range outcomes {
		outcomes[i] = make(chan seedOutcome, 1)
	}

	go func() {
		defer close(idxCh)
		for i := range seeds {
			select {
			case idxCh <- i:
			case <-quit:
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				buf := &bufRecorder{parent: rec}
				var out seedOutcome
				var trace searchTrace
				if opts.Flight != nil || opts.Observer != nil {
					trace = func(it opt.Iterate) {
						out.trail = append(out.trail, it)
					}
				}
				out.iters, out.finding, out.err = search(in, seeds[i], cr, opts, buf, trace, cancelled)
				out.rec = buf
				outcomes[i] <- out
			}
		}()
	}

	next = func(i int) (int, *Finding, error) {
		out := <-outcomes[i]
		out.rec.replay(rec)
		if trace := seedTrace(opts, seeds[i]); trace != nil {
			for _, it := range out.trail {
				trace(it)
			}
		}
		return out.iters, out.finding, out.err
	}
	stop = func() {
		stopFlag.Store(true)
		close(quit)
		wg.Wait()
	}
	return next, stop
}
