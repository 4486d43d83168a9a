package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swarmfuzz/internal/robust"
)

// testFabric stands up a coordinator behind a real HTTP server.
func testFabric(t *testing.T, opts Options) (*Coordinator, *httptest.Server) {
	t.Helper()
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 200 * time.Millisecond
	}
	if opts.NoWorkerGrace == 0 {
		opts.NoWorkerGrace = 30 * time.Second
	}
	c := NewCoordinator(opts)
	mux := http.NewServeMux()
	c.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return c, ts
}

// postJSON drives the fabric API directly, playing a raw worker.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func runJobAsync(c *Coordinator, ctx context.Context, job string, cells []Cell, onDone func(CellDone) error) chan error {
	errc := make(chan error, 1)
	go func() {
		errc <- c.RunJob(ctx, job, json.RawMessage(`{"kind":"grid"}`), cells, onDone)
	}()
	return errc
}

// Two real Workers drain a four-cell job; every cell is merged exactly
// once.
func TestWorkersDrainJob(t *testing.T) {
	c, ts := testFabric(t, Options{})
	cells := []Cell{{3, 8}, {3, 10}, {4, 8}, {4, 10}}
	var mu sync.Mutex
	got := map[Cell]int{}
	errc := runJobAsync(c, context.Background(), "j1", cells, func(d CellDone) error {
		mu.Lock()
		got[d.Cell]++
		mu.Unlock()
		return nil
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A two-party barrier: each worker's first cell waits until the
	// other worker also holds a lease, so both have leased before the
	// job can drain. Without it one worker could take all four instant
	// cells before the other's first poll, and only one would be live.
	var arrivals atomic.Int32
	bothLeased := make(chan struct{})
	for i := 0; i < 2; i++ {
		var arrive sync.Once
		runner := func(ctx context.Context, u Unit) (CellOutput, error) {
			arrive.Do(func() {
				if arrivals.Add(1) == 2 {
					close(bothLeased)
				}
			})
			select {
			case <-bothLeased:
			case <-ctx.Done():
				return CellOutput{}, ctx.Err()
			}
			return CellOutput{Checkpoint: []byte(fmt.Sprintf("n%d", u.Cell.SwarmSize))}, nil
		}
		w, err := NewWorker(WorkerOptions{Coordinator: ts.URL, ID: fmt.Sprintf("w%d", i), Run: runner, Poll: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(ctx)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job did not drain")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(cells) {
		t.Fatalf("merged %d cells, want %d: %v", len(got), len(cells), got)
	}
	for cell, n := range got {
		if n != 1 {
			t.Errorf("cell %v merged %d times", cell, n)
		}
	}
	st := c.Status()
	if st.LeasesCompleted != int64(len(cells)) || st.LiveWorkers != 2 {
		t.Errorf("status = %+v", st)
	}
}

// A lease that stops heartbeating expires and the unit is re-granted;
// a stale complete for the dead lease is refused.
func TestLeaseExpiryReassigns(t *testing.T) {
	c, ts := testFabric(t, Options{LeaseTTL: 120 * time.Millisecond})
	var mu sync.Mutex
	var merges []CellDone
	errc := runJobAsync(c, context.Background(), "j1", []Cell{{3, 10}}, func(d CellDone) error {
		mu.Lock()
		merges = append(merges, d)
		mu.Unlock()
		return nil
	})

	var first Unit
	for {
		code := postJSON(t, ts.URL+"/fabric/v1/lease", leaseRequest{Worker: "dead"}, &first)
		if code == http.StatusOK {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Never heartbeat; wait for expiry, then lease again as a healthy
	// worker.
	var second Unit
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("unit never re-granted")
		}
		code := postJSON(t, ts.URL+"/fabric/v1/lease", leaseRequest{Worker: "alive"}, &second)
		if code == http.StatusOK {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if second.Unit != first.Unit || second.Attempt != 2 {
		t.Fatalf("re-grant = %+v, first = %+v", second, first)
	}
	// The dead worker's verdict must bounce.
	if code := postJSON(t, ts.URL+"/fabric/v1/complete", completeRequest{Worker: "dead", Lease: first.Lease,
		Output: CellOutput{Checkpoint: []byte("stale")}}, nil); code != http.StatusGone {
		t.Fatalf("stale complete → %d, want 410", code)
	}
	if code := postJSON(t, ts.URL+"/fabric/v1/complete", completeRequest{Worker: "alive", Lease: second.Lease,
		Output: CellOutput{Checkpoint: []byte("fresh")}}, nil); code != http.StatusOK {
		t.Fatalf("fresh complete → %d", code)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(merges) != 1 || merges[0].Worker != "alive" || string(merges[0].Output.Checkpoint) != "fresh" {
		t.Fatalf("merges = %+v", merges)
	}
	if st := c.Status(); st.LeasesExpired != 1 || st.LeasesGranted != 2 {
		t.Errorf("status = %+v", st)
	}
}

// Exhausting lease attempts fails the job with a transient error — the
// worker pool is unhealthy, not the work.
func TestLeaseExhaustionFailsTransient(t *testing.T) {
	c, ts := testFabric(t, Options{LeaseTTL: 80 * time.Millisecond, MaxAttempts: 2})
	errc := runJobAsync(c, context.Background(), "j1", []Cell{{3, 10}}, func(CellDone) error { return nil })
	for granted := 0; granted < 2; {
		var u Unit
		if code := postJSON(t, ts.URL+"/fabric/v1/lease", leaseRequest{Worker: "flaky"}, &u); code == http.StatusOK {
			granted++
		}
		time.Sleep(15 * time.Millisecond)
	}
	select {
	case err := <-errc:
		if err == nil || !robust.IsTransient(err) || !errors.Is(err, robust.ErrDeadline) {
			t.Fatalf("err = %v, want transient deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job never failed")
	}
}

// A permanent worker-reported failure fails the job permanently; a
// transient one re-queues until attempts run out.
func TestWorkerFailVerdicts(t *testing.T) {
	c, ts := testFabric(t, Options{MaxAttempts: 2})
	errc := runJobAsync(c, context.Background(), "j1", []Cell{{3, 10}}, func(CellDone) error { return nil })
	var u Unit
	for postJSON(t, ts.URL+"/fabric/v1/lease", leaseRequest{Worker: "w"}, &u) != http.StatusOK {
		time.Sleep(10 * time.Millisecond)
	}
	// First failure is transient → re-queued.
	if code := postJSON(t, ts.URL+"/fabric/v1/fail", failRequest{Worker: "w", Lease: u.Lease,
		Error: "sim wedged", Transient: true}, nil); code != http.StatusOK {
		t.Fatalf("fail → %d", code)
	}
	for postJSON(t, ts.URL+"/fabric/v1/lease", leaseRequest{Worker: "w"}, &u) != http.StatusOK {
		time.Sleep(10 * time.Millisecond)
	}
	if u.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", u.Attempt)
	}
	// Permanent failure ends the job.
	if code := postJSON(t, ts.URL+"/fabric/v1/fail", failRequest{Worker: "w", Lease: u.Lease,
		Error: "bad spec"}, nil); code != http.StatusOK {
		t.Fatalf("fail → %d", code)
	}
	err := <-errc
	if err == nil || robust.IsTransient(err) {
		t.Fatalf("err = %v, want permanent", err)
	}
	if st := c.Status(); st.LeasesFailed != 2 {
		t.Errorf("status = %+v", st)
	}
}

// With no worker contact at all, the job fails transiently after the
// grace period instead of hanging.
func TestNoWorkerGraceFailsTransient(t *testing.T) {
	c, _ := testFabric(t, Options{LeaseTTL: 80 * time.Millisecond, NoWorkerGrace: 150 * time.Millisecond})
	errc := runJobAsync(c, context.Background(), "j1", []Cell{{3, 10}}, func(CellDone) error { return nil })
	select {
	case err := <-errc:
		if err == nil || !robust.IsTransient(err) {
			t.Fatalf("err = %v, want transient", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deserted job never failed")
	}
}

// Cancelling RunJob's context detaches the job and orphans its units.
func TestRunJobContextCancel(t *testing.T) {
	c, ts := testFabric(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := runJobAsync(c, ctx, "j1", []Cell{{3, 10}}, func(CellDone) error { return nil })
	var u Unit
	for postJSON(t, ts.URL+"/fabric/v1/lease", leaseRequest{Worker: "w"}, &u) != http.StatusOK {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// The orphaned lease is refused now.
	if code := postJSON(t, ts.URL+"/fabric/v1/complete", completeRequest{Worker: "w", Lease: u.Lease,
		Output: CellOutput{Checkpoint: []byte("x")}}, nil); code != http.StatusGone {
		t.Fatalf("orphan complete → %d, want 410", code)
	}
	if st := c.Status(); st.ActiveJobs != 0 || st.Pending != 0 || st.Leased != 0 {
		t.Errorf("status = %+v", st)
	}
}

// Killing a worker mid-cell (its context cancelled, no verdict posted)
// lets the lease expire, and a replacement worker completes the job.
func TestWorkerAbandonsLostLease(t *testing.T) {
	c, ts := testFabric(t, Options{LeaseTTL: 120 * time.Millisecond, MaxAttempts: 3})
	errc := runJobAsync(c, context.Background(), "j1", []Cell{{3, 10}}, func(CellDone) error { return nil })

	cancelled := make(chan struct{})
	slow := func(ctx context.Context, u Unit) (CellOutput, error) {
		if u.Attempt == 1 {
			<-ctx.Done()
			close(cancelled)
			return CellOutput{}, ctx.Err()
		}
		return CellOutput{Checkpoint: []byte("ok")}, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := NewWorker(WorkerOptions{Coordinator: ts.URL, ID: "w1", Run: slow, Poll: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go w.Run(ctx)
	// Wait until the runner holds the unit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := c.Status(); st.Leased == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("unit never leased")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel() // kill -9, as far as the coordinator can tell
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("runner context never cancelled")
	}
	// The lease must expire and the unit re-grant to a fresh worker.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	w2, err := NewWorker(WorkerOptions{Coordinator: ts.URL, ID: "w2", Run: slow, Poll: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go w2.Run(ctx2)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job never completed after worker death")
	}
	if st := c.Status(); st.LeasesExpired < 1 || st.LeasesCompleted != 1 {
		t.Errorf("status = %+v", st)
	}
}

// Duplicate sharding of the same job id is refused.
func TestRunJobDuplicate(t *testing.T) {
	c, _ := testFabric(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := runJobAsync(c, ctx, "j1", []Cell{{3, 10}}, func(CellDone) error { return nil })
	time.Sleep(20 * time.Millisecond)
	if err := c.RunJob(ctx, "j1", nil, []Cell{{3, 10}}, func(CellDone) error { return nil }); err == nil {
		t.Fatal("duplicate RunJob accepted")
	}
	cancel()
	<-errc
}

// RunJob with no cells is a no-op.
func TestRunJobEmpty(t *testing.T) {
	c, _ := testFabric(t, Options{})
	if err := c.RunJob(context.Background(), "j1", nil, nil, func(CellDone) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// A verdict that names no worker is refused before it touches the
// worker table: it must not count a phantom live worker.
func TestVerdictNeedsWorkerID(t *testing.T) {
	c, ts := testFabric(t, Options{})
	for _, ep := range []string{"heartbeat", "complete", "fail"} {
		if code := postJSON(t, ts.URL+"/fabric/v1/"+ep, struct{}{}, nil); code != http.StatusBadRequest {
			t.Errorf("%s without a worker id → %d, want 400", ep, code)
		}
	}
	if n := c.LiveWorkers(); n != 0 {
		t.Errorf("LiveWorkers = %d after worker-less verdicts, want 0", n)
	}
}

// FuzzFabricVerdict posts arbitrary bodies to the heartbeat, complete
// and fail handlers of a coordinator whose one unit is leased (lease
// L1, worker w). No body may panic, every answer is 200, 400 or 410,
// and a body that names no worker never changes the live-worker set.
func FuzzFabricVerdict(f *testing.F) {
	for _, seed := range []struct {
		ep   uint8 // index into paths
		body any
	}{
		{0, heartbeatRequest{Worker: "w", Lease: "L1"}},
		{1, completeRequest{Worker: "alive", Lease: "L1", Output: CellOutput{Checkpoint: []byte("fresh")}}},
		{1, completeRequest{Worker: "dead", Lease: "L9", Output: CellOutput{Checkpoint: []byte("stale")}}},
		{2, failRequest{Worker: "w", Lease: "L1", Error: "sim wedged", Transient: true}},
		{2, failRequest{Worker: "w", Lease: "L1", Error: "bad spec"}},
		{0, struct{}{}}, {1, struct{}{}}, {2, struct{}{}},
	} {
		data, err := json.Marshal(seed.body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed.ep, data)
	}
	paths := []string{"/fabric/v1/heartbeat", "/fabric/v1/complete", "/fabric/v1/fail"}
	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		c := NewCoordinator(Options{})
		mux := http.NewServeMux()
		c.Register(mux)
		post := func(path string, body []byte) int {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return rec.Code
		}
		ctx, cancel := context.WithCancel(context.Background())
		errc := runJobAsync(c, ctx, "j1", []Cell{{3, 10}}, func(CellDone) error { return nil })
		defer func() { cancel(); <-errc }()
		for post("/fabric/v1/lease", []byte(`{"worker":"w"}`)) != http.StatusOK {
			runtime.Gosched()
		}

		before := c.Status().Workers
		path := paths[int(ep)%len(paths)]
		switch code := post(path, body); code {
		case http.StatusOK, http.StatusBadRequest, http.StatusGone:
		default:
			t.Fatalf("%s → %d, want 200, 400 or 410", path, code)
		}
		// Decode the worker id the way the handlers do: the first JSON
		// value, trailing bytes ignored.
		var named struct {
			Worker string `json:"worker"`
		}
		if json.NewDecoder(bytes.NewReader(body)).Decode(&named) != nil || named.Worker == "" {
			if after := c.Status().Workers; !reflect.DeepEqual(after, before) {
				t.Fatalf("worker-less body changed the live workers from %v to %v", before, after)
			}
		}
	})
}
