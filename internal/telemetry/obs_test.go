package telemetry

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

func TestQuantile(t *testing.T) {
	h := HistogramSnapshot{
		Bounds: []float64{1, 2, 4},
		Counts: []uint64{2, 2, 0, 0}, // 2 in (0,1], 2 in (1,2], none above
		Count:  4,
	}
	cases := []struct {
		q, want float64
	}{
		{0.25, 0.5}, // rank 1 of 2 in first bucket → midpoint
		{0.5, 1.0},  // rank 2 exhausts bucket 1
		{0.75, 1.5}, // rank 3: halfway through (1,2]
		{1.0, 2.0},  // rank 4 exhausts bucket 2
		{-1, 0},     // clamps low
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}

	empty := HistogramSnapshot{Bounds: []float64{1}, Counts: []uint64{0, 0}}
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}

	// Observations in the +Inf bucket clamp to the largest finite
	// bound: the result must stay JSON-encodable.
	inf := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{0, 0, 3}, Count: 3}
	if got := inf.Quantile(0.99); got != 2 {
		t.Errorf("+Inf-bucket Quantile = %v, want 2", got)
	}
	if math.IsNaN(inf.Quantile(0.5)) || math.IsInf(inf.Quantile(0.5), 0) {
		t.Fatal("Quantile produced a non-finite value")
	}
}

// TestQuantileEdgeCases pins the degenerate histogram shapes: the
// quantile must always be finite and monotone in q, because the values
// feed JSON stats documents that cannot carry NaN/Inf.
func TestQuantileEdgeCases(t *testing.T) {
	finite := func(name string, h HistogramSnapshot) {
		t.Helper()
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			got := h.Quantile(q)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("%s: Quantile(%v) = %v, want finite", name, q, got)
			}
			if got < prev-1e-12 {
				t.Fatalf("%s: Quantile(%v) = %v < Quantile at lower q (%v): not monotone", name, q, got, prev)
			}
			prev = got
		}
	}

	// Truly empty: no bounds, no counts.
	empty := HistogramSnapshot{}
	finite("empty", empty)
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %v, want 0", got)
	}

	// Single finite bucket holding everything.
	single := HistogramSnapshot{Bounds: []float64{2}, Counts: []uint64{5, 0}, Count: 5}
	finite("single-bucket", single)
	if got := single.Quantile(1); math.Abs(got-2) > 1e-9 {
		t.Errorf("single-bucket Quantile(1) = %v, want 2", got)
	}
	if got := single.Quantile(0); got < 0 || got > 2 {
		t.Errorf("single-bucket Quantile(0) = %v, want within [0,2]", got)
	}

	// Every observation in the +Inf overflow bucket: the largest
	// finite bound is the best finite statement at any q.
	overflow := HistogramSnapshot{Bounds: []float64{1, 2, 4}, Counts: []uint64{0, 0, 0, 9}, Count: 9}
	finite("all-overflow", overflow)
	if got := overflow.Quantile(1); got != 4 {
		t.Errorf("all-overflow Quantile(1) = %v, want 4", got)
	}

	// q outside [0,1] clamps rather than extrapolating.
	if got := single.Quantile(2); math.Abs(got-2) > 1e-9 {
		t.Errorf("clamped Quantile(2) = %v, want 2", got)
	}
	if got := single.Quantile(-3); got != single.Quantile(0) {
		t.Errorf("clamped Quantile(-3) = %v, want %v", got, single.Quantile(0))
	}
}

// TestWritePrometheusGolden pins the full exposition byte-for-byte,
// including # HELP lines, so format regressions are caught exactly.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MSimRuns).Add(7)
	reg.Gauge("workers").Set(4)
	reg.Histogram("wait", 0.5, 1).Observe(0.25)

	RegisterHelp("workers", "Configured worker goroutines.")
	RegisterHelp("wait", "Queue wait histogram.")

	var sb strings.Builder
	if err := reg.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP sim_runs Completed sim.Run calls, the unit of fuzzing cost.
# TYPE sim_runs counter
sim_runs 7
# HELP workers Configured worker goroutines.
# TYPE workers gauge
workers 4
# HELP wait Queue wait histogram.
# TYPE wait histogram
wait_bucket{le="0.5"} 1
wait_bucket{le="1"} 1
wait_bucket{le="+Inf"} 1
wait_sum 0.25
wait_count 1
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// spanStream is a two-span trace (a child "mission" inside a root
// "job", IDs from base 10, trace "job-1") followed by a foreign record
// and a torn trailing line.
func spanStream() string {
	var buf strings.Builder
	tel := New(NewRegistry(), &buf)
	clock := &FakeClock{T: time.Unix(100, 0), Step: time.Millisecond}
	tel.SetClock(clock.Now)
	tel.SetTraceID("job-1")
	tel.SetSpanBase(10)

	root := tel.StartSpan(0, "job", KV("kind", "fuzz"))
	child := tel.StartSpan(root.ID(), "mission")
	child.End()
	root.End()

	buf.WriteString(`{"type":"progress","x":1}` + "\n")
	buf.WriteString(`{"type":"span","id":`)
	return buf.String()
}

func TestReadSpansRoundTrip(t *testing.T) {
	// The torn trailing line and the foreign record must be skipped.
	spans, err := ReadSpans(strings.NewReader(spanStream()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Spans finish child-first.
	if spans[0].Name != "mission" || spans[1].Name != "job" {
		t.Errorf("span order = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[1].ID != 11 {
		t.Errorf("root ID = %d, want 11 (base 10 + 1)", spans[1].ID)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("child parent = %d, want %d", spans[0].Parent, spans[1].ID)
	}
	for _, s := range spans {
		if s.Trace != "job-1" {
			t.Errorf("span %q trace = %q, want job-1", s.Name, s.Trace)
		}
	}
}

// FuzzReadSpans feeds ReadSpans arbitrary bytes. It must never panic.
// The spans read from any prefix that ends at a newline must be a
// prefix of the spans read from the whole input: complete lines parse
// the same wherever the stream is cut, and bad lines are skipped
// wherever they sit (a retried job appends its spans after the torn
// last line of a killed attempt). And a span the trace writer writes,
// with a fuzzed name and ID, must read back equal.
func FuzzReadSpans(f *testing.F) {
	stream := []byte(spanStream())
	nl := bytes.IndexByte(stream, '\n')
	for _, cut := range []int{0, 1, nl, nl + 1, len(stream) / 2, len(stream) - 3, len(stream)} {
		f.Add(stream, uint(cut), "mission", uint64(11))
		f.Add(stream[:cut], uint(cut/2), "job", uint64(cut))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint, name string, id uint64) {
		all, err := ReadSpans(bytes.NewReader(data))
		if err == nil {
			k := cut % uint(len(data)+1)
			end := bytes.LastIndexByte(data[:k], '\n') + 1
			head, err := ReadSpans(bytes.NewReader(data[:end]))
			if err != nil {
				t.Fatalf("read the whole input but not its %d-byte prefix: %v", end, err)
			}
			if len(head) > len(all) {
				t.Fatalf("%d-byte prefix read %d spans, the whole input %d", end, len(head), len(all))
			}
			for i := range head {
				if !reflect.DeepEqual(head[i], all[i]) {
					t.Fatalf("%d-byte prefix read span %d as %+v, the whole input as %+v", end, i, head[i], all[i])
				}
			}
		}

		if !utf8.ValidString(name) {
			return // encoding/json rewrites invalid UTF-8, by design
		}
		ev := SpanEvent{Type: "span", Trace: "job-1", ID: id, Parent: id / 2, Name: name,
			StartUS: int64(cut), EndUS: int64(cut) + 7, DurUS: 7, Attrs: map[string]any{name: "v"}}
		var buf bytes.Buffer
		if err := (&traceWriter{w: &buf}).write(ev); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSpans(&buf)
		if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], ev) {
			t.Fatalf("wrote %+v, read back %+v (err %v)", ev, got, err)
		}
	})
}
