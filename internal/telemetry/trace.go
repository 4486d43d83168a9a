package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SpanID identifies a span within one trace. IDs are assigned
// sequentially from 1; 0 means "no span" (root, or tracing disabled).
type SpanID uint64

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// KV builds an Attr.
func KV(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Span is an in-flight traced operation. The zero Span is a valid
// no-op: End does nothing, ID returns 0. Spans are started via
// Recorder.StartSpan and must be ended exactly once.
type Span struct {
	t      *Telemetry
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr
}

// ID returns the span's ID, for parenting child spans.
func (s Span) ID() SpanID { return s.id }

// End finishes the span, merging extra attributes into those given at
// start, and emits one JSONL trace event.
func (s Span) End(extra ...Attr) {
	if s.t == nil {
		return
	}
	s.t.endSpan(s, extra)
}

// SpanEvent is the JSONL wire form of a finished span. Field order is
// fixed by this struct; attribute keys are sorted by encoding/json.
type SpanEvent struct {
	Type    string         `json:"type"`
	Trace   string         `json:"trace,omitempty"`
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	EndUS   int64          `json:"end_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// ReadSpans parses a JSONL trace stream back into span events. Lines
// that do not parse, or whose type is not "span", are skipped wherever
// they sit: a trace may end with a torn line after a crash, and a
// retried job appends its spans after that torn line, so a bad line in
// the middle of a served job's trace is expected, not corruption.
func ReadSpans(r io.Reader) ([]SpanEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var spans []SpanEvent
	for sc.Scan() {
		var ev SpanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Type != "span" {
			continue
		}
		spans = append(spans, ev)
	}
	return spans, sc.Err()
}

// traceWriter serialises span events onto one JSONL stream.
type traceWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (tw *traceWriter) write(ev SpanEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tw.mu.Lock()
	defer tw.mu.Unlock()
	_, err = tw.w.Write(data)
	return err
}

// FakeClock is a deterministic clock for tests: every Now call advances
// the current time by Step. It is safe for concurrent use (though only
// a serialised call order yields a deterministic trace).
type FakeClock struct {
	mu sync.Mutex
	// T is the time the next Now call returns.
	T time.Time
	// Step is added to T after every Now call.
	Step time.Duration
}

// Now returns the current fake time and advances the clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.T
	c.T = c.T.Add(c.Step)
	return t
}
