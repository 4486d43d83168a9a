// Package client is the thin typed Go client of the swarmfuzzd HTTP
// API. It speaks the wire types of internal/serve and is used by the
// daemon's own submit/status/wait subcommands, the serve smoke test
// and the end-to-end tests.
package client

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/serve"
	"swarmfuzz/internal/telemetry"
)

// Client calls one swarmfuzzd instance.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:7077".
	Base string
	// HTTP is the underlying client; nil means http.DefaultClient.
	HTTP *http.Client
}

// New returns a client for the daemon at base (scheme defaulting to
// http:// when absent).
func New(base string) *Client {
	if base != "" && !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError is the decoded {"error": ...} body of a non-2xx response.
type apiError struct {
	Status  int
	Message string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("%s (HTTP %d)", e.Message, e.Status)
}

// StatusCode returns the HTTP status of an API error, or 0 when err
// did not come from the daemon.
func StatusCode(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// do issues one request and decodes the JSON response into out (when
// non-nil), mapping non-2xx responses to *apiError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(data))
		var decoded struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &decoded) == nil && decoded.Error != "" {
			msg = decoded.Error
		}
		return &apiError{Status: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

// submitRetry paces Submit's resubmissions after transient failures.
var submitRetry = robust.Policy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}

// newIdempotencyKey returns a random client-generated key.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "" // no entropy, no dedupe — submission still works
	}
	return "ik-" + hex.EncodeToString(b[:])
}

// classifySubmit decides whether a submit failure is worth resending.
// Transport errors (connection refused/reset, a daemon mid-restart)
// and gateway errors (502/504) retry; every daemon verdict — including
// 429 backlog-full and 503 draining — is final, because the daemon saw
// the request and answered it.
func classifySubmit(err error) error {
	if err == nil {
		return nil
	}
	switch StatusCode(err) {
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		return robust.Transient(err)
	case 0:
		var ue *url.Error
		if errors.As(err, &ue) {
			return robust.Transient(err)
		}
	}
	return robust.Permanent(err)
}

// Submit enqueues a job and returns its initial status. A spec without
// an idempotency key gets a random one, and transient transport
// failures are retried under it — the daemon deduplicates a
// resubmission whose first copy actually arrived, so a retried submit
// never enqueues the job twice.
func (c *Client) Submit(ctx context.Context, spec serve.JobSpec) (serve.JobStatus, error) {
	if strings.TrimSpace(spec.IdempotencyKey) == "" {
		spec.IdempotencyKey = newIdempotencyKey()
	}
	st, _, err := robust.Retry(ctx, submitRetry, func(ctx context.Context) (serve.JobStatus, error) {
		var st serve.JobStatus
		err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
		return st, classifySubmit(err)
	})
	return st, err
}

// List returns every job's status in submission order.
func (c *Client) List(ctx context.Context) ([]serve.JobStatus, error) {
	var out []serve.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Get returns one job's status.
func (c *Client) Get(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Report returns a finished job's raw report.json bytes.
func (c *Client) Report(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/report", nil, &raw)
	return raw, err
}

// Stats returns the daemon's fleet aggregate snapshot.
func (c *Client) Stats(ctx context.Context) (serve.FleetStats, error) {
	var st serve.FleetStats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// JobStats returns one job's progress snapshot.
func (c *Client) JobStats(ctx context.Context, id string) (serve.JobProgress, error) {
	var p serve.JobProgress
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/stats", nil, &p)
	return p, err
}

// Trace returns one job's stitched span tree, in completion order.
func (c *Client) Trace(ctx context.Context, id string) ([]telemetry.SpanEvent, error) {
	var raw []byte
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &raw); err != nil {
		return nil, err
	}
	return telemetry.ReadSpans(bytes.NewReader(raw))
}

// Atlas returns a finished job's raw search-atlas artifact bytes
// (JSONL; the job must have been submitted with Atlas set).
func (c *Client) Atlas(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/atlas", nil, &raw)
	return raw, err
}

// Cancel asks the daemon to stop a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// errStopStream ends an Events subscription from inside the callback.
var errStopStream = errors.New("client: stop event stream")

// Events streams the job's events (history first, then live), calling
// fn for each. fn returning an error stops the stream; errStopStream
// (via the Wait helper) stops it without reporting an error. Events
// returns when the stream ends, fn stops it, or ctx is cancelled.
func (c *Client) Events(ctx context.Context, id string, fn func(serve.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.Base+"/v1/jobs/"+id+"/events?format=jsonl", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		msg := strings.TrimSpace(string(data))
		var decoded struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &decoded) == nil && decoded.Error != "" {
			msg = decoded.Error
		}
		return &apiError{Status: resp.StatusCode, Message: msg}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e serve.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("client: decode event: %w", err)
		}
		if err := fn(e); err != nil {
			if errors.Is(err, errStopStream) {
				return nil
			}
			return err
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

// Wait blocks until the job reaches a terminal state and returns its
// final status. It follows the event stream (falling back to polling
// when a stream drops) so waiting costs no busy loop.
func (c *Client) Wait(ctx context.Context, id string) (serve.JobStatus, error) {
	for {
		st, err := c.Get(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		err = c.Events(ctx, id, func(e serve.Event) error {
			if e.Type == "state" && e.State.Terminal() {
				return errStopStream
			}
			return nil
		})
		if err != nil && ctx.Err() != nil {
			return serve.JobStatus{}, ctx.Err()
		}
		// A drained stream without a terminal event (daemon restart,
		// re-queue) loops back to a fresh Get after a short pause.
		select {
		case <-ctx.Done():
			return serve.JobStatus{}, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}
