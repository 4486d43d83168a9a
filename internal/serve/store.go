package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"swarmfuzz/internal/chaos"
	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/telemetry"
)

// Store is the daemon's disk layout. Each job owns one directory:
//
//	<dir>/jobs/<id>/spec.json        the submitted spec (immutable)
//	                status.json      the current JobStatus
//	                report.json      the result (written once, on done)
//	                events.jsonl     the job's progress event stream
//	                checkpoint/      campaign cell checkpoints
//	                flights/         flight logs and post-mortems
//	<dir>/jobs/.quarantine/<id>      job dirs found corrupt at startup
//
// spec.json, status.json and report.json are written atomically (temp
// file + rename), so a file that exists is complete: a daemon killed
// mid-write leaves either the old content or nothing, never a torn
// file. Writes additionally retry per the store's robust.Policy, so a
// transiently failing disk (the chaos injector's EIO/ENOSPC/torn
// faults, or the real thing) degrades into a short stutter instead of
// a failed job. The store survives restarts — the engine re-queues
// every job whose persisted state is queued or running, quarantining
// (not loading, not deleting) any job directory whose metadata no
// longer parses — and a resumed campaign job picks up from the
// checkpoints its interrupted run left behind.
//
// All file IO goes through a chaos.FS so the fault-injection harness
// can sit between the store and the disk; production uses chaos.OS().
type Store struct {
	dir string
	fs  chaos.FS
	rec telemetry.Recorder
	log *telemetry.Logger
}

// StoreOptions configure OpenStoreWith.
type StoreOptions struct {
	// Dir is the store root (required).
	Dir string
	// FS is the filesystem the store runs on; nil means chaos.OS().
	FS chaos.FS
	// Telemetry receives serve_io_degraded and serve_store_quarantined;
	// nil disables recording.
	Telemetry telemetry.Recorder
	// Log receives quarantine and degradation warnings; nil is silent.
	Log *telemetry.Logger
}

// storeRetry is the store's write-retry policy: three quick attempts,
// so a transient disk hiccup costs milliseconds and a real outage
// surfaces fast enough for the engine to degrade the job.
var storeRetry = robust.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond}

// OpenStoreWith opens (creating as needed) the store rooted at
// opts.Dir; the engine passes its fault injector, telemetry and logger
// through here.
func OpenStoreWith(opts StoreOptions) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("serve: empty store directory")
	}
	if opts.FS == nil {
		opts.FS = chaos.OS()
	}
	s := &Store{
		dir: opts.Dir,
		fs:  opts.FS,
		rec: telemetry.OrNop(opts.Telemetry),
		log: opts.Log,
	}
	if err := s.fs.MkdirAll(filepath.Join(opts.Dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: open store: %w", err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// JobDir returns the directory owned by the given job.
func (s *Store) JobDir(id string) string { return filepath.Join(s.dir, "jobs", id) }

// QuarantineDir returns the directory corrupt job dirs are moved to.
func (s *Store) QuarantineDir() string { return filepath.Join(s.dir, "jobs", ".quarantine") }

// CheckpointDir returns the job's campaign checkpoint directory.
func (s *Store) CheckpointDir(id string) string { return filepath.Join(s.JobDir(id), "checkpoint") }

// FlightDir returns the job's flight-log archive directory.
func (s *Store) FlightDir(id string) string { return filepath.Join(s.JobDir(id), "flights") }

// ReportPath returns the job's report file path.
func (s *Store) ReportPath(id string) string { return filepath.Join(s.JobDir(id), "report.json") }

// EventsPath returns the job's persisted event stream path.
func (s *Store) EventsPath(id string) string { return filepath.Join(s.JobDir(id), "events.jsonl") }

// TracePath returns the job's span trace path.
func (s *Store) TracePath(id string) string { return filepath.Join(s.JobDir(id), "trace.jsonl") }

// AtlasPath returns the job's search-atlas artifact path.
func (s *Store) AtlasPath(id string) string { return filepath.Join(s.JobDir(id), "atlas.jsonl") }

// ReadAtlasArtifact returns the job's search-atlas artifact bytes.
func (s *Store) ReadAtlasArtifact(id string) ([]byte, error) {
	return s.fs.ReadFile(s.AtlasPath(id))
}

// FormatID renders the canonical job id for a sequence number. Ids are
// zero-padded so lexical order is submission order.
func FormatID(n int) string { return fmt.Sprintf("j%06d", n) }

// parseID extracts the sequence number from a job id, reporting
// whether the id is canonical.
func parseID(id string) (int, bool) {
	num, ok := strings.CutPrefix(id, "j")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 || FormatID(n) != id {
		return 0, false
	}
	return n, true
}

// List returns the ids of every job in the store, in submission order.
// Unrecognised directory entries (including .quarantine) are skipped:
// the store owns only the layout it created.
func (s *Store) List() ([]string, error) {
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("serve: list jobs: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if _, ok := parseID(e.Name()); ok && e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Quarantine moves the job's directory into jobs/.quarantine/ so a
// corrupt job can never wedge the daemon or be silently dropped: the
// evidence survives for a human, the id is freed for the engine. A
// clashing quarantine name gets a numeric suffix.
func (s *Store) Quarantine(id, reason string) error {
	if err := s.fs.MkdirAll(s.QuarantineDir(), 0o755); err != nil {
		return fmt.Errorf("serve: quarantine %s: %w", id, err)
	}
	dest := filepath.Join(s.QuarantineDir(), id)
	for n := 2; ; n++ {
		if _, err := s.fs.Stat(dest); os.IsNotExist(err) {
			break
		}
		dest = filepath.Join(s.QuarantineDir(), fmt.Sprintf("%s.%d", id, n))
	}
	if err := s.fs.Rename(s.JobDir(id), dest); err != nil {
		return fmt.Errorf("serve: quarantine %s: %w", id, err)
	}
	// Leave the why next to the evidence; best-effort by design.
	note, _ := json.Marshal(map[string]string{"job": id, "reason": reason})
	_ = s.writeFileAtomic(filepath.Join(dest, "quarantine.json"), append(note, '\n'))
	s.rec.Add(MStoreQuarantined, 1)
	if s.log != nil {
		s.log.Warnf("store: quarantined job %s -> %s (%s)", id, dest, reason)
	}
	return nil
}

// RemoveJob deletes the job's directory tree (TTL garbage collection).
func (s *Store) RemoveJob(id string) error {
	return s.fs.RemoveAll(s.JobDir(id))
}

// writeJSONAtomic writes v as indented JSON to path via a temp file in
// the same directory plus an atomic rename, creating parents first.
func (s *Store) writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return s.writeFileAtomic(path, append(data, '\n'))
}

// writeFileAtomic writes data to path atomically, retrying transient
// IO failures per the store's policy. Each attempt is a fresh temp
// file, so a torn write never reaches the destination; on exhausted
// retries the failure counts as serve_io_degraded and surfaces to the
// caller, which degrades the job instead of killing it.
func (s *Store) writeFileAtomic(path string, data []byte) error {
	_, _, err := robust.Retry(context.Background(), storeRetry, func(context.Context) (struct{}, error) {
		return struct{}{}, robust.Transient(s.writeFileOnce(path, data))
	})
	if err != nil {
		s.rec.Add(MIODegraded, 1)
		if s.log != nil {
			s.log.Errorf("store: write %s failed after retries: %v", path, err)
		}
	}
	return err
}

// writeFileOnce is one temp-file + rename attempt. The temp file is
// synced before the rename, so a power cut after the rename cannot
// leave an empty or torn file at path.
func (s *Store) writeFileOnce(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// The pattern carries the destination filename so fault schedules
	// (and humans inspecting a crashed store) can tell temp files apart.
	tmp, err := s.fs.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer s.fs.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return s.fs.Rename(tmp.Name(), path)
}

// WriteSpec persists the job's spec.
func (s *Store) WriteSpec(id string, spec JobSpec) error {
	return s.writeJSONAtomic(filepath.Join(s.JobDir(id), "spec.json"), spec)
}

// ReadSpec loads the job's spec.
func (s *Store) ReadSpec(id string) (JobSpec, error) {
	var spec JobSpec
	data, err := s.fs.ReadFile(filepath.Join(s.JobDir(id), "spec.json"))
	if err != nil {
		return spec, fmt.Errorf("serve: read spec %s: %w", id, err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("serve: decode spec %s: %w", id, err)
	}
	return spec, nil
}

// WriteStatus persists the job's status.
func (s *Store) WriteStatus(st JobStatus) error {
	return s.writeJSONAtomic(filepath.Join(s.JobDir(st.ID), "status.json"), st)
}

// ReadStatus loads the job's status.
func (s *Store) ReadStatus(id string) (JobStatus, error) {
	var st JobStatus
	data, err := s.fs.ReadFile(filepath.Join(s.JobDir(id), "status.json"))
	if err != nil {
		return st, fmt.Errorf("serve: read status %s: %w", id, err)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("serve: decode status %s: %w", id, err)
	}
	return st, nil
}

// WriteReport persists the job's report bytes (already encoded with
// MarshalReport).
func (s *Store) WriteReport(id string, data []byte) error {
	return s.writeFileAtomic(s.ReportPath(id), data)
}

// ReadReport returns the job's report bytes.
func (s *Store) ReadReport(id string) ([]byte, error) {
	return s.fs.ReadFile(s.ReportPath(id))
}

// AppendEvent appends one event line to the job's persisted stream,
// retrying transient failures. Event persistence is best-effort
// durability for post-restart reads; an exhausted-retry failure counts
// as serve_io_degraded and must not fail the job, so the caller logs
// and moves on.
func (s *Store) AppendEvent(id string, data []byte) error {
	_, _, err := robust.Retry(context.Background(), storeRetry, func(context.Context) (struct{}, error) {
		return struct{}{}, robust.Transient(s.appendEventOnce(id, data))
	})
	if err != nil {
		s.rec.Add(MIODegraded, 1)
	}
	return err
}

func (s *Store) appendEventOnce(id string, data []byte) error {
	if err := s.fs.MkdirAll(s.JobDir(id), 0o755); err != nil {
		return err
	}
	f, err := s.fs.OpenFile(s.EventsPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// OpenTrace opens the job's span trace for appending; the caller owns
// the returned writer for the attempt's duration. Unlike events, spans
// stream through one open file: a span is written once, at End, and a
// job emits far more spans than events.
func (s *Store) OpenTrace(id string) (io.WriteCloser, error) {
	if err := s.fs.MkdirAll(s.JobDir(id), 0o755); err != nil {
		return nil, err
	}
	return s.fs.OpenFile(s.TracePath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// ReadTrace returns the job's persisted spans in completion order. A
// missing file is an empty trace; torn lines are skipped.
func (s *Store) ReadTrace(id string) ([]telemetry.SpanEvent, error) {
	f, err := s.fs.Open(s.TracePath(id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return telemetry.ReadSpans(f)
}

// ReadEvents returns the job's persisted events in order. Torn trailing
// lines (a crash mid-append) are skipped.
func (s *Store) ReadEvents(id string) ([]Event, error) {
	f, err := s.fs.Open(s.EventsPath(id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readEvents(f)
}

// readEvents decodes an events.jsonl stream in order, skipping lines
// that do not decode (a torn line from an append cut short).
func readEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			continue
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
