package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unicode/utf8"

	"swarmfuzz/internal/chaos"
	"swarmfuzz/internal/telemetry"
)

func TestStoreRoundTrip(t *testing.T) {
	store, err := OpenStoreWith(StoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	id := FormatID(0)
	spec := JobSpec{Kind: KindCampaign, Fuzzer: "swarmfuzz", SwarmSize: 5,
		SpoofDistance: 10, Missions: 3, BaseSeed: 1, MaxIterPerSeed: 2}
	if err := store.WriteSpec(id, spec); err != nil {
		t.Fatal(err)
	}
	st := JobStatus{ID: id, Kind: spec.Kind, Fuzzer: spec.Fuzzer,
		State: StateQueued, CreatedUnix: 42}
	if err := store.WriteStatus(st); err != nil {
		t.Fatal(err)
	}
	report := []byte("{\n  \"ok\": true\n}\n")
	if err := store.WriteReport(id, report); err != nil {
		t.Fatal(err)
	}

	gotSpec, err := store.ReadSpec(id)
	if err != nil || !reflect.DeepEqual(gotSpec, spec) {
		t.Errorf("spec round trip = %+v, %v; want %+v", gotSpec, err, spec)
	}
	gotSt, err := store.ReadStatus(id)
	if err != nil || !reflect.DeepEqual(gotSt, st) {
		t.Errorf("status round trip = %+v, %v; want %+v", gotSt, err, st)
	}
	gotReport, err := store.ReadReport(id)
	if err != nil || string(gotReport) != string(report) {
		t.Errorf("report round trip = %q, %v", gotReport, err)
	}
	ids, err := store.List()
	if err != nil || !reflect.DeepEqual(ids, []string{id}) {
		t.Errorf("List = %v, %v; want [%s]", ids, err, id)
	}
}

// TestStoreReadsSpecWithRetiredKnob loads a spec.json written before a
// JobSpec field was removed: the store decodes leniently, so the old
// job directory still loads, and the spec hashes like one that never
// had the field.
func TestStoreReadsSpecWithRetiredKnob(t *testing.T) {
	store, err := OpenStoreWith(StoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	id := FormatID(0)
	old, err := os.ReadFile(filepath.Join("testdata", "spec_retired_knob.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(store.JobDir(id), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store.JobDir(id), "spec.json"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := store.ReadSpec(id)
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{Kind: KindCampaign, Fuzzer: "swarmfuzz", SwarmSize: 5,
		SpoofDistance: 10, Missions: 3, BaseSeed: 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReadSpec = %+v, want %+v", got, want)
	}
	if got.Hash() != want.Hash() {
		t.Errorf("old spec hash %s != %s", got.Hash(), want.Hash())
	}
}

// opLog wraps the real filesystem and logs each temp file's writes,
// syncs and closes and each rename, in order. failSyncs fails that
// many Sync calls before letting them through.
type opLog struct {
	chaos.FS
	ops       []string
	failSyncs int
}

type loggedFile struct {
	chaos.File
	log *opLog
}

func (l *opLog) CreateTemp(dir, pattern string) (chaos.File, error) {
	f, err := l.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return loggedFile{f, l}, nil
}

func (l *opLog) Rename(oldpath, newpath string) error {
	l.ops = append(l.ops, "rename "+filepath.Base(newpath))
	return l.FS.Rename(oldpath, newpath)
}

func (f loggedFile) Write(p []byte) (int, error) {
	f.log.ops = append(f.log.ops, "write")
	return f.File.Write(p)
}

func (f loggedFile) Sync() error {
	f.log.ops = append(f.log.ops, "sync")
	if f.log.failSyncs > 0 {
		f.log.failSyncs--
		return errors.New("sync: input/output error")
	}
	return f.File.Sync()
}

func (f loggedFile) Close() error {
	f.log.ops = append(f.log.ops, "close")
	return f.File.Close()
}

// TestStoreSyncsBeforeRename pins the atomic write's order: the temp
// file's contents are synced before it is closed and renamed into
// place, so a power cut after the rename cannot leave an empty
// status.json or report.json. A failed sync fails the attempt, which
// is retried on a fresh temp file, and leaves no temp file behind.
func TestStoreSyncsBeforeRename(t *testing.T) {
	for _, failSyncs := range []int{0, 1} {
		log := &opLog{FS: chaos.OS(), failSyncs: failSyncs}
		store, err := OpenStoreWith(StoreOptions{Dir: t.TempDir(), FS: log})
		if err != nil {
			t.Fatal(err)
		}
		id := FormatID(0)
		report := []byte("{\n  \"ok\": true\n}\n")
		if err := store.WriteReport(id, report); err != nil {
			t.Fatal(err)
		}
		attempt := []string{"write", "sync", "close", "rename report.json"}
		want := attempt
		if failSyncs == 1 {
			want = append([]string{"write", "sync", "close"}, attempt...)
		}
		if !reflect.DeepEqual(log.ops, want) {
			t.Errorf("failed syncs %d: ops %q, want %q", failSyncs, log.ops, want)
		}
		if got, err := store.ReadReport(id); err != nil || !bytes.Equal(got, report) {
			t.Errorf("failed syncs %d: report %q, %v", failSyncs, got, err)
		}
		entries, err := os.ReadDir(store.JobDir(id))
		if err != nil || len(entries) != 1 {
			t.Errorf("failed syncs %d: job dir holds %v (%v), want only report.json", failSyncs, entries, err)
		}
	}
}

func TestStoreListSkipsForeignEntries(t *testing.T) {
	store, err := OpenStoreWith(StoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{FormatID(2), FormatID(0)} {
		if err := store.WriteStatus(JobStatus{ID: id, State: StateQueued}); err != nil {
			t.Fatal(err)
		}
	}
	// Entries the store didn't create must be ignored.
	if err := os.MkdirAll(filepath.Join(store.Dir(), "jobs", "notes"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store.Dir(), "jobs", "j2"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{FormatID(0), FormatID(2)}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("List = %v, want %v", ids, want)
	}
}

func TestStoreEventsSkipTornLines(t *testing.T) {
	store, err := OpenStoreWith(StoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	id := FormatID(1)
	if err := store.AppendEvent(id, []byte(`{"seq":1,"type":"state","state":"queued"}`)); err != nil {
		t.Fatal(err)
	}
	if err := store.AppendEvent(id, []byte(`{"seq":2,"type":"state","state":"running"}`)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn trailing line.
	f, err := os.OpenFile(store.EventsPath(id), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"ty`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := store.ReadEvents(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Seq != 1 || events[1].Seq != 2 {
		t.Errorf("events = %+v, want seqs 1,2 with the torn line dropped", events)
	}
}

// FuzzReadEvents holds the events.jsonl reader to what the daemon
// needs of it at boot and on every GET …/events: no input panics, a
// prefix cut just after a newline (an append cut short at a line
// boundary) reads as a prefix of the whole input's events, an
// unterminated tail that does not decode (a torn append) changes
// nothing, and events written as hub.publish writes them read back
// equal.
func FuzzReadEvents(f *testing.F) {
	store, err := OpenStoreWith(StoreOptions{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	id := FormatID(1)
	h := newHub(id, 0, store, nil)
	h.publish("state", func(e *Event) { e.State = StateQueued })
	h.publish("state", func(e *Event) { e.State = StateRunning })
	h.publish("progress", func(e *Event) {
		e.Counters = map[string]int64{telemetry.MMissionsPlanned: 2, telemetry.MSimRuns: 7}
	})
	h.publish("state", func(e *Event) { e.State = StateFailed; e.Error = "serve: boom" })
	events, err := store.ReadEvents(id)
	if err != nil || !reflect.DeepEqual(events, h.history) {
		f.Fatalf("hub published %+v, store read back %+v (err %v)", h.history, events, err)
	}
	stream, err := os.ReadFile(store.EventsPath(id))
	if err != nil {
		f.Fatal(err)
	}
	nl := bytes.IndexByte(stream, '\n')
	for _, cut := range []int{0, 1, nl, nl + 1, len(stream) / 2, len(stream) - 3, len(stream)} {
		f.Add(stream, uint(cut), "progress", "running", "", telemetry.MSimRuns, 3, int64(11))
		f.Add(append(stream[:cut:cut], `{"seq":9,"ty`...), uint(cut/2), "state", "failed", "boom", "", -1, int64(cut))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint, typ, state, errText, counter string, seq int, value int64) {
		all, err := readEvents(bytes.NewReader(data))
		if err == nil {
			k := cut % uint(len(data)+1)
			end := bytes.LastIndexByte(data[:k], '\n') + 1
			head, err := readEvents(bytes.NewReader(data[:end]))
			if err != nil {
				t.Fatalf("read the whole input but not its %d-byte prefix: %v", end, err)
			}
			if len(head) > len(all) {
				t.Fatalf("%d-byte prefix read %d events, the whole input %d", end, len(head), len(all))
			}
			for i := range head {
				if !reflect.DeepEqual(head[i], all[i]) {
					t.Fatalf("%d-byte prefix read event %d as %+v, the whole input as %+v", end, i, head[i], all[i])
				}
			}

			end = bytes.LastIndexByte(data, '\n') + 1
			var e Event
			if json.Unmarshal(data[end:], &e) != nil {
				head, err := readEvents(bytes.NewReader(data[:end]))
				if err != nil || !reflect.DeepEqual(head, all) {
					t.Fatalf("undecodable tail %q changed the events: %+v without it, %+v with it (err %v)", data[end:], head, all, err)
				}
			}
		}

		for _, s := range []string{typ, state, errText, counter} {
			if !utf8.ValidString(s) {
				return // encoding/json rewrites invalid UTF-8, by design
			}
		}
		want := []Event{
			{Seq: seq, Type: typ, State: State(state), Error: errText, TimeUnix: value},
			{Seq: seq + 1, Type: typ, Counters: map[string]int64{counter: value}},
		}
		var buf bytes.Buffer
		for _, e := range want {
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		got, err := readEvents(&buf)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("wrote %+v, read back %+v (err %v)", want, got, err)
		}
	})
}

func TestParseID(t *testing.T) {
	if got := FormatID(7); got != "j000007" {
		t.Errorf("FormatID(7) = %q", got)
	}
	for id, want := range map[string]int{"j000000": 0, "j000123": 123} {
		if n, ok := parseID(id); !ok || n != want {
			t.Errorf("parseID(%q) = %d, %v; want %d, true", id, n, ok, want)
		}
	}
	for _, id := range []string{"", "j", "jx", "123", "j12", "j-00001", "J000001"} {
		if _, ok := parseID(id); ok {
			t.Errorf("parseID(%q) accepted a non-canonical id", id)
		}
	}
}
