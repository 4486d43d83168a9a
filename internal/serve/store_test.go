package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	store, err := OpenStore(t.TempDir())
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
	store, err := OpenStore(t.TempDir())
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

func TestStoreListSkipsForeignEntries(t *testing.T) {
	store, err := OpenStore(t.TempDir())
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
	store, err := OpenStore(t.TempDir())
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
