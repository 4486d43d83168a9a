package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// writeVia exercises the atomic-write shape the store uses: temp file,
// write, close, rename. It returns the first error.
func writeVia(fsys FS, dir, name string, data []byte) error {
	f, err := fsys.CreateTemp(dir, ".tmp-"+name+"-*")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(f.Name(), filepath.Join(dir, name))
}

func TestOSPassThrough(t *testing.T) {
	dir := t.TempDir()
	fsys := OS()
	if err := writeVia(fsys, dir, "a.json", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile(filepath.Join(dir, "a.json"))
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("ReadDir = %d entries, %v", len(entries), err)
	}
}

func TestInjectsNthMatchingWrite(t *testing.T) {
	spec := Spec{Faults: []Fault{
		{Op: OpWrite, Match: "status.json", Nth: 2, Kind: KindENOSPC},
	}}
	in := New(spec, nil, nil)
	fsys := in.FS(OS())
	dir := t.TempDir()

	// Write 1 to status.json passes; write to a different file passes;
	// write 2 to status.json fails with ENOSPC; write 3 passes again.
	if err := writeVia(fsys, dir, "status.json", []byte("one")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := writeVia(fsys, dir, "report.json", []byte("other")); err != nil {
		t.Fatalf("unmatched write: %v", err)
	}
	err := writeVia(fsys, dir, "status.json", []byte("two"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("second matching write = %v, want ENOSPC", err)
	}
	if err := writeVia(fsys, dir, "status.json", []byte("three")); err != nil {
		t.Fatalf("third write after a one-shot fault: %v", err)
	}
	if got := fired(in); got != 1 {
		t.Errorf("Fired = %d, want 1", got)
	}
	// The surviving file content is from the last successful write.
	data, _ := os.ReadFile(filepath.Join(dir, "status.json"))
	if string(data) != "three" {
		t.Errorf("status.json = %q, want the last good write", data)
	}
}

func TestTornWritePersistsPrefix(t *testing.T) {
	spec := Spec{Faults: []Fault{
		{Op: OpWrite, Match: "status", Nth: 1, Kind: KindTorn, TornBytes: 4},
	}}
	in := New(spec, nil, nil)
	fsys := in.FS(OS())
	dir := t.TempDir()

	f, err := fsys.CreateTemp(dir, ".tmp-status.json-*")
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn write err = %v, want EIO", err)
	}
	if n != 4 {
		t.Errorf("torn write persisted %d bytes, want 4", n)
	}
	name := f.Name()
	f.Close()
	data, err := os.ReadFile(name)
	if err != nil || string(data) != "0123" {
		t.Errorf("temp file holds %q, %v; want the 4-byte prefix", data, err)
	}
}

func TestTimesFiresConsecutively(t *testing.T) {
	spec := Spec{Faults: []Fault{
		{Op: OpWrite, Nth: 2, Times: 2, Kind: KindEIO},
	}}
	in := New(spec, nil, nil)
	fsys := in.FS(OS())
	dir := t.TempDir()
	var errs []bool
	for i := 0; i < 5; i++ {
		err := writeVia(fsys, dir, "f.json", []byte("x"))
		errs = append(errs, err != nil)
	}
	want := []bool{false, true, true, false, false}
	for i := range want {
		if errs[i] != want[i] {
			t.Fatalf("write %d faulted=%v, want %v (pattern %v)", i+1, errs[i], want[i], errs)
		}
	}
}

// TestDeterministicSchedule pins the reproducibility contract: the same
// spec replayed over the same operation stream injects the same faults.
func TestDeterministicSchedule(t *testing.T) {
	run := func() []bool {
		spec := Spec{Seed: 7, Faults: []Fault{
			{Op: OpWrite, Prob: 0.5, Times: 100, Kind: KindEIO},
		}}
		in := New(spec, nil, nil)
		fsys := in.FS(OS())
		dir := t.TempDir()
		var out []bool
		for i := 0; i < 20; i++ {
			out = append(out, writeVia(fsys, dir, "f.json", []byte("x")) != nil)
		}
		return out
	}
	a, b := run(), run()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at op %d: %v vs %v", i, a, b)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Errorf("prob 0.5 schedule fired %d/%d times; want a mix", hits, len(a))
	}
}

func TestStallHook(t *testing.T) {
	spec := Spec{Faults: []Fault{
		{Op: OpStall, Match: "sim_runs", Nth: 3, Kind: KindLatency, DelayMS: 250},
	}}
	in := New(spec, nil, nil)
	var slept time.Duration
	in.sleep = func(d time.Duration) { slept += d }

	for i := 0; i < 5; i++ {
		in.Stall("job:sim_runs")
	}
	in.Stall("job:other_counter")
	if slept != 250*time.Millisecond {
		t.Errorf("slept %v, want 250ms (one firing on the 3rd matching point)", slept)
	}
	if fired(in) != 1 {
		t.Errorf("Fired = %d, want 1", fired(in))
	}
}

// TestStallNeedsExplicitTarget pins that a catch-all filesystem fault
// (empty Op) never leaks into engine stall hooks.
func TestStallNeedsExplicitTarget(t *testing.T) {
	in := New(Spec{Faults: []Fault{{Kind: KindLatency, DelayMS: 100, Times: 100}}}, nil, nil)
	slept := false
	in.sleep = func(time.Duration) { slept = true }
	in.Stall("job:sim_runs")
	if slept {
		t.Error("catch-all fault fired on a stall hook; stalls must be targeted with op=stall")
	}
}

func TestLatencyDelaysButSucceeds(t *testing.T) {
	spec := Spec{Faults: []Fault{
		{Op: OpRename, Kind: KindLatency, DelayMS: 50},
	}}
	in := New(spec, nil, nil)
	var slept time.Duration
	in.sleep = func(d time.Duration) { slept += d }
	fsys := in.FS(OS())
	dir := t.TempDir()
	if err := writeVia(fsys, dir, "f.json", []byte("x")); err != nil {
		t.Fatalf("latency fault must not fail the op: %v", err)
	}
	if slept != 50*time.Millisecond {
		t.Errorf("slept %v, want 50ms", slept)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "f.json")); err != nil || string(data) != "x" {
		t.Errorf("file after latency = %q, %v", data, err)
	}
}

func TestLoadSpec(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "chaos.json")
	if err := os.WriteFile(good, []byte(`{
  "seed": 42,
  "faults": [
    {"op": "write", "match": "status.json", "nth": 2, "kind": "torn", "torn_bytes": 4},
    {"op": "stall", "match": "sim_runs", "nth": 3, "kind": "latency", "delay_ms": 2000}
  ]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(good)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 42 || len(spec.Faults) != 2 || spec.Faults[0].Kind != KindTorn {
		t.Errorf("LoadSpec = %+v", spec)
	}

	bad := filepath.Join(dir, "bad.json")
	for _, body := range []string{
		`{"faults": [{"kind": "meteor"}]}`,
		`{"faults": [{"kind": "eio", "prob": 2}]}`,
		`{"faults": [{"kind": "eio", "nth": -1}]}`,
		`not json`,
	} {
		if err := os.WriteFile(bad, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSpec(bad); err == nil {
			t.Errorf("LoadSpec accepted %q", body)
		}
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadSpec accepted a missing file")
	}
}

// TestFirstRuleWins pins rule precedence: when two rules match the same
// operation, the first one in the spec decides the fault, and the
// second still advances its match counter.
func TestFirstRuleWins(t *testing.T) {
	spec := Spec{Faults: []Fault{
		{Op: OpWrite, Nth: 1, Kind: KindENOSPC},
		{Op: OpWrite, Nth: 2, Kind: KindEIO},
	}}
	in := New(spec, nil, nil)
	fsys := in.FS(OS())
	dir := t.TempDir()
	if err := writeVia(fsys, dir, "f.json", nil); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("first write = %v, want ENOSPC from rule 1", err)
	}
	if err := writeVia(fsys, dir, "f.json", nil); !errors.Is(err, syscall.EIO) {
		t.Fatalf("second write = %v, want EIO from rule 2 (its counter advanced under rule 1)", err)
	}
}

func TestCloseFaultReleasesDescriptor(t *testing.T) {
	spec := Spec{Faults: []Fault{{Op: OpClose, Nth: 1, Kind: KindEIO}}}
	in := New(spec, nil, nil)
	fsys := in.FS(OS())
	dir := t.TempDir()
	f, err := fsys.CreateTemp(dir, ".tmp-x-*")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close = %v, want injected EIO", err)
	}
	// The underlying descriptor must still have been closed: a second
	// OS-level close of the same file errors.
	if err := writeVia(fsys, dir, strings.TrimPrefix(filepath.Base(f.Name()), "."), nil); err != nil {
		t.Fatalf("fs unusable after close fault: %v", err)
	}
}

// fired returns how many faults in has injected so far.
func fired(in *Injector) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	total := 0
	for _, n := range in.fired {
		total += n
	}
	return total
}
