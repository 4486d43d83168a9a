// Package chaos is the deterministic fault-injection harness of the
// serving stack. Production code runs on the pass-through OS()
// filesystem; chaos runs wrap it with an Injector that throws
// scheduled IO errors (EIO, ENOSPC), torn/short writes and latency at
// the store, and stalls at engine hook points — so every failure path
// swarmfuzzd claims to survive can actually be exercised, in unit
// tests and end to end (TestChaosSmoke in e2e/), and every chaos run
// is reproducible: the schedule is a declarative ChaosSpec and the
// only randomness is a seed-derived stream, so the same spec always
// injects the same faults at the same operations.
package chaos

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/telemetry"
)

// MFaultsInjected counts faults the injector actually fired. The name
// is serve-prefixed because the injector's one production consumer is
// the serving daemon's /metrics endpoint.
const MFaultsInjected = "serve_faults_injected"

// Op classifies the operations faults can target.
type Op string

const (
	// Filesystem operations, as issued by the wrapped FS.
	OpMkdir   Op = "mkdir"
	OpCreate  Op = "create" // CreateTemp
	OpWrite   Op = "write"  // File.Write
	OpClose   Op = "close"  // File.Close
	OpRename  Op = "rename"
	OpRemove  Op = "remove" // Remove and RemoveAll
	OpOpen    Op = "open"   // Open and OpenFile
	OpRead    Op = "read"   // ReadFile
	OpReadDir Op = "readdir"
	// OpStall is the engine-side hook point: Injector.Stall(point) is
	// called from the job heartbeat path, and a matching stall fault
	// suppresses heartbeats for its duration.
	OpStall Op = "stall"
)

// Fault kinds.
const (
	// KindEIO fails the operation with an input/output error.
	KindEIO = "eio"
	// KindENOSPC fails the operation with "no space left on device".
	KindENOSPC = "enospc"
	// KindTorn writes TornBytes of the payload and then fails — the
	// classic torn write a crash mid-write leaves behind. Only
	// meaningful on OpWrite; other ops treat it as KindEIO.
	KindTorn = "torn"
	// KindLatency delays the operation by DelayMS and then lets it
	// proceed. On OpStall it is the stall itself.
	KindLatency = "latency"
)

// Fault is one rule of a chaos schedule. A rule matches an operation
// when the op kind equals Op (empty = any), the path (or stall point)
// contains Match, and the per-rule count of matching operations has
// reached Nth. It then fires Times times in a row (on matching
// operations Nth, Nth+1, …), each firing optionally gated by the
// seed-derived probability Prob.
type Fault struct {
	// Op is the targeted operation class ("" = any filesystem op;
	// stall hooks are only hit by Op "stall").
	Op Op `json:"op,omitempty"`
	// Match is a substring the operation's path (file ops) or point
	// name (stall hooks) must contain; "" matches everything.
	Match string `json:"match,omitempty"`
	// Nth arms the rule on the Nth matching operation (1-based).
	// 0 means armed from the first match.
	Nth int `json:"nth,omitempty"`
	// Times bounds how many matching operations fire once armed;
	// 0 means 1.
	Times int `json:"times,omitempty"`
	// Prob gates each armed firing with a seed-derived coin flip;
	// 0 means always fire.
	Prob float64 `json:"prob,omitempty"`
	// Kind selects the injected fault: eio|enospc|torn|latency.
	Kind string `json:"kind"`
	// TornBytes is how much of the payload a torn write persists
	// before failing.
	TornBytes int `json:"torn_bytes,omitempty"`
	// DelayMS is the latency/stall duration in milliseconds.
	DelayMS int `json:"delay_ms,omitempty"`
}

// Spec is a reproducible chaos schedule: a fault list plus the seed
// that drives every probabilistic decision.
type Spec struct {
	// Seed derives the injector's random stream (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Faults are the schedule's rules, evaluated in order; the first
	// rule that fires wins the operation.
	Faults []Fault `json:"faults"`
}

// Validate reports why the spec is unusable.
func (s Spec) Validate() error {
	for i, f := range s.Faults {
		switch f.Kind {
		case KindEIO, KindENOSPC, KindTorn, KindLatency:
		default:
			return fmt.Errorf("chaos: fault %d has unknown kind %q (want eio|enospc|torn|latency)", i, f.Kind)
		}
		if f.Nth < 0 || f.Times < 0 || f.TornBytes < 0 || f.DelayMS < 0 {
			return fmt.Errorf("chaos: fault %d has a negative knob", i)
		}
		if f.Prob < 0 || f.Prob > 1 {
			return fmt.Errorf("chaos: fault %d prob %g out of [0,1]", i, f.Prob)
		}
	}
	return nil
}

// LoadSpec reads and validates a ChaosSpec JSON file.
func LoadSpec(path string) (Spec, error) {
	var spec Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, fmt.Errorf("chaos: read spec: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("chaos: decode spec %s: %w", path, err)
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// Injector evaluates a Spec against a stream of operations. It is safe
// for concurrent use; the per-rule match counters are the only shared
// state and decide deterministically which operations fault.
type Injector struct {
	rec telemetry.Recorder
	log *telemetry.Logger

	// sleep is swappable so tests can observe stalls without waiting
	// them out.
	sleep func(time.Duration)

	mu      sync.Mutex
	faults  []Fault
	matched []int // per rule: matching operations seen
	fired   []int // per rule: times actually fired
	rnd     *rng.Source
}

// New returns an Injector for the spec. rec (counted faults) and log
// (one line per firing) may be nil.
func New(spec Spec, rec telemetry.Recorder, log *telemetry.Logger) *Injector {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{
		rec:     telemetry.OrNop(rec),
		log:     log,
		sleep:   time.Sleep,
		faults:  append([]Fault(nil), spec.Faults...),
		matched: make([]int, len(spec.Faults)),
		fired:   make([]int, len(spec.Faults)),
		rnd:     rng.Derive(seed, "chaos"),
	}
}

// SetSleep replaces the injector's sleep function (tests). Not safe to
// call concurrently with injection.
func (in *Injector) SetSleep(fn func(time.Duration)) { in.sleep = fn }

// SetRecorder redirects the fault counter. The serve engine attaches
// its own telemetry here so MFaultsInjected lands on the daemon's
// /metrics regardless of what the injector was constructed with. Not
// safe to call concurrently with injection.
func (in *Injector) SetRecorder(rec telemetry.Recorder) { in.rec = telemetry.OrNop(rec) }

// Fired returns how many faults have been injected so far.
func (in *Injector) Fired() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	total := 0
	for _, n := range in.fired {
		total += n
	}
	return total
}

// hit returns the fault to inject for the operation, or nil. It
// advances every matching rule's counter, so the schedule is a pure
// function of the operation stream.
func (in *Injector) hit(op Op, path string) *Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	var won *Fault
	for i := range in.faults {
		f := &in.faults[i]
		if f.Op != "" && f.Op != op {
			continue
		}
		if f.Op == "" && op == OpStall {
			continue // stall hooks must be targeted explicitly
		}
		if f.Match != "" && !strings.Contains(path, f.Match) {
			continue
		}
		in.matched[i]++
		if won != nil {
			continue // first firing rule wins, later rules still count
		}
		armAt := f.Nth
		if armAt == 0 {
			armAt = 1
		}
		times := f.Times
		if times == 0 {
			times = 1
		}
		if in.matched[i] < armAt || in.matched[i] >= armAt+times {
			continue
		}
		if f.Prob > 0 && in.rnd.Float64() >= f.Prob {
			continue
		}
		in.fired[i]++
		won = f
	}
	if won != nil {
		in.rec.Add(MFaultsInjected, 1)
		if in.log != nil {
			in.log.Warnf("chaos: injecting %s on %s %s", won.Kind, op, path)
		}
	}
	return won
}

// errFor renders the fault as the error the operation returns, or nil
// for pure-latency faults (which have already slept).
func (in *Injector) errFor(f *Fault, op Op, path string) error {
	switch f.Kind {
	case KindENOSPC:
		return fmt.Errorf("chaos: injected on %s %s: %w", op, path, syscall.ENOSPC)
	case KindLatency:
		in.sleep(time.Duration(f.DelayMS) * time.Millisecond)
		return nil
	default: // eio, and torn outside Write
		return fmt.Errorf("chaos: injected on %s %s: %w", op, path, syscall.EIO)
	}
}

// Stall is the engine-side hook point: called from heartbeat paths
// with a point name, it blocks for a matching stall fault's duration.
// With no matching fault it is one mutex acquisition.
func (in *Injector) Stall(point string) {
	f := in.hit(OpStall, point)
	if f == nil {
		return
	}
	in.sleep(time.Duration(f.DelayMS) * time.Millisecond)
}

// FS wraps base so every operation runs through the injector's
// schedule first.
func (in *Injector) FS(base FS) FS {
	if base == nil {
		base = OS()
	}
	return &chaosFS{in: in, base: base}
}

type chaosFS struct {
	in   *Injector
	base FS
}

// fault evaluates the schedule for one op, returning a non-nil error
// when the operation must fail.
func (c *chaosFS) fault(op Op, path string) error {
	f := c.in.hit(op, path)
	if f == nil {
		return nil
	}
	return c.in.errFor(f, op, path)
}

func (c *chaosFS) MkdirAll(path string, perm fs.FileMode) error {
	if err := c.fault(OpMkdir, path); err != nil {
		return err
	}
	return c.base.MkdirAll(path, perm)
}

func (c *chaosFS) CreateTemp(dir, pattern string) (File, error) {
	// Temp files are matched by their pattern (which the store derives
	// from the destination filename), not the random temp name.
	if err := c.fault(OpCreate, dir+"/"+pattern); err != nil {
		return nil, err
	}
	f, err := c.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &chaosFile{in: c.in, f: f, label: dir + "/" + pattern}, nil
}

func (c *chaosFS) Rename(oldpath, newpath string) error {
	if err := c.fault(OpRename, newpath); err != nil {
		return err
	}
	return c.base.Rename(oldpath, newpath)
}

func (c *chaosFS) Remove(name string) error {
	if err := c.fault(OpRemove, name); err != nil {
		return err
	}
	return c.base.Remove(name)
}

func (c *chaosFS) RemoveAll(path string) error {
	if err := c.fault(OpRemove, path); err != nil {
		return err
	}
	return c.base.RemoveAll(path)
}

func (c *chaosFS) Open(name string) (File, error) {
	if err := c.fault(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := c.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &chaosFile{in: c.in, f: f, label: name}, nil
}

func (c *chaosFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err := c.fault(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := c.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &chaosFile{in: c.in, f: f, label: name}, nil
}

func (c *chaosFS) ReadFile(name string) ([]byte, error) {
	if err := c.fault(OpRead, name); err != nil {
		return nil, err
	}
	return c.base.ReadFile(name)
}

func (c *chaosFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := c.fault(OpReadDir, name); err != nil {
		return nil, err
	}
	return c.base.ReadDir(name)
}

func (c *chaosFS) Stat(name string) (fs.FileInfo, error) {
	// Stat is a probe, not a mutation; chaos leaves it alone so
	// existence checks stay truthful.
	return c.base.Stat(name)
}

// chaosFile injects write and close faults. label is the logical path
// faults match against (for temp files, the destination-derived
// pattern rather than the random temp name).
type chaosFile struct {
	in    *Injector
	f     File
	label string
}

func (c *chaosFile) Name() string { return c.f.Name() }

func (c *chaosFile) Read(p []byte) (int, error) { return c.f.Read(p) }

func (c *chaosFile) Write(p []byte) (int, error) {
	f := c.in.hit(OpWrite, c.label)
	if f == nil {
		return c.f.Write(p)
	}
	switch f.Kind {
	case KindTorn:
		// Persist a prefix, then fail: the write looks interrupted
		// mid-flight, exactly what a crash or full disk leaves behind.
		n := f.TornBytes
		if n > len(p) {
			n = len(p)
		}
		wrote, _ := c.f.Write(p[:n])
		return wrote, fmt.Errorf("chaos: torn write on %s after %d bytes: %w", c.label, wrote, syscall.EIO)
	case KindLatency:
		c.in.sleep(time.Duration(f.DelayMS) * time.Millisecond)
		return c.f.Write(p)
	case KindENOSPC:
		return 0, fmt.Errorf("chaos: injected on write %s: %w", c.label, syscall.ENOSPC)
	default:
		return 0, fmt.Errorf("chaos: injected on write %s: %w", c.label, syscall.EIO)
	}
}

func (c *chaosFile) Close() error {
	if err := c.fault(OpClose, c.label); err != nil {
		c.f.Close() // release the descriptor either way
		return err
	}
	return c.f.Close()
}

func (c *chaosFile) fault(op Op, path string) error {
	f := c.in.hit(op, path)
	if f == nil {
		return nil
	}
	return c.in.errFor(f, op, path)
}
