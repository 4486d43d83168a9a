// Package flightlog is the mission-layer "black box": a streaming JSONL
// recorder that captures, per sampled control step, everything needed to
// explain a run after the fact — true vs GPS-perceived position per
// drone, the full flocking term decomposition behind every command, the
// active spoof state, and min-separation / min-obstacle-clearance
// timelines — plus the mission-level forensics SwarmFuzz produces along
// the way (SVG edge weights, scheduled seeds, the gradient-search
// iterate trail, findings).
//
// One MissionLog holds one mission's artifacts: a mission header, any
// number of runs (clean, witness re-runs, ...), and the fuzzing
// metadata. Runs are recorded through sim.RunOptions.Flight via
// MissionLog.Recorder; the log itself is safe for use from one
// goroutine at a time per record (a mutex serialises lines), and
// records carry no wall-clock timestamps — only mission time — so a
// fixed-seed mission produces a byte-identical log.
//
// Write errors are sticky: the first one latches, subsequent records
// are dropped, and Close returns it. Recording must never be able to
// abort a mission.
package flightlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/graph"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/svg"
)

// TermSource recomputes the per-goal sub-velocity decomposition of a
// command from the exact inputs the controller saw. *flock.Controller
// implements it; a nil TermSource disables term recording (the step
// records simply omit the "terms" field).
type TermSource interface {
	Terms(p sim.Perception, neighbors []comms.State, w *sim.World) flock.Terms
}

var _ TermSource = (*flock.Controller)(nil)

// MissionLog writes one mission's flight log as JSONL.
type MissionLog struct {
	terms TermSource

	mu         sync.Mutex
	w          *bufio.Writer
	c          io.Closer
	err        error
	headerDone bool
}

// New returns a MissionLog writing to w. terms may be nil to skip the
// per-drone term decomposition. The caller owns w; Close flushes but
// does not close it.
func New(w io.Writer, terms TermSource) *MissionLog {
	return &MissionLog{terms: terms, w: bufio.NewWriterSize(w, 64<<10)}
}

// write marshals rec and appends it as one line. Errors latch.
func (l *MissionLog) write(rec any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		l.err = err
		return
	}
	if _, err := l.w.Write(b); err != nil {
		l.err = err
		return
	}
	l.err = l.w.WriteByte('\n')
}

// Err returns the first write error, if any.
func (l *MissionLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close flushes the log and releases the underlying file when the log
// owns one (Create). It returns the first error encountered
// over the log's lifetime.
func (l *MissionLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); l.err == nil && err != nil {
		l.err = err
	}
	if l.c != nil {
		if err := l.c.Close(); l.err == nil && err != nil {
			l.err = err
		}
		l.c = nil
	}
	return l.err
}

// writeMission writes the mission header exactly once per log.
func (l *MissionLog) writeMission(m *sim.Mission) {
	l.mu.Lock()
	done := l.headerDone
	l.headerDone = true
	l.mu.Unlock()
	if done {
		return
	}
	cfg := m.Config
	rec := MissionRecord{
		Type:        TypeMission,
		NumDrones:   cfg.NumDrones,
		Seed:        cfg.Seed,
		Dt:          cfg.Dt,
		SampleEvery: cfg.SampleEvery,
		MaxTime:     cfg.MaxTime,
		DroneRadius: cfg.DroneRadius,
		Axis:        v3(m.Axis),
		Destination: v3(m.World.Destination),
		DestRadius:  r6(m.World.DestRadius),
		Obstacles:   make([]ObstacleRecord, len(m.World.Obstacles)),
		Start:       make([]Vec, len(m.Start)),
	}
	for i, o := range m.World.Obstacles {
		rec.Obstacles[i] = ObstacleRecord{Center: v3(o.Center), Radius: r6(o.Radius)}
	}
	for i, p := range m.Start {
		rec.Start[i] = v3(p)
	}
	l.write(&rec)
}

// Recorder returns a sim.FlightRecorder that records one run under the
// given label. Labels name runs within the mission ("clean",
// "witness_0", ...); the step and event records reference them.
func (l *MissionLog) Recorder(label string) sim.FlightRecorder {
	return &runRecorder{log: l, label: label}
}

// SVG records one direction's Swarm Vulnerability Graph. Edges are
// emitted in ascending (from, to) order, the order the graph keeps
// them in, so logs stay deterministic.
func (l *MissionLog) SVG(dir gps.Direction, g *graph.Digraph) {
	rec := SVGRecord{
		Type:      TypeSVG,
		Direction: int(dir),
		Nodes:     g.N(),
		Edges:     make([]EdgeRecord, 0, g.NumEdges()),
	}
	for u := 0; u < g.N(); u++ {
		g.OutNeighbors(u, func(v int, w float64) {
			rec.Edges = append(rec.Edges, EdgeRecord{From: u, To: v, Weight: r6(w)})
		})
	}
	l.write(&rec)
}

// Seeds records the scheduled fuzzing seed order.
func (l *MissionLog) Seeds(seeds []svg.Seed) {
	rec := SeedsRecord{Type: TypeSeeds, Seeds: make([]SeedRecord, len(seeds))}
	for i, s := range seeds {
		rec.Seeds[i] = SeedRecord{
			Target:    s.Target,
			Victim:    s.Victim,
			Direction: int(s.Direction),
			Influence: r6(s.Influence),
			VDO:       r6(s.VDO),
		}
	}
	l.write(&rec)
}

// Search records one search iterate on a seed: the candidate attack
// window (ts, dt) and the objective value it achieved.
func (l *MissionLog) Search(seed svg.Seed, iter int, ts, dt, value float64) {
	l.write(&SearchRecord{
		Type:      TypeSearch,
		Target:    seed.Target,
		Victim:    seed.Victim,
		Direction: int(seed.Direction),
		Iter:      iter,
		TS:        r6(ts),
		DT:        r6(dt),
		Value:     r6(value),
	})
}

// Finding records one cracked seed.
func (l *MissionLog) Finding(plan gps.SpoofPlan, victim int, value float64) {
	l.write(&FindingRecord{
		Type:   TypeFinding,
		Spoof:  newSpoofRecord(plan),
		Victim: victim,
		Value:  r6(value),
	})
}

// Note records free-form mission context under a key.
func (l *MissionLog) Note(key, value string) {
	l.write(&NoteRecord{Type: TypeNote, Key: key, Value: value})
}

// runRecorder implements sim.FlightRecorder for one run of the mission.
type runRecorder struct {
	log   *MissionLog
	label string
	m     *sim.Mission
	spoof *gps.SpoofPlan
	// nbrs is the reused neighbour row handed to the TermSource.
	nbrs []comms.State
}

var _ sim.FlightRecorder = (*runRecorder)(nil)

// BeginFlight implements sim.FlightRecorder.
func (r *runRecorder) BeginFlight(m *sim.Mission, spoof *gps.SpoofPlan) {
	r.m = m
	r.spoof = spoof
	r.log.writeMission(m)
	rec := RunRecord{Type: TypeRun, Run: r.label}
	if spoof != nil {
		sr := newSpoofRecord(*spoof)
		rec.Spoof = &sr
	}
	r.log.write(&rec)
}

// RecordStep implements sim.FlightRecorder. The FlightStep slices alias
// the simulator's buffers, so everything kept is converted to record
// values before returning.
func (r *runRecorder) RecordStep(s sim.FlightStep) {
	rec := StepRecord{
		Type: TypeStep,
		Run:  r.label,
		Step: s.Step,
		T:    r6(s.Time),
	}
	if r.spoof != nil && r.spoof.Active(s.Time) {
		rec.SpoofActive = true
	}
	n := len(s.Bodies)
	rec.Drones = make([]DroneState, n)
	minSep, minClear := math.Inf(1), math.Inf(1)
	for i := 0; i < n; i++ {
		d := DroneState{
			ID:  i,
			Pos: v3(s.Bodies[i].Pos),
			Vel: v3(s.Bodies[i].Vel),
			GPS: v3(s.Readings[i].Position),
			Cmd: v3(s.Commands[i]),
		}
		if s.Bodies[i].Crashed {
			d.Crashed = true
			rec.Drones[i] = d
			continue
		}
		d.Spoofed = s.Readings[i].Spoofed
		if _, sd := r.m.World.NearestObstacle(s.Bodies[i].Pos); sd-r.m.Config.DroneRadius < minClear {
			minClear = sd - r.m.Config.DroneRadius
		}
		for j := i + 1; j < n; j++ {
			if s.Bodies[j].Crashed {
				continue
			}
			if dist := s.Bodies[i].Pos.Dist(s.Bodies[j].Pos); dist < minSep {
				minSep = dist
			}
		}
		if r.log.terms != nil {
			r.nbrs = s.Broadcast.Neighbors(i, r.nbrs)
			t := r.log.terms.Terms(sim.Perception{
				ID:       i,
				GPS:      s.Readings[i],
				Velocity: s.Bodies[i].Vel,
				Time:     s.Time,
			}, r.nbrs, &r.m.World)
			d.Terms = newTermsRecord(t)
		}
		rec.Drones[i] = d
	}
	rec.MinSep = finiteOr(minSep, -1)
	rec.MinClear = finiteOr(minClear, -1)
	r.log.write(&rec)
}

func finiteOr(x, fallback float64) float64 {
	if math.IsInf(x, 0) {
		return fallback
	}
	return r6(x)
}

// RecordCollision implements sim.FlightRecorder.
func (r *runRecorder) RecordCollision(c sim.Collision) {
	r.log.write(&EventRecord{
		Type:  TypeEvent,
		Run:   r.label,
		Event: "collision",
		Drone: c.Drone,
		Kind:  c.Kind.String(),
		Other: c.Other,
		T:     r6(c.Time),
		Pos:   v3(c.Pos),
	})
}

// EndFlight implements sim.FlightRecorder.
func (r *runRecorder) EndFlight(res *sim.Result, err error) {
	rec := RunEndRecord{Type: TypeRunEnd, Run: r.label}
	if err != nil {
		rec.Err = err.Error()
	}
	if res != nil {
		rec.Completed = res.Completed
		rec.Duration = r6(res.Duration)
		rec.Collisions = len(res.Collisions)
		rec.MinClearance = make([]float64, len(res.MinClearance))
		for i, c := range res.MinClearance {
			rec.MinClearance[i] = r6(c)
		}
	}
	r.log.write(&rec)
}

// flightExt is the file extension of every archived mission log.
const flightExt = ".flight.jsonl"

// MissionName is the archive name of a fuzzed mission's log: swarm
// size n, spoof distance d in metres and mission seed.
func MissionName(n int, d float64, seed uint64) string {
	return fmt.Sprintf("n%d_d%g_seed%d", n, d, seed)
}

// PostmortemPath returns where the HTML post-mortem of the flight log
// at flightPath goes: next to it, with the log's extension replaced.
func PostmortemPath(flightPath string) string {
	return strings.TrimSuffix(flightPath, flightExt) + ".postmortem.html"
}

// Create opens a new mission log named <name>.flight.jsonl inside dir,
// creating dir if necessary and truncating any previous log of that
// name, and returns it with its path. The log decomposes commands
// through terms (may be nil). The caller must Close the log.
func Create(dir, name string, terms TermSource) (*MissionLog, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	path := filepath.Join(dir, name+flightExt)
	f, err := os.Create(path)
	if err != nil {
		return nil, "", err
	}
	l := New(f, terms)
	l.c = f
	return l, path, nil
}
