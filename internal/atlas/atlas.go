// Package atlas is the search-side observability layer: it records the
// fuzzer's optimization behavior — per-seed convergence trails with
// attribution, crack/stall/divergence classification — as a
// deterministic JSONL artifact, aggregates trails into per-cell
// statistics for campaign grids, and renders a self-contained XHTML
// atlas report (heatmap + sparklines).
//
// The artifact follows the flight-log discipline: every float is
// rounded to 1µ precision, no wall-clock times are recorded, and the
// record stream is a pure function of the mission seeds — fixed-seed
// runs are byte-identical and golden-pinnable. The header deliberately
// carries no job ids or paths, so a served job's artifact can be
// byte-identical to the same-seed CLI run's.
//
// The Collector satisfies fuzz.SearchObserver structurally (the
// interface avoids fuzz-package parameter types), so this package
// never imports internal/fuzz.
package atlas

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"swarmfuzz/internal/opt"
	"swarmfuzz/internal/svg"
	"swarmfuzz/internal/telemetry"
)

// Version is the artifact format version in the header record.
const Version = 1

// Record type discriminators.
const (
	TypeHeader     = "atlas"
	TypeCell       = "cell"
	TypeMission    = "mission"
	TypeSeed       = "seed"
	TypeMissionEnd = "mission_end"
	TypeCellEnd    = "cell_end"
	TypeAtlasEnd   = "atlas_end"
)

// Seed-outcome classes, from strongest to weakest verdict.
const (
	// ClassCracked: the search found an SPV.
	ClassCracked = "cracked"
	// ClassError: the search aborted on a simulation error.
	ClassError = "error"
	// ClassStalled: the objective flat-lined on a plateau.
	ClassStalled = "stalled"
	// ClassOscillating: the objective bounced without settling.
	ClassOscillating = "oscillating"
	// ClassDiverged: the search ended worse than it started.
	ClassDiverged = "diverged"
	// ClassExhausted: the budget ran out while still improving.
	ClassExhausted = "exhausted"
)

// HistBounds are the fixed upper-inclusive bucket bounds of the
// objective-landscape histogram (metres of victim clearance; the last
// bucket is the overflow). Fixed bounds keep cell merges and resumes
// trivially correct.
var HistBounds = []float64{0, 0.5, 1, 1.5, 2, 3, 4, 6, 8}

// histIndex maps an objective value onto its landscape bucket.
func histIndex(v float64) int {
	for i, b := range HistBounds {
		if v <= b {
			return i
		}
	}
	return len(HistBounds)
}

// r6 rounds to 1µ precision — the flight-log discipline that makes
// JSON encodings byte-stable across platforms.
func r6(x float64) float64 { return math.Round(x*1e6) / 1e6 }

// Header opens every artifact. It names the fuzzer and format version
// and nothing else: no ids, no paths, no clocks.
type Header struct {
	Type    string `json:"type"`
	Version int    `json:"version"`
	Fuzzer  string `json:"fuzzer"`
}

// CellRecord opens one grid cell's mission stream.
type CellRecord struct {
	Type string  `json:"type"`
	N    int     `json:"n"`
	Dist float64 `json:"dist"`
}

// MissionRecord opens one mission's seed stream.
type MissionRecord struct {
	Type string `json:"type"`
	// Seed is the mission RNG seed; VDO the clean run's victim
	// distance to obstacle; Seeds the scheduled seed count.
	Seed  uint64  `json:"seed"`
	VDO   float64 `json:"vdo"`
	Seeds int     `json:"seeds"`
}

// TrailPoint is one counted optimizer iterate of a seed's search.
type TrailPoint struct {
	// Iter is the iteration index across the seed's whole multi-start
	// budget; TS/DT the evaluated spoof parameters; Value the
	// objective.
	Iter  int     `json:"i"`
	TS    float64 `json:"ts"`
	DT    float64 `json:"dt"`
	Value float64 `json:"f"`
	// GradNorm is the finite-difference gradient norm (-1 when the
	// iterate terminated the search before probing); Step the
	// projected parameter update taken from the iterate.
	GradNorm float64 `json:"g"`
	Step     float64 `json:"step"`
	// Accepted marks iterates that improved the best value so far.
	Accepted bool `json:"acc,omitempty"`
}

// SeedRecord is one seed's full search outcome: the attacker→victim
// attribution, the classification and the convergence trail.
type SeedRecord struct {
	Type string `json:"type"`
	// Target (the spoofed attacker), Victim, Direction and the SVG
	// edge weight (Influence) attribute the seed; VDO is the victim's
	// clean-run obstacle clearance.
	Target    int     `json:"target"`
	Victim    int     `json:"victim"`
	Direction string  `json:"direction"`
	Influence float64 `json:"influence"`
	VDO       float64 `json:"vdo"`
	// Class is the seed's outcome classification; Iters the iterations
	// consumed; Best the lowest objective seen (0 when no iterate ran).
	Class string  `json:"class"`
	Iters int     `json:"iters"`
	Best  float64 `json:"best"`
	Err   string  `json:"err,omitempty"`
	// Trail is the per-iterate convergence record.
	Trail []TrailPoint `json:"trail,omitempty"`
}

// MissionEndRecord closes a mission's stream with its aggregates.
type MissionEndRecord struct {
	Type  string `json:"type"`
	Found bool   `json:"found"`
	// Seeds/Iters are walked seeds and total iterations; Best the
	// lowest objective of the mission; Classes and Hist the outcome
	// and objective-landscape tallies.
	Seeds   int            `json:"seeds"`
	Iters   int            `json:"iters"`
	Best    float64        `json:"best"`
	Classes map[string]int `json:"classes,omitempty"`
	Hist    []int          `json:"hist,omitempty"`
}

// CellEndRecord closes a cell's stream with its aggregated stats.
type CellEndRecord struct {
	Type string `json:"type"`
	CellStats
}

// AtlasEndRecord closes the artifact.
type AtlasEndRecord struct {
	Type     string `json:"type"`
	Cells    int    `json:"cells"`
	Missions int    `json:"missions"`
}

// MissionSearch summarises one mission's seed walk — the part of the
// atlas that survives into campaign checkpoints, so a resumed grid can
// rebuild its aggregate without replaying trails.
type MissionSearch struct {
	// Seeds is the number of seeds walked; Iters the total search
	// iterations; Cracked whether any seed found an SPV.
	Seeds   int  `json:"seeds"`
	Iters   int  `json:"iters"`
	Cracked bool `json:"cracked"`
	// Best is the lowest objective observed (0 when nothing ran).
	Best float64 `json:"best"`
	// Classes tallies seed outcomes by class; Hist is the
	// objective-landscape histogram over every iterate (HistBounds
	// buckets plus overflow).
	Classes map[string]int `json:"classes,omitempty"`
	Hist    []int          `json:"hist,omitempty"`
}

// writeRec marshals one record and appends it as a JSONL line.
func writeRec(w io.Writer, rec any) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("atlas: marshal %T: %w", rec, err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("atlas: write %T: %w", rec, err)
	}
	return nil
}

// WriteHeader writes the artifact header.
func WriteHeader(w io.Writer, fuzzer string) error {
	return writeRec(w, Header{Type: TypeHeader, Version: Version, Fuzzer: fuzzer})
}

// WriteCell opens a grid cell's stream.
func WriteCell(w io.Writer, n int, dist float64) error {
	return writeRec(w, CellRecord{Type: TypeCell, N: n, Dist: r6(dist)})
}

// WriteCellEnd closes a grid cell's stream with its aggregates.
func WriteCellEnd(w io.Writer, stats CellStats) error {
	return writeRec(w, CellEndRecord{Type: TypeCellEnd, CellStats: stats})
}

// WriteAtlasEnd closes the artifact.
func WriteAtlasEnd(w io.Writer, cells, missions int) error {
	return writeRec(w, AtlasEndRecord{Type: TypeAtlasEnd, Cells: cells, Missions: missions})
}

// Collector records one mission's seed walk as atlas records. It
// satisfies fuzz.SearchObserver. All calls arrive from a single
// goroutine in seed-schedule order (the fuzz package's commit-order
// contract), so the collector needs no locking and its output is
// deterministic for fixed seeds. Write errors are sticky and surfaced
// via Err, never panicked: observability must not change the fuzzing
// verdict.
type Collector struct {
	w   io.Writer
	rec telemetry.Recorder
	err error

	sum      MissionSearch
	haveBest bool
	seedBest float64
	haveSeed bool
	trail    []TrailPoint
}

// NewCollector returns a collector writing records to w and search
// metrics (fuzz_search_stalls_total, fuzz_search_iters_per_crack,
// fuzz_gradient_norm) to rec (nil = no metrics).
func NewCollector(w io.Writer, rec telemetry.Recorder) *Collector {
	return &Collector{w: w, rec: telemetry.OrNop(rec)}
}

// Err reports the first write error, if any.
func (c *Collector) Err() error { return c.err }

// Summary returns the mission's aggregate after EndSearch. The maps
// and slices are the collector's own; callers must not mutate them.
func (c *Collector) Summary() MissionSearch { return c.sum }

func (c *Collector) write(rec any) {
	if c.err != nil {
		return
	}
	c.err = writeRec(c.w, rec)
}

// BeginSearch implements fuzz.SearchObserver.
func (c *Collector) BeginSearch(missionSeed uint64, vdo float64, seeds int) {
	c.sum = MissionSearch{
		Classes: map[string]int{},
		Hist:    make([]int, len(HistBounds)+1),
	}
	c.haveBest = false
	c.write(MissionRecord{Type: TypeMission, Seed: missionSeed, VDO: r6(vdo), Seeds: seeds})
}

// SeedStart implements fuzz.SearchObserver.
func (c *Collector) SeedStart(svg.Seed) {
	c.trail = c.trail[:0]
	c.haveSeed = false
}

// SeedIterate implements fuzz.SearchObserver.
func (c *Collector) SeedIterate(_ svg.Seed, it opt.Iterate) {
	g := it.GradNorm
	if g >= 0 {
		g = r6(g)
		c.rec.Set(telemetry.MGradientNorm, g)
	}
	c.trail = append(c.trail, TrailPoint{
		Iter: it.Iter, TS: r6(it.TS), DT: r6(it.DT), Value: r6(it.Value),
		GradNorm: g, Step: r6(it.StepSize), Accepted: it.Accepted,
	})
	if !math.IsInf(it.Value, 0) {
		c.sum.Hist[histIndex(it.Value)]++
		if !c.haveSeed || it.Value < c.seedBest {
			c.seedBest, c.haveSeed = it.Value, true
		}
		if !c.haveBest || it.Value < c.sum.Best {
			c.sum.Best, c.haveBest = r6(it.Value), true
		}
	}
}

// SeedEnd implements fuzz.SearchObserver.
func (c *Collector) SeedEnd(seed svg.Seed, iters int, found bool, errMsg string) {
	class := Classify(c.trail, found, errMsg)
	best := 0.0
	if c.haveSeed {
		best = r6(c.seedBest)
	}
	c.write(SeedRecord{
		Type:      TypeSeed,
		Target:    seed.Target,
		Victim:    seed.Victim,
		Direction: seed.Direction.String(),
		Influence: r6(seed.Influence),
		VDO:       r6(seed.VDO),
		Class:     class,
		Iters:     iters,
		Best:      best,
		Err:       errMsg,
		Trail:     c.trail,
	})
	c.sum.Seeds++
	c.sum.Iters += iters
	c.sum.Classes[class]++
	switch class {
	case ClassStalled:
		c.rec.Add(telemetry.MSearchStalls, 1)
	case ClassCracked:
		c.sum.Cracked = true
		c.rec.Observe(telemetry.MItersPerCrack, float64(iters))
	}
	c.trail = nil // the record now owns the slice
}

// EndSearch implements fuzz.SearchObserver.
func (c *Collector) EndSearch(found bool) {
	c.write(MissionEndRecord{
		Type:    TypeMissionEnd,
		Found:   found,
		Seeds:   c.sum.Seeds,
		Iters:   c.sum.Iters,
		Best:    c.sum.Best,
		Classes: c.sum.Classes,
		Hist:    c.sum.Hist,
	})
}

// Classify labels one seed's search outcome from its trail. The
// detectors are pure functions of the recorded values, so the
// classification is deterministic and re-derivable from the artifact.
func Classify(trail []TrailPoint, found bool, errMsg string) string {
	switch {
	case errMsg != "":
		return ClassError
	case found:
		return ClassCracked
	case stalledTrail(trail):
		return ClassStalled
	case oscillatingTrail(trail):
		return ClassOscillating
	case divergedTrail(trail):
		return ClassDiverged
	default:
		return ClassExhausted
	}
}

// stalledTrail detects a plateau: the final stretch of objective
// values spans less than stallEps — the descent went flat and burned
// the rest of its budget without moving.
func stalledTrail(trail []TrailPoint) bool {
	const window, stallEps = 3, 1e-3
	if len(trail) < window {
		return false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range trail[len(trail)-window:] {
		lo = math.Min(lo, p.Value)
		hi = math.Max(hi, p.Value)
	}
	return hi-lo < stallEps
}

// oscillatingTrail detects a bouncing objective: successive value
// changes flip sign at least half the time over a long-enough trail.
func oscillatingTrail(trail []TrailPoint) bool {
	if len(trail) < 4 {
		return false
	}
	flips, diffs := 0, 0
	prev, havePrev := 0.0, false
	for i := 1; i < len(trail); i++ {
		d := trail[i].Value - trail[i-1].Value
		if d == 0 {
			continue
		}
		if havePrev && (d > 0) != (prev > 0) {
			flips++
		}
		prev, havePrev = d, true
		diffs++
	}
	return diffs >= 3 && flips*2 >= diffs
}

// divergedTrail detects a search that ended meaningfully worse than it
// started.
func divergedTrail(trail []TrailPoint) bool {
	if len(trail) < 2 {
		return false
	}
	return trail[len(trail)-1].Value > trail[0].Value+1e-6
}
