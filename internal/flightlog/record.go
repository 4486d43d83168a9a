package flightlog

import (
	"math"

	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/vec"
)

// Vec is the compact JSON encoding of a vec.Vec3: [x, y, z] with each
// component rounded to 1e-6 m. Sub-micrometre structure is integration
// noise; fixed rounding keeps records short and byte-stable.
type Vec [3]float64

// r6 rounds to 1e-6, the log's scalar resolution.
func r6(x float64) float64 { return math.Round(x*1e6) / 1e6 }

func v3(v vec.Vec3) Vec { return Vec{r6(v.X), r6(v.Y), r6(v.Z)} }

// Record type discriminators: every JSONL line carries one of these in
// its "type" field.
const (
	TypeMission = "mission"
	TypeRun     = "run"
	TypeStep    = "step"
	TypeEvent   = "event"
	TypeRunEnd  = "run_end"
	TypeSVG     = "svg"
	TypeSeeds   = "seeds"
	TypeSearch  = "search"
	TypeFinding = "finding"
	TypeNote    = "note"
)

// MissionRecord is the log's header: everything needed to re-interpret
// the step stream geometrically (world, start positions, timing). It is
// written once, before the first run.
type MissionRecord struct {
	Type        string           `json:"type"`
	NumDrones   int              `json:"num_drones"`
	Seed        uint64           `json:"seed"`
	Dt          float64          `json:"dt"`
	SampleEvery int              `json:"sample_every"`
	MaxTime     float64          `json:"max_time"`
	DroneRadius float64          `json:"drone_radius"`
	Axis        Vec              `json:"axis"`
	Destination Vec              `json:"destination"`
	DestRadius  float64          `json:"dest_radius"`
	Obstacles   []ObstacleRecord `json:"obstacles"`
	Start       []Vec            `json:"start"`
}

// ObstacleRecord is one cylindrical obstacle.
type ObstacleRecord struct {
	Center Vec     `json:"center"`
	Radius float64 `json:"radius"`
}

// SpoofRecord is a gps.SpoofPlan in log form.
type SpoofRecord struct {
	Target    int     `json:"target"`
	Start     float64 `json:"ts"`
	Duration  float64 `json:"dt"`
	Direction int     `json:"direction"`
	Distance  float64 `json:"distance"`
}

func newSpoofRecord(p gps.SpoofPlan) SpoofRecord {
	return SpoofRecord{
		Target:    p.Target,
		Start:     r6(p.Start),
		Duration:  r6(p.Duration),
		Direction: int(p.Direction),
		Distance:  r6(p.Distance),
	}
}

// RunRecord opens one simulation run within the mission log. Subsequent
// step/event records reference it by label.
type RunRecord struct {
	Type  string       `json:"type"`
	Run   string       `json:"run"`
	Spoof *SpoofRecord `json:"spoof,omitempty"`
}

// TermsRecord is the per-goal sub-velocity decomposition of one drone's
// command (flock.Terms). Command = clamp(mig+rep+att+fri+obs+alt).
type TermsRecord struct {
	Migration  Vec `json:"mig"`
	Repulsion  Vec `json:"rep"`
	Attraction Vec `json:"att"`
	Friction   Vec `json:"fri"`
	Obstacle   Vec `json:"obs"`
	Altitude   Vec `json:"alt"`
}

func newTermsRecord(t flock.Terms) *TermsRecord {
	return &TermsRecord{
		Migration:  v3(t.Migration),
		Repulsion:  v3(t.Repulsion),
		Attraction: v3(t.Attraction),
		Friction:   v3(t.Friction),
		Obstacle:   v3(t.Obstacle),
		Altitude:   v3(t.Altitude),
	}
}

// DroneState is one drone's slice of a step record: true state, the
// GPS fix its controller actually saw, the command it issued, and the
// term decomposition behind that command. Crashed drones keep their
// last true position but carry no terms and a zero command.
type DroneState struct {
	ID      int          `json:"id"`
	Crashed bool         `json:"crashed,omitempty"`
	Pos     Vec          `json:"pos"`
	Vel     Vec          `json:"vel"`
	GPS     Vec          `json:"gps"`
	Spoofed bool         `json:"spoofed,omitempty"`
	Cmd     Vec          `json:"cmd"`
	Terms   *TermsRecord `json:"terms,omitempty"`
}

// StepRecord is one sampled control step: the black box's core record.
// MinSep is the minimum pairwise true distance between active drones
// and MinClear the minimum obstacle clearance (surface distance minus
// drone radius) over active drones; both are -1 when undefined (fewer
// than two active drones, or none).
type StepRecord struct {
	Type        string       `json:"type"`
	Run         string       `json:"run"`
	Step        int          `json:"step"`
	T           float64      `json:"t"`
	SpoofActive bool         `json:"spoof_active,omitempty"`
	MinSep      float64      `json:"min_sep"`
	MinClear    float64      `json:"min_clear"`
	Drones      []DroneState `json:"drones"`
}

// EventRecord is a discrete event within a run — currently only
// collisions ("collision" with Kind "obstacle" or "drone").
type EventRecord struct {
	Type  string  `json:"type"`
	Run   string  `json:"run"`
	Event string  `json:"event"`
	Drone int     `json:"drone"`
	Kind  string  `json:"kind"`
	Other int     `json:"other"`
	T     float64 `json:"t"`
	Pos   Vec     `json:"pos"`
}

// RunEndRecord closes one run with its outcome. Err is set when the
// run aborted on divergence instead of producing a result.
type RunEndRecord struct {
	Type         string    `json:"type"`
	Run          string    `json:"run"`
	Completed    bool      `json:"completed"`
	Duration     float64   `json:"duration"`
	Collisions   int       `json:"collisions"`
	MinClearance []float64 `json:"min_clearance,omitempty"`
	Err          string    `json:"err,omitempty"`
}

// EdgeRecord is one weighted SVG edge i->j: "drone i is maliciously
// influenced by drone j".
type EdgeRecord struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Weight float64 `json:"weight"`
}

// SVGRecord is one direction's Swarm Vulnerability Graph, with edges in
// deterministic (from, to) order.
type SVGRecord struct {
	Type      string       `json:"type"`
	Direction int          `json:"direction"`
	Nodes     int          `json:"nodes"`
	Edges     []EdgeRecord `json:"edges"`
}

// SeedRecord is one scheduled fuzzing seed with its scores.
type SeedRecord struct {
	Target    int     `json:"target"`
	Victim    int     `json:"victim"`
	Direction int     `json:"direction"`
	Influence float64 `json:"influence"`
	VDO       float64 `json:"vdo"`
}

// SeedsRecord is the scheduled seed order for the mission.
type SeedsRecord struct {
	Type  string       `json:"type"`
	Seeds []SeedRecord `json:"seeds"`
}

// SearchRecord is one gradient-search (or random-search) iterate on a
// seed: candidate attack window (ts, dt) and the objective value (the
// victim's minimum obstacle clearance under that window).
type SearchRecord struct {
	Type      string  `json:"type"`
	Target    int     `json:"target"`
	Victim    int     `json:"victim"`
	Direction int     `json:"direction"`
	Iter      int     `json:"iter"`
	TS        float64 `json:"ts"`
	DT        float64 `json:"dt"`
	Value     float64 `json:"value"`
}

// FindingRecord is one cracked seed: the spoof plan that produced a
// collision, the victim it hit, and the objective value at the crack.
type FindingRecord struct {
	Type   string      `json:"type"`
	Spoof  SpoofRecord `json:"spoof"`
	Victim int         `json:"victim"`
	Value  float64     `json:"value"`
}

// NoteRecord is free-form mission context (e.g. degraded-cell errors).
type NoteRecord struct {
	Type  string `json:"type"`
	Key   string `json:"key"`
	Value string `json:"value"`
}
