package main

import (
	"encoding/json"
	"fmt"
	"time"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/telemetry"
	"swarmfuzz/internal/vec"
)

// counter is the recorder of the timed runs. It counts simulations and
// their steps from sim.Run's single counting site. Its Now returns the
// zero time, as the program's no-op recorder does, so sim.Run's per-run
// wall-time sample costs nothing. It reads the clock only to tick its
// gauge at each completed simulation.
type counter struct {
	sims, steps int64
	gauge       *gauge // ticked at each completed simulation, when set
}

var _ telemetry.Recorder = (*counter)(nil)

func (c *counter) Now() time.Time { return time.Time{} }
func (c *counter) StartSpan(telemetry.SpanID, string, ...telemetry.Attr) telemetry.Span {
	return telemetry.Span{}
}
func (c *counter) Set(string, float64)     {}
func (c *counter) Observe(string, float64) {}
func (c *counter) Add(name string, delta int64) {
	switch name {
	case telemetry.MSimRuns:
		c.sims += delta
		c.gauge.tick(false)
	case telemetry.MSimSteps:
		c.steps += delta
	}
}

// Stage names of the ledger. The program's own spans keep their names
// (campaign, mission, clean_run, seed_scheduling, gradient_search);
// scanStage is the campaign span's clean-safe scan, which has no span of
// its own: it runs from the campaign span's start until the campaign
// records missions_planned. The clean workload opens its mission, clean
// run and svg spans itself.
const (
	scanStage     = "scan"
	campaignSpan  = "campaign"
	missionSpan   = "mission"
	cleanStage    = "clean_run"
	scheduleStage = "seed_scheduling"
	searchStage   = "gradient_search"
	svgBuildStage = "svg_build"
	svgSchedStage = "svg_schedule"
	noStage       = "unattributed"
)

// stage is one row of the cost ledger.
type stage struct {
	spans       int
	wall        time.Duration
	sims, steps int64
	simWall     float64 // sum of sim_wall_seconds samples charged here
}

type openSpan struct {
	id    telemetry.SpanID
	name  string
	start time.Time
}

// ledger is the traced runs' recorder. It hands the program real spans
// (issued by a telemetry.Telemetry whose trace stream is the ledger
// itself), keeps the open ones on a stack, and charges every sim_runs,
// sim_steps and sim_wall_seconds record to the innermost stage open at
// that moment. That is exact because a workload runs on one goroutine
// at a time, so spans nest strictly.
type ledger struct {
	tel      *telemetry.Telemetry
	open     []openSpan
	stages   map[string]*stage
	counters map[string]int64
	root     time.Duration // summed wall time of the outermost spans
	err      error         // first span-nesting violation
}

var _ telemetry.Recorder = (*ledger)(nil)

func newLedger() *ledger {
	l := &ledger{stages: map[string]*stage{}, counters: map[string]int64{}}
	l.tel = telemetry.New(telemetry.NewRegistry(), l)
	return l
}

func (l *ledger) stage(name string) *stage {
	s := l.stages[name]
	if s == nil {
		s = &stage{}
		l.stages[name] = s
	}
	return s
}

// current names the stage the next record is charged to.
func (l *ledger) current() string {
	if len(l.open) == 0 {
		return noStage
	}
	if name := l.open[len(l.open)-1].name; name != campaignSpan {
		return name
	}
	return scanStage
}

func (l *ledger) Now() time.Time { return time.Now() }

func (l *ledger) StartSpan(parent telemetry.SpanID, name string, attrs ...telemetry.Attr) telemetry.Span {
	sp := l.tel.StartSpan(parent, name, attrs...)
	l.open = append(l.open, openSpan{id: sp.ID(), name: name, start: time.Now()})
	return sp
}

// Write receives the finished-span events of l.tel and closes the
// innermost open span, which must be the one that ended.
func (l *ledger) Write(p []byte) (int, error) {
	end := time.Now()
	var ev telemetry.SpanEvent
	if err := json.Unmarshal(p, &ev); err != nil {
		return 0, err
	}
	if len(l.open) == 0 || l.open[len(l.open)-1].id != telemetry.SpanID(ev.ID) {
		if l.err == nil {
			l.err = fmt.Errorf("ledger: span %d (%s) ended out of nesting order", ev.ID, ev.Name)
		}
		return len(p), nil
	}
	top := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	d := end.Sub(top.start)
	if len(l.open) == 0 {
		l.root += d
	}
	if top.name == campaignSpan {
		return len(p), nil
	}
	s := l.stage(top.name)
	s.spans++
	s.wall += d
	return len(p), nil
}

func (l *ledger) Add(name string, delta int64) {
	l.counters[name] += delta
	switch name {
	case telemetry.MSimRuns:
		l.stage(l.current()).sims += delta
	case telemetry.MSimSteps:
		l.stage(l.current()).steps += delta
	case telemetry.MMissionsPlanned:
		// The campaign records missions_planned as soon as its scan has
		// selected the clean-safe missions.
		if n := len(l.open); n > 0 && l.open[n-1].name == campaignSpan {
			s := l.stage(scanStage)
			s.spans++
			s.wall += time.Since(l.open[n-1].start)
		}
	}
}

func (l *ledger) Set(string, float64) {}

func (l *ledger) Observe(name string, v float64) {
	if name == telemetry.MSimWallSeconds {
		l.stage(l.current()).simWall += v
	}
}

// coveredStages are the stages that make up a mission: the scan, the
// clean run, seed scheduling (the program's own span, or the clean
// workload's svg spans) and the seed searches.
var coveredStages = []string{scanStage, cleanStage, scheduleStage, svgBuildStage, svgSchedStage, searchStage}

// coverage is the share of the outermost spans' wall time that the
// covered stages account for.
func (l *ledger) coverage() float64 {
	if l.root <= 0 {
		return 0
	}
	var covered time.Duration
	for _, name := range coveredStages {
		if s := l.stages[name]; s != nil {
			covered += s.wall
		}
	}
	return covered.Seconds() / l.root.Seconds()
}

// totals sums the ledger over all stages.
func (l *ledger) totals() stage {
	var t stage
	for _, s := range l.stages {
		t.sims += s.sims
		t.steps += s.steps
		t.simWall += s.simWall
	}
	return t
}

// closes reports whether the ledger accounts for exactly the given
// simulations and steps, with nothing charged outside a stage and every
// span closed in nesting order.
func (l *ledger) closes(sims, steps int64) error {
	if l.err != nil {
		return l.err
	}
	if len(l.open) > 0 {
		return fmt.Errorf("ledger: %d spans still open", len(l.open))
	}
	if s := l.stages[noStage]; s != nil && (s.sims != 0 || s.steps != 0) {
		return fmt.Errorf("ledger: %d sims / %d steps charged outside any stage", s.sims, s.steps)
	}
	if t := l.totals(); t.sims != sims || t.steps != steps {
		return fmt.Errorf("ledger: stages sum to %d sims / %d steps, untraced run counted %d / %d",
			t.sims, t.steps, sims, steps)
	}
	return nil
}

// layerSample is the sampling period of the step-layer timers: they
// time one call in layerSample and scale up, which keeps the clock reads
// of a traced clean pass from swamping the sub-microsecond calls they
// time.
const layerSample = 8

// sampler estimates the time spent in a wrapped call from the calls it
// times.
type sampler struct {
	calls, timed int64
	sampled      time.Duration
}

// begin counts a call and reports whether to time it.
func (s *sampler) begin() bool {
	s.calls++
	return s.calls%layerSample == 0
}

func (s *sampler) end(t0 time.Time) {
	s.timed++
	s.sampled += time.Since(t0)
}

// estimate scales the timed calls' time up to all calls.
func (s *sampler) estimate() time.Duration {
	if s.timed == 0 {
		return 0
	}
	return time.Duration(float64(s.sampled) * float64(s.calls) / float64(s.timed))
}

// timedController samples the time a wrapped controller spends in
// Command.
type timedController struct {
	sim.Controller
	sampler
}

func (c *timedController) Command(p sim.Perception, neighbors []comms.State, w *sim.World) vec.Vec3 {
	if !c.begin() {
		return c.Controller.Command(p, neighbors, w)
	}
	t0 := time.Now()
	v := c.Controller.Command(p, neighbors, w)
	c.end(t0)
	return v
}

// timedBus samples the time a wrapped bus spends in its exchanges.
type timedBus struct {
	comms.Bus
	s *sampler
}

func (b timedBus) ExchangeInto(published []comms.State) [][]comms.State {
	if !b.s.begin() {
		return b.Bus.ExchangeInto(published)
	}
	t0 := time.Now()
	obs := b.Bus.ExchangeInto(published)
	b.s.end(t0)
	return obs
}
