package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/telemetry"
	"swarmfuzz/internal/vec"
)

// Perception is everything one drone's controller may use about itself:
// its GPS fix (perceived — possibly spoofed — position) and its own
// velocity from inertial sensing. Controllers must not reach into the
// simulator's true state; the Vicsek algorithm "performs collision
// avoidance based solely on the GPS sensor reading" (§V-A).
type Perception struct {
	// ID is the drone's index within the swarm.
	ID int
	// GPS is the current (possibly spoofed) GPS fix.
	GPS gps.Reading
	// Velocity is the drone's own velocity estimate.
	Velocity vec.Vec3
	// Time is the mission time in seconds.
	Time float64
}

// Controller computes a desired-velocity command from a drone's own
// perception, the neighbour states received over the bus, and the
// static world. Implementations must be pure functions of their inputs
// (no per-call state), so one instance can serve the whole swarm.
type Controller interface {
	Command(p Perception, neighbors []comms.State, w *World) vec.Vec3
}

// BatchController is a Controller that can also derive one tick of
// commands for the whole swarm straight from the structure-of-arrays
// broadcast, without materialising per-receiver neighbour rows. The
// Stepper uses it for every run it can (see Stepper), so an
// implementation must be bit-identical to calling Command per drone
// with PerfectBus neighbour rows: same neighbour order (ascending
// index, self skipped), same arithmetic.
//
// A type that overrides Command must not promote BatchCommands — do
// not embed a BatchController in a wrapper that changes behaviour;
// hold it in a named field. Otherwise the Stepper takes the batch
// path and the override never runs.
type BatchController interface {
	Controller
	// NewBatchScratch returns the per-receiver accumulator storage
	// BatchCommands needs for a swarm of n drones. The Stepper asks for
	// it once per run and lends it to every BatchCommands call of that
	// run, so the controller itself holds no mutable state and one
	// instance can serve concurrent runs.
	NewBatchScratch(n int) any
	// BatchCommands writes, for every active drone i, the command
	// derived from its own broadcast state and its neighbours' into
	// cmds[i]. Entries of inactive drones are zeroed.
	//
	// It returns the minimum squared distance between any two active
	// drones' broadcast positions, +Inf when fewer than two drones are
	// active. The pair loop computes every pairwise distance anyway,
	// so the minimum is a by-product; the Stepper uses it to prove the
	// drone-pair collision scan empty (see pairScanNeeded).
	BatchCommands(b *comms.Broadcast, w *World, scratch any, cmds []vec.Vec3) (minPairD2 float64)
}

// CollisionKind distinguishes what a drone collided with.
type CollisionKind int

// Collision kinds.
const (
	// KindObstacle is a drone-obstacle collision — the attack outcome
	// SwarmFuzz searches for.
	KindObstacle CollisionKind = iota + 1
	// KindDrone is a drone-drone collision. The paper's threat model
	// does not count these as attack successes, but the simulator
	// reports them so the fuzzer can reject such runs.
	KindDrone
)

// String implements fmt.Stringer.
func (k CollisionKind) String() string {
	switch k {
	case KindObstacle:
		return "obstacle"
	case KindDrone:
		return "drone"
	default:
		return fmt.Sprintf("CollisionKind(%d)", int(k))
	}
}

// Collision is one collision event.
type Collision struct {
	// Drone is the index of the colliding drone.
	Drone int
	// Kind reports what it collided with.
	Kind CollisionKind
	// Other is the obstacle index (KindObstacle) or the other drone's
	// index (KindDrone).
	Other int
	// Time is the mission time of the event.
	Time float64
	// Pos is the drone's true position at the event.
	Pos vec.Vec3
}

// Trajectory is the recorded clean-run information SwarmFuzz needs to
// build the SVG: true drone positions over time and the mean
// inter-drone distance series used to find t_clo.
type Trajectory struct {
	// Times holds the sample times.
	Times []float64
	// Positions holds, per sample, the true position of every drone.
	Positions [][]vec.Vec3
	// Velocities holds, per sample, the true velocity of every drone.
	Velocities [][]vec.Vec3
	// MeanInterDist holds, per sample, the mean pairwise inter-drone
	// distance of active drones.
	MeanInterDist []float64

	// forks holds the resumable state of a clean run over a memoryless
	// bus (see RunOptions.Prefix); nil for any other recording.
	forks *forkPoints
}

// forkEvery is the fork-point cadence in integration steps: a clean
// run that records its trajectory snapshots its state at the start of
// every step whose index is a multiple of forkEvery.
const forkEvery = 20

// forkPoints are a clean run's state snapshots. Snapshot k is the state
// at the start of step k·forkEvery, i.e. everything steps 0..k·forkEvery−1
// produced: bodies, each sensor's noise-stream position and each
// drone's obstacle clearance so far in flat [snapshot][drone] arrays,
// plus the count of collisions recorded before the step.
type forkPoints struct {
	m      *Mission
	bodies []Body
	draws  []uint64
	clear  []float64
	ncoll  []int
	// colls is a copy of the recording run's collision list, taken when
	// the run finishes; snapshot k's collisions are colls[:ncoll[k]].
	colls []Collision
}

// record appends the snapshot for the stepper's current step.
func (fp *forkPoints) record(s *Stepper) {
	fp.bodies = append(fp.bodies, s.bodies...)
	for _, sen := range s.sensors {
		fp.draws = append(fp.draws, sen.Draws())
	}
	fp.clear = append(fp.clear, s.res.MinClearance...)
	fp.ncoll = append(fp.ncoll, len(s.res.Collisions))
}

// ClosestSample returns the index of the sample with the smallest mean
// inter-drone distance (t_clo in the paper), or -1 for an empty
// trajectory.
func (t *Trajectory) ClosestSample() int {
	best := -1
	bestVal := 0.0
	for i, v := range t.MeanInterDist {
		if best == -1 || v < bestVal {
			best, bestVal = i, v
		}
	}
	return best
}

// Result summarises one mission run.
type Result struct {
	// Duration is the mission time at which the run ended (arrival of
	// all active drones, or MaxTime).
	Duration float64
	// Completed reports whether every non-crashed drone reached the
	// destination.
	Completed bool
	// Collisions lists every collision event, in time order.
	Collisions []Collision
	// MinClearance holds, per drone, the minimum obstacle clearance
	// (surface distance minus drone radius) observed during the run.
	// Non-positive clearance is a collision. This is the paper's
	// "distance to the obstacle" D_ob, from which the VDO is derived.
	MinClearance []float64
	// Trajectory is the recorded trajectory, nil unless requested.
	Trajectory *Trajectory
}

// CollisionOf returns the first collision of the given drone, or nil.
func (r *Result) CollisionOf(drone int) *Collision {
	for i := range r.Collisions {
		if r.Collisions[i].Drone == drone {
			return &r.Collisions[i]
		}
	}
	return nil
}

// ObstacleCollisions returns the collisions with obstacles only.
func (r *Result) ObstacleCollisions() []Collision {
	cnt := 0
	for _, c := range r.Collisions {
		if c.Kind == KindObstacle {
			cnt++
		}
	}
	if cnt == 0 {
		return nil
	}
	out := make([]Collision, 0, cnt)
	for _, c := range r.Collisions {
		if c.Kind == KindObstacle {
			out = append(out, c)
		}
	}
	return out
}

// RunOptions configure one mission run.
type RunOptions struct {
	// Controller computes each drone's velocity command. Required.
	Controller Controller
	// Bus is the communication model; nil selects a PerfectBus.
	Bus comms.Bus
	// Spoof, when non-nil, injects a GPS spoofing attack.
	Spoof *gps.SpoofPlan
	// RecordTrajectory enables trajectory recording (needed for the
	// initial test-run; skipped during fuzzing iterations for speed).
	RecordTrajectory bool
	// StepBudget, when positive, caps the number of integration steps.
	// A run that exhausts the budget before completing returns an
	// error wrapping robust.ErrDiverged instead of a garbage
	// trajectory. 0 means the MaxTime/Dt bound only.
	StepBudget int
	// Telemetry receives the run's counters (sim_runs, sim_steps) and
	// its wall-time histogram sample; nil disables recording.
	Telemetry telemetry.Recorder
	// Flight, when non-nil, receives the run's black-box recording: the
	// full sensed/decided/true state of every sample step plus
	// collision events and the final result. Nil (the default) records
	// nothing and costs one nil check per step on the hot path.
	Flight FlightRecorder
	// Prefix, when non-nil, is the recorded trajectory of a clean run
	// of the same mission with the same controller. The run resumes
	// from the latest fork point of that run whose preceding steps the
	// spoof plan cannot have touched, skipping the steps the two runs
	// share; its Result is bit-identical to a full run's. Only plain
	// runs can resume: Prefix excludes a non-nil Bus (a resumed run
	// exchanges over a fresh PerfectBus), Flight and RecordTrajectory.
	Prefix *Trajectory
}

// errNilController is returned when RunOptions lack a controller.
var errNilController = errors.New("sim: RunOptions.Controller is required")

// validatePrefix rejects option combinations a resumed run cannot
// honour: the skipped steps' bus exchanges, flight records and
// trajectory samples never happen.
func validatePrefix(m *Mission, opts RunOptions) error {
	p := opts.Prefix
	switch {
	case opts.Bus != nil:
		return errors.New("sim: Prefix runs use the default PerfectBus; Bus must be nil")
	case opts.Flight != nil:
		return errors.New("sim: Prefix runs cannot be flight-recorded")
	case opts.RecordTrajectory:
		return errors.New("sim: Prefix runs cannot record a trajectory")
	case p.forks == nil:
		return errors.New("sim: Prefix trajectory carries no fork points (record it from a clean run over a memoryless bus)")
	case p.forks.m != m:
		return errors.New("sim: Prefix was recorded on a different mission")
	}
	return nil
}

// Stepper simulates one mission incrementally, one integration step
// per Step call. It owns all per-run scratch — observation arenas (via
// the bus) or broadcast columns and controller accumulators, GPS
// readings, commands, trajectory backing arrays and the collision grid
// — so a steady-state Step performs zero heap allocations. Run drives a
// Stepper to completion; external callers (benchmarks, interactive
// tooling) may drive it directly.
//
// The decide phase takes one of two paths. A run whose controller is a
// BatchController, whose bus is a PerfectBus and which has no flight
// recorder hands the Stepper's broadcast columns to BatchCommands (the
// batch path). Everything else exchanges State rows over the bus and
// calls Command per drone (the row path): lossy, delayed and range
// buses shape each receiver's view, and flight records need the rows.
// Both paths share sense, actuate, collision, recording and arrival.
//
// A Stepper is single-use and not safe for concurrent use. Slices
// handed to the FlightRecorder and the trajectory rows alias the
// stepper's reusable buffers per the FlightStep contract.
type Stepper struct {
	m       *Mission
	cfg     MissionConfig
	ctrl    Controller
	bus     comms.Bus
	spoofer *gps.Spoofer
	flight  FlightRecorder

	bodies  []Body
	sensors []*gps.Sensor
	res     *Result
	traj    *Trajectory
	forks   *forkPoints
	// posFlat/velFlat are the flat backing arrays trajectory sample
	// rows are sliced from, reserved once from the known sample count.
	posFlat []vec.Vec3
	velFlat []vec.Vec3

	published []comms.State
	readings  []gps.Reading
	cmds      []vec.Vec3
	collider  droneCollider
	pairs     [][2]int

	// batch is non-nil on the batch path; bc holds its broadcast
	// columns and scratch the controller's accumulators.
	batch   BatchController
	bc      comms.Broadcast
	scratch any

	steps        int
	budgetCapped bool
	stepBudget   int
	step         int
	stepsRun     int
	tEnd         float64
	done         bool
	err          error
}

// NewStepper validates opts and returns a Stepper ready to run m. It
// performs no side effects on telemetry or flight recorders; Run adds
// those around it.
func NewStepper(m *Mission, opts RunOptions) (*Stepper, error) {
	if opts.Controller == nil {
		return nil, errNilController
	}
	if opts.Prefix != nil {
		if err := validatePrefix(m, opts); err != nil {
			return nil, err
		}
	}
	cfg := m.Config
	bus := opts.Bus
	if bus == nil {
		bus = comms.NewPerfectBus()
	}
	var spoofer *gps.Spoofer
	if opts.Spoof != nil {
		if err := opts.Spoof.Validate(); err != nil {
			return nil, err
		}
		if opts.Spoof.Target >= cfg.NumDrones {
			return nil, fmt.Errorf("sim: spoof target %d out of range (%d drones)",
				opts.Spoof.Target, cfg.NumDrones)
		}
		spoofer = gps.NewSpoofer(*opts.Spoof, m.Axis)
	}

	n := cfg.NumDrones
	s := &Stepper{
		m:          m,
		cfg:        cfg,
		ctrl:       opts.Controller,
		bus:        bus,
		spoofer:    spoofer,
		flight:     opts.Flight,
		bodies:     make([]Body, n),
		sensors:    make([]*gps.Sensor, n),
		published:  make([]comms.State, 0, n),
		readings:   make([]gps.Reading, n),
		cmds:       make([]vec.Vec3, n),
		stepBudget: opts.StepBudget,
		tEnd:       cfg.MaxTime,
	}
	for i := 0; i < n; i++ {
		s.bodies[i] = Body{Pos: m.Start[i]}
		s.sensors[i] = gps.NewSensor(cfg.GPSBias, cfg.GPSNoise, rng.DeriveN(cfg.Seed, "gps", i))
	}
	if bc, ok := opts.Controller.(BatchController); ok && opts.Flight == nil {
		if _, perfect := bus.(*comms.PerfectBus); perfect {
			s.batch = bc
			s.scratch = bc.NewBatchScratch(n)
			s.bc = comms.Broadcast{
				Pos:    make([]vec.Vec3, n),
				Vel:    make([]vec.Vec3, n),
				Active: make([]bool, n),
			}
		}
	}

	s.res = &Result{MinClearance: make([]float64, n)}
	for i := range s.res.MinClearance {
		_, d := m.World.NearestObstacle(s.bodies[i].Pos)
		s.res.MinClearance[i] = d - cfg.DroneRadius
	}
	if opts.RecordTrajectory {
		est := int(cfg.MaxTime/cfg.Dt)/cfg.SampleEvery + 2
		s.traj = &Trajectory{
			Times:         make([]float64, 0, est),
			Positions:     make([][]vec.Vec3, 0, est),
			Velocities:    make([][]vec.Vec3, 0, est),
			MeanInterDist: make([]float64, 0, est),
		}
		s.posFlat = make([]vec.Vec3, 0, est*n)
		s.velFlat = make([]vec.Vec3, 0, est*n)
	}

	s.steps = int(cfg.MaxTime / cfg.Dt)
	if opts.StepBudget > 0 && opts.StepBudget < s.steps {
		s.steps = opts.StepBudget
		s.budgetCapped = true
	}
	if s.traj != nil && spoofer == nil && bus.Memoryless() {
		est := s.steps/forkEvery + 1
		s.forks = &forkPoints{
			m:      m,
			bodies: make([]Body, 0, est*n),
			draws:  make([]uint64, 0, est*n),
			clear:  make([]float64, 0, est*n),
			ncoll:  make([]int, 0, est),
		}
		s.traj.forks = s.forks
	}
	if opts.Prefix != nil {
		s.resume(opts.Prefix.forks, opts.Spoof)
	}
	return s, nil
}

// resume restores the latest snapshot of fp from which this run
// reproduces a full run: every step before it must precede the spoof
// window — tested with the very time expression Step hands to
// SpoofPlan.Active — and its step must lie within this run's step
// bound. Snapshot 0 is the initial state, so there is always one.
func (s *Stepper) resume(fp *forkPoints, plan *gps.SpoofPlan) {
	start := math.Inf(1)
	if plan != nil {
		start = plan.Start
	}
	k := sort.Search(len(fp.ncoll), func(k int) bool {
		step := k * forkEvery
		return step > s.steps || float64(step-1)*s.cfg.Dt >= start
	}) - 1
	if k <= 0 {
		return
	}
	n := len(s.bodies)
	copy(s.bodies, fp.bodies[k*n:(k+1)*n])
	copy(s.res.MinClearance, fp.clear[k*n:(k+1)*n])
	if c := fp.ncoll[k]; c > 0 {
		s.res.Collisions = append([]Collision(nil), fp.colls[:c]...)
	}
	for i, sen := range s.sensors {
		sen.AdvanceTo(fp.draws[k*n+i])
	}
	s.step = k * forkEvery
}

// StepsRun returns the number of integration steps executed so far; a
// run resumed from a Prefix counts only the steps it executed itself.
func (s *Stepper) StepsRun() int { return s.stepsRun }

// Result returns the run's Result once Step has reported done without
// error, nil before that or after a failed run.
func (s *Stepper) Result() *Result {
	if !s.done || s.err != nil {
		return nil
	}
	return s.res
}

// finish seals the result on a successful exit.
func (s *Stepper) finish() {
	s.res.Duration = s.tEnd
	s.res.Trajectory = s.traj
	if s.forks != nil {
		s.forks.colls = append([]Collision(nil), s.res.Collisions...)
	}
	s.done = true
}

// Step advances the simulation one tick. It returns done=true when the
// run has ended — mission complete, time or step budget exhausted, or
// a divergence error — and the terminal error, if any. Calling Step
// after done re-returns the terminal state.
func (s *Stepper) Step() (done bool, err error) {
	if s.done {
		return true, s.err
	}
	if s.forks != nil && s.step%forkEvery == 0 {
		s.forks.record(s)
	}
	n := len(s.bodies)
	cfg := s.cfg
	s.stepsRun++
	t := float64(s.step) * cfg.Dt

	// (1) Sense: read GPS (with spoofing).
	for i := 0; i < n; i++ {
		if !s.bodies[i].Crashed {
			s.readings[i] = s.spoofer.Apply(i, s.sensors[i].Read(s.bodies[i].Pos, t))
		}
	}

	// (2) Broadcast and (3)+(4) decide: every active drone derives its
	// command from its own perception and the received states.
	var observations [][]comms.State
	minPairD2, maxErrD2 := 0.0, 0.0 // a zero bound proves nothing
	if s.batch != nil {
		minPairD2, maxErrD2 = s.decideBatch(t)
	} else {
		observations = s.decideRows(t)
	}

	// Flight recording sits between decide and actuate, so the
	// recorded Commands are exactly what the controllers derived
	// from the recorded Readings and Observations. The slices
	// alias the stepper's buffers; recorders copy what they keep.
	if s.flight != nil && s.step%cfg.SampleEvery == 0 {
		s.flight.RecordStep(FlightStep{
			Step:         s.step,
			Time:         t,
			Bodies:       s.bodies,
			Readings:     s.readings,
			Commands:     s.cmds,
			Observations: observations,
		})
	}

	// Actuate, guarding against numerical divergence: a state that
	// leaves the realm of finite numbers poisons every derived
	// metric (clearances, SVG weights, gradients), so the run is
	// aborted rather than aggregated. maxVelD2 is the worst squared
	// speed after the step, for pairScanNeeded.
	maxVelD2 := 0.0
	for i := 0; i < n; i++ {
		b := &s.bodies[i]
		b.Step(s.cmds[i], cfg.Body, cfg.Dt)
		if b.Crashed {
			continue
		}
		if !b.Pos.IsFinite() || !b.Vel.IsFinite() {
			s.done = true
			s.err = fmt.Errorf("sim: drone %d state non-finite at t=%.2fs (pos %v, vel %v): %w",
				i, t, b.Pos, b.Vel, robust.ErrDiverged)
			return true, s.err
		}
		if v2 := b.Vel.NormSq(); v2 > maxVelD2 {
			maxVelD2 = v2
		}
	}

	// Collision detection on true positions.
	for i := 0; i < n; i++ {
		if s.bodies[i].Crashed {
			continue
		}
		oi, d := s.m.World.NearestObstacle(s.bodies[i].Pos)
		clear := d - cfg.DroneRadius
		if clear < s.res.MinClearance[i] {
			s.res.MinClearance[i] = clear
		}
		if oi >= 0 && clear <= 0 {
			s.bodies[i].Crashed = true
			c := Collision{Drone: i, Kind: KindObstacle, Other: oi, Time: t, Pos: s.bodies[i].Pos}
			s.res.Collisions = append(s.res.Collisions, c)
			if s.flight != nil {
				s.flight.RecordCollision(c)
			}
		}
	}
	if s.pairScanNeeded(minPairD2, maxErrD2, maxVelD2) {
		s.pairs = s.collider.collide(s.bodies, 2*cfg.DroneRadius, s.pairs[:0])
		for _, p := range s.pairs {
			i, j := p[0], p[1]
			ci := Collision{Drone: i, Kind: KindDrone, Other: j, Time: t, Pos: s.bodies[i].Pos}
			cj := Collision{Drone: j, Kind: KindDrone, Other: i, Time: t, Pos: s.bodies[j].Pos}
			s.res.Collisions = append(s.res.Collisions, ci, cj)
			if s.flight != nil {
				s.flight.RecordCollision(ci)
				s.flight.RecordCollision(cj)
			}
		}
	}

	// Record: sample rows are sliced off the flat backing arrays so a
	// full trajectory costs two allocations per run, not two per sample.
	if s.traj != nil && s.step%cfg.SampleEvery == 0 {
		mark := len(s.posFlat)
		for i := 0; i < n; i++ {
			s.posFlat = append(s.posFlat, s.bodies[i].Pos)
			s.velFlat = append(s.velFlat, s.bodies[i].Vel)
		}
		s.traj.Times = append(s.traj.Times, t)
		s.traj.Positions = append(s.traj.Positions, s.posFlat[mark:len(s.posFlat):len(s.posFlat)])
		s.traj.Velocities = append(s.traj.Velocities, s.velFlat[mark:len(s.velFlat):len(s.velFlat)])
		s.traj.MeanInterDist = append(s.traj.MeanInterDist, meanInterDistance(s.bodies))
	}

	// Completion: every active drone has crossed the arrival plane.
	if allArrived(s.bodies, s.m) {
		s.res.Completed = true
		s.tEnd = t
		s.finish()
		return true, nil
	}

	s.step++
	if s.step > s.steps {
		if s.budgetCapped && !s.res.Completed {
			s.done = true
			s.err = fmt.Errorf("sim: step budget %d exhausted before completion: %w",
				s.stepBudget, robust.ErrDiverged)
			return true, s.err
		}
		s.finish()
		return true, nil
	}
	return false, nil
}

// decideRows is the row path's decide phase: publish every active
// drone's state, exchange over the bus and call Command per drone. It
// returns the observations, which alias the bus's arena and are valid
// for this tick only — exactly the lifetime the FlightStep contract
// needs.
func (s *Stepper) decideRows(t float64) [][]comms.State {
	s.published = s.published[:0]
	for i := range s.bodies {
		if s.bodies[i].Crashed {
			continue
		}
		s.published = append(s.published, comms.State{
			ID:       i,
			Position: s.readings[i].Position,
			Velocity: s.bodies[i].Vel,
			Time:     t,
		})
	}
	observations := s.bus.ExchangeInto(s.published)
	obsIdx := 0
	for i := range s.bodies {
		if s.bodies[i].Crashed {
			s.cmds[i] = vec.Zero
			continue
		}
		s.cmds[i] = s.ctrl.Command(Perception{
			ID:       i,
			GPS:      s.readings[i],
			Velocity: s.bodies[i].Vel,
			Time:     t,
		}, observations[obsIdx], &s.m.World)
		obsIdx++
	}
	return observations
}

// decideBatch is the batch path's decide phase: fill the broadcast
// columns and let the controller sweep them. It returns the kernel's
// minimum squared broadcast pair distance and the worst squared
// sensing error (noise, bias and spoof displacement) of any active
// drone. A NaN error never compares ≤, so it poisons the bound and
// keeps the collision scan.
func (s *Stepper) decideBatch(t float64) (minPairD2, maxErrD2 float64) {
	for i := range s.bodies {
		b := &s.bodies[i]
		s.bc.Active[i] = !b.Crashed
		if b.Crashed {
			continue
		}
		s.bc.Pos[i] = s.readings[i].Position
		s.bc.Vel[i] = b.Vel
		if e2 := s.readings[i].Position.Sub(b.Pos).NormSq(); !(e2 <= maxErrD2) {
			maxErrD2 = e2
		}
	}
	s.bc.Time = t
	return s.batch.BatchCommands(&s.bc, &s.m.World, s.scratch, s.cmds), maxErrD2
}

// pairScanNeeded reports whether this tick's drone-pair collision scan
// can find a pair. The batch path's decide phase measured the closest
// perceived pair before this tick's motion; true distances differ from
// perceived ones by at most the worst sensing error per endpoint, and
// the motion closed any pair by at most one displacement (|vel|·Dt,
// Body.Step moves by exactly that) per endpoint. When even that lower
// bound clears the collision threshold — with a 1e-6 m pad that swamps
// the few float roundings in the chain — the scan provably returns no
// pairs and is skipped. Any doubt (a zero bound from the row path,
// coincident perceptions, large spoof errors, NaNs) fails the test and
// runs the scan, so skipping never changes an output bit. A swarm
// cruising metres apart against a 2·DroneRadius threshold culls nearly
// every tick.
func (s *Stepper) pairScanNeeded(minPairD2, maxErrD2, maxVelD2 float64) bool {
	lower := math.Sqrt(minPairD2) - 2*math.Sqrt(maxErrD2) - 2*math.Sqrt(maxVelD2)*s.cfg.Dt - 1e-6
	return !(lower > 2*s.cfg.DroneRadius)
}

// Run simulates the mission and returns its Result. It is
// deterministic: identical mission, options and spoof plan yield an
// identical result.
func Run(m *Mission, opts RunOptions) (res *Result, err error) {
	st, err := NewStepper(m, opts)
	if err != nil {
		return nil, err
	}

	// The flight recorder only observes runs that passed validation, and
	// its EndFlight fires exactly once on every exit — success,
	// divergence abort or exhausted step budget — with the same values
	// the caller receives.
	if opts.Flight != nil {
		opts.Flight.BeginFlight(m, opts.Spoof)
		defer func() { opts.Flight.EndFlight(res, err) }()
	}

	// Every run that passes validation counts as one simulation —
	// including runs later aborted by divergence or the step budget,
	// whose integration work was still spent. fuzz mirrors sim_runs
	// into Report.SimRuns, making this the single counting site.
	rec := telemetry.OrNop(opts.Telemetry)
	wallStart := rec.Now()
	defer func() {
		rec.Add(telemetry.MSimRuns, 1)
		rec.Add(telemetry.MSimSteps, int64(st.StepsRun()))
		rec.Observe(telemetry.MSimWallSeconds, rec.Now().Sub(wallStart).Seconds())
	}()

	for {
		done, serr := st.Step()
		if serr != nil {
			return nil, serr
		}
		if done {
			return st.Result(), nil
		}
	}
}

// allArrived reports whether every active drone has crossed the
// arrival plane: the plane perpendicular to the migration axis,
// DestRadius before the destination. A radius criterion would never be
// met by large swarms, whose physical footprint exceeds any fixed
// arrival circle.
func allArrived(bodies []Body, m *Mission) bool {
	anyActive := false
	for i := range bodies {
		if bodies[i].Crashed {
			continue
		}
		anyActive = true
		along := bodies[i].Pos.Sub(m.World.Destination).Dot(m.Axis)
		if along < -m.World.DestRadius {
			return false
		}
	}
	return anyActive
}

func meanInterDistance(bodies []Body) float64 {
	sum, cnt := 0.0, 0
	for i := range bodies {
		if bodies[i].Crashed {
			continue
		}
		for j := i + 1; j < len(bodies); j++ {
			if bodies[j].Crashed {
				continue
			}
			sum += bodies[i].Pos.Dist(bodies[j].Pos)
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
