package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/gps"
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
// index, self skipped), same results, bit for bit.
//
// A type that overrides Command must not promote BatchCommands — do
// not embed a BatchController in a wrapper that changes behaviour;
// hold it in a named field. Otherwise the Stepper takes the batch
// path and the override never runs.
type BatchController interface {
	Controller
	// NewBatchScratch returns the per-receiver accumulator storage
	// BatchCommands needs for a swarm of n drones in world w, plus
	// whatever the controller derives once per run from n and w. The
	// Stepper asks for it once per run and lends it to every
	// BatchCommands call of that run, always with that same w, so the
	// controller itself holds no mutable state and one instance can
	// serve concurrent runs.
	NewBatchScratch(n int, w *World) any
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

// Trajectory is a run's recorded state: true drone positions and
// velocities at every sample step. The SVG's t_clo and every other
// analysis is derived from it downstream.
type Trajectory struct {
	// Times holds the sample times.
	Times []float64
	// Positions holds, per sample, the true position of every drone.
	Positions [][]vec.Vec3
	// Velocities holds, per sample, the true velocity of every drone.
	Velocities [][]vec.Vec3

	// forks holds the resumable state of an unspoofed run (see
	// RunOptions.Prefix); nil for a spoofed recording.
	forks *forkPoints
}

// forkEvery is the fork-point cadence in integration steps: a clean
// run that records its trajectory snapshots its state at the start of
// every step whose index is a multiple of forkEvery.
const forkEvery = 20

// trajChunk is the number of trajectory samples per backing chunk.
const trajChunk = 64

// forkPoints are a clean run's state snapshots. Snapshot k is the state
// at the start of step k·forkEvery, i.e. everything steps 0..k·forkEvery−1
// produced: bodies and each drone's obstacle clearance so far in flat
// [snapshot][drone] arrays, plus the count of collisions recorded
// before the step. The runs resumed from them share one GPS noise
// table.
type forkPoints struct {
	m      *Mission
	bodies []Body
	clear  []float64
	ncoll  []int
	// colls is a copy of the recording run's collision list, taken when
	// the run finishes; snapshot k's collisions are colls[:ncoll[k]].
	colls []Collision
	noise noiseTable
}

// record appends the snapshot for the stepper's current step.
func (fp *forkPoints) record(s *Stepper) {
	fp.bodies = append(fp.bodies, s.bodies...)
	fp.clear = append(fp.clear, s.res.MinClearance...)
	fp.ncoll = append(fp.ncoll, len(s.res.Collisions))
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
	// Telemetry receives the run's counters (sim_runs, sim_steps) and
	// its wall-time histogram sample; nil disables recording.
	Telemetry telemetry.Recorder
	// Flight, when non-nil, receives the run's black-box recording: the
	// full sensed/broadcast/decided/true state of every sample step
	// plus collision events and the final result. Nil (the default)
	// records nothing and costs one nil check per step on the hot path.
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
		return errors.New("sim: Prefix trajectory carries no fork points (record it from an unspoofed run)")
	case p.forks.m != m:
		return errors.New("sim: Prefix was recorded on a different mission")
	}
	return nil
}

// Stepper simulates one mission incrementally, one integration step
// per Step call. It owns all per-run scratch — broadcast columns,
// controller accumulators or the bus's observation arena, a GPS noise
// chunk, readings, commands and the collision pair buffer — so a
// steady-state Step performs zero heap allocations, save a recording
// run's two trajectory chunks every trajChunk samples. Run drives a
// Stepper to completion; external callers (benchmarks, interactive
// tooling) may drive it directly.
//
// Every step fills the broadcast columns from the drones' readings and
// velocities. The decide phase then takes one of two paths. A run
// whose controller is a BatchController and whose bus is a PerfectBus
// hands the columns to BatchCommands (the batch path); every run any
// entry point starts takes it. Otherwise the Stepper publishes State
// rows from the columns, exchanges them over the bus and calls Command
// per drone (the row path). The row path stays only for callers that
// wrap the controller or the bus to time them, such as cellbench's
// timedController and timedBus; no test holds the kernel to it. Both
// paths share sense, actuate, collision, recording and arrival.
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
	limits  StepLimits

	bodies []Body
	// chunk holds the noise of the current step's fixes (see sense). A
	// resumed run has no sensors: it reads its prefix's shared table.
	rx      []gps.Receiver
	chunk   []gps.Noise
	sensors []*gps.Sensor
	noise   *noiseTable
	res     *Result
	traj    *Trajectory
	forks   *forkPoints
	// posFlat/velFlat are the backing chunks of trajChunk samples the
	// trajectory sample rows are sliced from.
	posFlat []vec.Vec3
	velFlat []vec.Vec3

	published []comms.State
	readings  []gps.Reading
	cmds      []vec.Vec3
	pairs     [][2]int

	// contact holds each obstacle's contact gate,
	// SurfaceGate(DroneRadius), and held the deferred clearances, one
	// per drone and obstacle at [drone·len(contact)+obstacle] (see
	// deferClearance). pairReach is the part of pairScanNeeded's reach
	// that is the same every step.
	contact   []float64
	held      []heldClear
	pairReach float64

	// batch is non-nil on the batch path and scratch holds its
	// controller's accumulators; bc holds the tick's broadcast columns.
	batch   BatchController
	bc      comms.Broadcast
	scratch any

	steps    int
	step     int
	stepsRun int
	tEnd     float64
	done     bool
	err      error
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
		m:        m,
		cfg:      cfg,
		ctrl:     opts.Controller,
		bus:      bus,
		spoofer:  spoofer,
		flight:   opts.Flight,
		limits:   cfg.Body.Limits(cfg.Dt),
		bodies:   make([]Body, n),
		readings: make([]gps.Reading, n),
		cmds:     make([]vec.Vec3, n),
		steps:    int(cfg.MaxTime / cfg.Dt),
		tEnd:     cfg.MaxTime,
		bc: comms.Broadcast{
			Pos:    make([]vec.Vec3, n),
			Vel:    make([]vec.Vec3, n),
			Active: make([]bool, n),
		},
	}
	for i := 0; i < n; i++ {
		s.bodies[i] = Body{Pos: m.Start[i]}
	}
	if bc, ok := opts.Controller.(BatchController); ok {
		if _, perfect := bus.(*comms.PerfectBus); perfect {
			s.batch = bc
			s.scratch = bc.NewBatchScratch(n, &m.World)
		}
	}
	if s.batch == nil {
		s.published = make([]comms.State, 0, n)
	}

	s.res = &Result{MinClearance: make([]float64, n)}
	for i := range s.res.MinClearance {
		_, d := m.World.NearestObstacle(s.bodies[i].Pos)
		s.res.MinClearance[i] = d - cfg.DroneRadius
	}
	s.contact = make([]float64, len(m.World.Obstacles))
	for k, o := range m.World.Obstacles {
		s.contact[k] = o.SurfaceGate(cfg.DroneRadius)
	}
	s.held = make([]heldClear, n*len(s.contact))
	for j := range s.held {
		s.held[j].empty()
	}
	s.pairReach = 2*cfg.DroneRadius + 2*cfg.Body.MaxSpeed*(1+1e-9)*cfg.Dt + 1e-6
	if opts.RecordTrajectory {
		est := s.steps/cfg.SampleEvery + 2
		s.traj = &Trajectory{
			Times:      make([]float64, 0, est),
			Positions:  make([][]vec.Vec3, 0, est),
			Velocities: make([][]vec.Vec3, 0, est),
		}
	}

	if s.traj != nil && spoofer == nil {
		est := s.steps/forkEvery + 1
		s.forks = &forkPoints{
			m:      m,
			bodies: make([]Body, 0, est*n),
			clear:  make([]float64, 0, est*n),
			ncoll:  make([]int, 0, est),
			noise:  noiseTable{m: m},
		}
		s.traj.forks = s.forks
	}
	if opts.Prefix != nil {
		s.resume(opts.Prefix.forks, opts.Spoof)
	} else {
		s.sensors, s.rx = newSensors(&cfg)
		s.chunk = make([]gps.Noise, noiseChunk*n)
	}
	return s, nil
}

// resume restores the latest snapshot of fp from which this run
// reproduces a full run: every step before it must precede the spoof
// window — tested with the very time expression Step hands to
// SpoofPlan.Active. Every snapshot lies within this run's step bound,
// since fp was recorded on the same mission. Snapshot 0 is the initial
// state, so there is always one. The run then reads its GPS noise from
// fp's table, starting with the chunk that holds its first step.
func (s *Stepper) resume(fp *forkPoints, plan *gps.SpoofPlan) {
	start := math.Inf(1)
	if plan != nil {
		start = plan.Start
	}
	k := sort.Search(len(fp.ncoll), func(k int) bool {
		return float64(k*forkEvery-1)*s.cfg.Dt >= start
	}) - 1
	if k > 0 {
		n := len(s.bodies)
		copy(s.bodies, fp.bodies[k*n:(k+1)*n])
		copy(s.res.MinClearance, fp.clear[k*n:(k+1)*n])
		if c := fp.ncoll[k]; c > 0 {
			s.res.Collisions = append([]Collision(nil), fp.colls[:c]...)
		}
		s.step = k * forkEvery
	}
	s.noise = &fp.noise
	s.chunk = s.noise.chunk(s.step)
	s.rx = s.noise.rx // written once, under the lock chunk took
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
	s.foldHeld()
	s.res.Duration = s.tEnd
	s.res.Trajectory = s.traj
	if s.forks != nil {
		s.forks.colls = append([]Collision(nil), s.res.Collisions...)
	}
	s.done = true
}

// Step advances the simulation one tick. It returns done=true when the
// run has ended — mission complete, MaxTime reached, or a divergence
// error — and the terminal error, if any. Calling Step
// after done re-returns the terminal state.
func (s *Stepper) Step() (done bool, err error) {
	if s.done {
		return true, s.err
	}
	if s.forks != nil && s.step%forkEvery == 0 {
		s.foldHeld()
		s.forks.record(s)
	}
	n := len(s.bodies)
	cfg := &s.cfg
	s.stepsRun++
	t := float64(s.step) * cfg.Dt

	// (1) Sense: read GPS, then spoof the target's fix.
	s.sense(t)
	if sp := s.spoofer; sp != nil {
		if i := sp.Plan().Target; !s.bodies[i].Crashed {
			s.readings[i] = sp.Apply(i, s.readings[i])
		}
	}

	// (2) Broadcast and (3)+(4) decide: every active drone derives its
	// command from its own perception and the received states.
	minPairD2, maxErrD2 := s.decide(t)

	// Flight recording sits between decide and actuate, so the
	// recorded Commands are exactly what the controllers derived
	// from the recorded Readings and Broadcast. The slices alias
	// the stepper's buffers; recorders copy what they keep.
	if s.flight != nil && s.step%cfg.SampleEvery == 0 {
		s.flight.RecordStep(FlightStep{
			Step:      s.step,
			Time:      t,
			Bodies:    s.bodies,
			Readings:  s.readings,
			Commands:  s.cmds,
			Broadcast: &s.bc,
		})
	}

	// Actuate, guarding against numerical divergence: a state that
	// leaves the realm of finite numbers poisons every derived
	// metric (clearances, SVG weights, gradients), so the run is
	// aborted rather than aggregated.
	for i := 0; i < n; i++ {
		b := &s.bodies[i]
		b.Step(s.cmds[i], &s.limits)
		if b.Crashed {
			continue
		}
		if !b.Pos.IsFinite() || !b.Vel.IsFinite() {
			s.done = true
			s.err = fmt.Errorf("sim: drone %d state non-finite at t=%.2fs (pos %v, vel %v): %w",
				i, t, b.Pos, b.Vel, robust.ErrDiverged)
			return true, s.err
		}
	}

	// Collision detection on true positions. A drone whose clearance
	// can wait skips the exact pass (see deferClearance).
	for i := 0; i < n; i++ {
		if s.bodies[i].Crashed || s.deferClearance(i) {
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
	if s.pairScanNeeded(minPairD2, maxErrD2) {
		s.pairs = collide(s.bodies, 2*cfg.DroneRadius, s.pairs[:0])
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

	// Record: sample rows are sliced off backing chunks, so a
	// trajectory costs two allocations per trajChunk samples.
	if s.traj != nil && s.step%cfg.SampleEvery == 0 {
		if len(s.posFlat) == cap(s.posFlat) {
			s.posFlat = make([]vec.Vec3, 0, trajChunk*n)
			s.velFlat = make([]vec.Vec3, 0, trajChunk*n)
		}
		mark := len(s.posFlat)
		for i := 0; i < n; i++ {
			s.posFlat = append(s.posFlat, s.bodies[i].Pos)
			s.velFlat = append(s.velFlat, s.bodies[i].Vel)
		}
		s.traj.Times = append(s.traj.Times, t)
		s.traj.Positions = append(s.traj.Positions, s.posFlat[mark:len(s.posFlat):len(s.posFlat)])
		s.traj.Velocities = append(s.traj.Velocities, s.velFlat[mark:len(s.velFlat):len(s.velFlat)])
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
		s.finish()
		return true, nil
	}
	return false, nil
}

// sense takes every active drone's GPS fix at time t from the step's
// row of the noise chunk. At a chunk start a resumed run takes the
// table's next chunk, and a fresh run refills its own from its sensors.
func (s *Stepper) sense(t float64) {
	j := s.step % noiseChunk
	if j == 0 && s.noise != nil {
		s.chunk = s.noise.chunk(s.step)
	} else if j == 0 {
		fillNoise(s.chunk, s.sensors)
	}
	n := len(s.bodies)
	row := s.chunk[j*n:][:n]
	for i := range s.bodies {
		if !s.bodies[i].Crashed {
			s.readings[i] = s.rx[i].Perceive(s.bodies[i].Pos, row[i], t)
		}
	}
}

// decide fills the broadcast columns with every active drone's
// perceived position and velocity, then derives every command on the
// batch or the row path. It returns the kernel's minimum squared
// broadcast pair distance (zero on the row path: a zero bound proves
// nothing) and the worst squared sensing error (noise, bias and spoof
// displacement) of any active drone. A NaN error never compares ≤, so
// it poisons the bound and keeps the collision scan.
func (s *Stepper) decide(t float64) (minPairD2, maxErrD2 float64) {
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
	if s.batch != nil {
		return s.batch.BatchCommands(&s.bc, &s.m.World, s.scratch, s.cmds), maxErrD2
	}
	s.decideRows()
	return 0, maxErrD2
}

// decideRows is the row path's decide phase: publish every active
// drone's state from the columns, exchange over the bus and call
// Command per drone.
func (s *Stepper) decideRows() {
	s.published = s.published[:0]
	for i, active := range s.bc.Active {
		if active {
			s.published = append(s.published, s.bc.State(i))
		}
	}
	observations := s.bus.ExchangeInto(s.published)
	obsIdx := 0
	for i, active := range s.bc.Active {
		if !active {
			s.cmds[i] = vec.Zero
			continue
		}
		s.cmds[i] = s.ctrl.Command(Perception{
			ID:       i,
			GPS:      s.readings[i],
			Velocity: s.bc.Vel[i],
			Time:     s.bc.Time,
		}, observations[obsIdx], &s.m.World)
		obsIdx++
	}
}

// heldClear is one (drone, obstacle) pair's deferred clearance: the
// closest position since the last fold whose clearance the Stepper
// has not computed exactly, and the band lo = d2·(1−1e-9), hi =
// d2·(1+1e-9) around its squared axis distance d2. An empty slot has
// lo = hi = +Inf; a held d2 is finite, so lo is too.
type heldClear struct {
	pos    vec.Vec3
	lo, hi float64
}

func (h *heldClear) empty() { h.lo, h.hi = math.Inf(1), math.Inf(1) }

// deferClearance reports whether drone i's clearance at its current
// position can wait, holding the position where needed; false sends
// the drone through the exact pass. MinClearance is a minimum over
// steps and obstacles of fl(SurfaceDistance−DroneRadius), rounded
// subtraction is monotone, and so the minimum only needs, per
// obstacle, a position whose surface distance is at most every
// other's. Per obstacle, with d2 its squared axis distance:
//
//   - d2 below the contact gate, or NaN: the position may touch the
//     obstacle, so the exact pass runs now and records the collision
//     on this very step. Past the gate, SurfaceDistance > DroneRadius
//     (Obstacle.SurfaceGate), so the clearance is > 0: no collision.
//   - d2 < lo: the position replaces the held one. The gate puts d2
//     at 2^−1000 or more, so lo is a normal float, and d2 < lo puts
//     the exact axis distance ~5e-10 relative below the held one's,
//     over a million ulps; the few roundings of the squares, the band
//     and Hypot cannot close that, so the rounded surface distance is
//     ≤ the held one's.
//   - d2 > hi: by the same margin the position is no closer than the
//     held one, which stands for it.
//   - otherwise d2 is inside the band, where Hypot's rounding may
//     order the two either way: the exact pass runs now.
//
// foldHeld runs the held positions through SurfaceDistance before
// any reader sees MinClearance: the fork snapshot and finish. Every
// skipped position is then covered by one that was folded, so every
// output bit is the eager per-step pass's, collision times included.
// Approach steps, which set a new minimum almost every step, cost no
// square root until the fold.
func (s *Stepper) deferClearance(i int) bool {
	p := s.bodies[i].Pos
	held := s.held[i*len(s.contact):][:len(s.contact)]
	for k, o := range s.m.World.Obstacles {
		d2 := o.AxisDistSq(p)
		h := &held[k]
		switch {
		case !(d2 >= s.contact[k]):
			return false
		case d2 < h.lo:
			h.pos, h.lo, h.hi = p, d2*(1-1e-9), d2*(1+1e-9)
		case !(d2 > h.hi):
			return false
		}
	}
	return true
}

// foldHeld lowers each drone's MinClearance to the exact clearance of
// every position it holds, as the exact pass would have, and empties
// the slots.
func (s *Stepper) foldHeld() {
	obs := s.m.World.Obstacles
	for j := range s.held {
		h := &s.held[j]
		if h.lo == math.Inf(1) {
			continue
		}
		i := j / len(obs)
		if c := obs[j%len(obs)].SurfaceDistance(h.pos) - s.cfg.DroneRadius; c < s.res.MinClearance[i] {
			s.res.MinClearance[i] = c
		}
		h.empty()
	}
}

// pairScanNeeded reports whether this tick's drone-pair collision scan
// can find a pair. The batch path's decide phase measured the closest
// perceived pair before this tick's motion; true distances differ from
// perceived ones by at most the worst sensing error per endpoint, and
// the motion closed any pair by at most one displacement per endpoint.
// Body.Step moves a body by Vel·Dt, and its speed clamp leaves |Vel|
// within a few ulps of MaxSpeed, so MaxSpeed·(1+1e-9)·Dt bounds the
// displacement. The reach is thus 2·DroneRadius plus twice the error
// plus twice the displacement plus a 1e-6 m pad that swamps the
// roundings of positions and of the sum. When the perceived pair
// distance provably clears the reach (vec.PaddedSq), the scan provably
// returns no pairs and is skipped. Any doubt (a zero bound from the
// row path, coincident perceptions, large spoof errors, NaNs) fails
// the test and runs the scan, so skipping never changes an output
// bit. A swarm cruising metres apart against a reach of about 1.3 m
// culls nearly every tick.
func (s *Stepper) pairScanNeeded(minPairD2, maxErrD2 float64) bool {
	return !(minPairD2 >= vec.PaddedSq(s.pairReach+2*math.Sqrt(maxErrD2), 1e-9))
}

// Run simulates the mission and returns its Result. It is
// deterministic: identical mission, options and spoof plan yield an
// identical result.
func Run(m *Mission, opts RunOptions) (res *Result, err error) {
	// The wall clock starts before NewStepper, so Stepper setup (sensor
	// seeding, a resumed run's noise-table fill) is booked as sim time.
	rec := telemetry.OrNop(opts.Telemetry)
	wallStart := rec.Now()
	st, err := NewStepper(m, opts)
	if err != nil {
		return nil, err
	}

	// The flight recorder only observes runs that passed validation, and
	// its EndFlight fires exactly once on every exit — success or
	// divergence abort — with the same values the caller receives.
	if opts.Flight != nil {
		opts.Flight.BeginFlight(m, opts.Spoof)
		defer func() { opts.Flight.EndFlight(res, err) }()
	}

	// Every run that passes validation counts as one simulation —
	// including runs later aborted by divergence, whose integration
	// work was still spent. fuzz mirrors sim_runs
	// into Report.SimRuns, making this the single counting site.
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
