package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"swarmfuzz/internal/experiments"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/robust"
)

// State is a job's lifecycle state. Jobs move queued → running →
// done|failed|cancelled; a drained or crashed daemon moves running
// jobs back to queued so a restart resumes them.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final: no further transitions
// happen and the job's report (when done) is immutable.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job kinds. A fuzz job runs one fuzzer against one mission; a
// campaign job runs one (swarm size, spoof distance) cell of the
// paper's evaluation; a grid job runs the full size × distance grid.
const (
	KindFuzz     = "fuzz"
	KindCampaign = "campaign"
	KindGrid     = "grid"
)

// JobSpec is the submit-time description of a job. Zero-valued knobs
// mean "use the same default the CLIs use", so a spec carrying only
// its identifying fields reproduces the corresponding CLI run exactly.
type JobSpec struct {
	// Kind selects the workload: "fuzz", "campaign" or "grid".
	Kind string `json:"kind"`
	// Fuzzer names the fuzzer under test (swarmfuzz|r_fuzz|g_fuzz|
	// s_fuzz, plus whatever the engine's registry adds); empty means
	// swarmfuzz.
	Fuzzer string `json:"fuzzer,omitempty"`

	// SwarmSize and SpoofDistance identify a fuzz mission or a
	// campaign cell.
	SwarmSize     int     `json:"swarm_size,omitempty"`
	SpoofDistance float64 `json:"spoof_distance,omitempty"`
	// Seed is the fuzz job's mission seed (default 1).
	Seed uint64 `json:"seed,omitempty"`

	// Missions is the campaign/grid mission count per cell.
	Missions int `json:"missions,omitempty"`
	// BaseSeed offsets the campaign/grid mission seed stream
	// (default 1).
	BaseSeed uint64 `json:"base_seed,omitempty"`
	// SwarmSizes and SpoofDistances span a grid job's cells.
	SwarmSizes     []int     `json:"swarm_sizes,omitempty"`
	SpoofDistances []float64 `json:"spoof_distances,omitempty"`

	// MaxIterPerSeed and MaxSeeds bound the per-mission search budget
	// (0 = the fuzzer's defaults).
	MaxIterPerSeed int `json:"max_iter_per_seed,omitempty"`
	MaxSeeds       int `json:"max_seeds,omitempty"`
	// SeedWorkers enables the speculative seed search; Workers bounds
	// campaign parallelism (0 = GOMAXPROCS).
	SeedWorkers int `json:"seed_workers,omitempty"`
	Workers     int `json:"workers,omitempty"`
	// MissionTimeoutSec is the per-mission fuzzing deadline in seconds
	// (for a fuzz job, the whole run's deadline); 0 disables it.
	MissionTimeoutSec float64 `json:"mission_timeout_seconds,omitempty"`
	// Retries is the extra per-mission attempts after transient
	// failures; 0 keeps robust.DefaultPolicy.
	Retries int `json:"retries,omitempty"`
	// Flightlog archives flight logs (cracked/degraded missions for
	// campaigns, the whole run for fuzz jobs) under the job's
	// flights/ directory; Postmortem renders HTML next to each.
	Flightlog  bool `json:"flightlog,omitempty"`
	Postmortem bool `json:"postmortem,omitempty"`
	// Atlas records the search-atlas artifact (per-seed convergence
	// trails and landscape aggregates) under the job directory, served
	// by GET /v1/jobs/{id}/atlas once the job is done.
	Atlas bool `json:"atlas,omitempty"`

	// IdempotencyKey makes submission retries safe: a spec carrying a
	// key the engine has already accepted returns the existing job
	// instead of enqueuing a duplicate. The typed client generates one
	// automatically; empty disables deduplication.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// Normalize fills defaulted fields in place so validation, execution
// and persisted specs all see the same values.
func (s *JobSpec) Normalize() {
	s.Kind = strings.ToLower(strings.TrimSpace(s.Kind))
	s.Fuzzer = strings.ToLower(strings.TrimSpace(s.Fuzzer))
	s.IdempotencyKey = strings.TrimSpace(s.IdempotencyKey)
	if s.Fuzzer == "" {
		s.Fuzzer = "swarmfuzz"
	}
	switch s.Kind {
	case KindFuzz:
		if s.Seed == 0 {
			s.Seed = 1
		}
	case KindCampaign, KindGrid:
		if s.BaseSeed == 0 {
			s.BaseSeed = 1
		}
	}
}

// Validate reports why the spec is unusable. resolve maps fuzzer names
// to implementations (the engine passes its registry).
func (s JobSpec) Validate(resolve func(string) (fuzz.Fuzzer, error)) error {
	if _, err := resolve(s.Fuzzer); err != nil {
		return err
	}
	switch s.Kind {
	case KindFuzz:
		if s.SwarmSize < 2 {
			return fmt.Errorf("serve: fuzz job needs swarm_size >= 2, got %d", s.SwarmSize)
		}
		if s.SpoofDistance <= 0 {
			return fmt.Errorf("serve: fuzz job needs a positive spoof_distance, got %g", s.SpoofDistance)
		}
	case KindCampaign:
		if s.SwarmSize < 2 {
			return fmt.Errorf("serve: campaign job needs swarm_size >= 2, got %d", s.SwarmSize)
		}
		if s.SpoofDistance <= 0 {
			return fmt.Errorf("serve: campaign job needs a positive spoof_distance, got %g", s.SpoofDistance)
		}
		if s.Missions < 1 {
			return fmt.Errorf("serve: campaign job needs missions >= 1, got %d", s.Missions)
		}
	case KindGrid:
		if s.Missions < 1 {
			return fmt.Errorf("serve: grid job needs missions >= 1, got %d", s.Missions)
		}
		for _, n := range s.SwarmSizes {
			if n < 2 {
				return fmt.Errorf("serve: grid swarm size %d must be >= 2", n)
			}
		}
		for _, d := range s.SpoofDistances {
			if d <= 0 {
				return fmt.Errorf("serve: grid spoof distance %g must be positive", d)
			}
		}
	case "":
		return errors.New("serve: job spec needs a kind (fuzz|campaign|grid)")
	default:
		return fmt.Errorf("serve: unknown job kind %q", s.Kind)
	}
	if s.Postmortem && !s.Flightlog {
		return errors.New("serve: postmortem needs flightlog")
	}
	if s.MissionTimeoutSec < 0 || s.Retries < 0 || s.Workers < 0 ||
		s.SeedWorkers < 0 || s.MaxIterPerSeed < 0 || s.MaxSeeds < 0 {
		return errors.New("serve: job spec knobs must be non-negative")
	}
	if len(s.IdempotencyKey) > 128 {
		return fmt.Errorf("serve: idempotency key longer than 128 bytes (%d)", len(s.IdempotencyKey))
	}
	return nil
}

// Hash returns a short stable digest of the normalized spec (including
// its idempotency key), recorded in the job status so a client can
// verify which spec a deduplicated resubmission matched. Hashing the
// normalized form makes default-filled and explicitly-defaulted specs
// indistinguishable: omitting "fuzzer" hashes like "swarmfuzz",
// omitting "seed" on a fuzz job like seed 1.
func (s JobSpec) Hash() string {
	s.Normalize() // value receiver: normalizes a private copy
	data, _ := json.Marshal(s)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// CacheKey is the spec's content address in the fleet-wide result
// cache: a full SHA-256 over the normalized spec with identity and
// execution-only knobs cleared. Two submissions that must produce
// byte-identical reports — regardless of who submitted them
// (IdempotencyKey) and of how the work is parallelised (Workers and
// SeedWorkers are both pinned byte-identity-invariant) —
// map to the same key.
func (s JobSpec) CacheKey() string {
	s.Normalize()
	s.IdempotencyKey = ""
	s.Workers, s.SeedWorkers = 0, 0
	data, _ := json.Marshal(s)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Cacheable reports whether the spec's result may be served from (and
// stored into) the content-addressed cache. Flight logs and
// post-mortems live outside the report document, and a per-mission
// wall-clock deadline makes outcomes load-dependent, so those specs
// always execute.
func (s JobSpec) Cacheable() bool {
	return !s.Flightlog && !s.Postmortem && s.MissionTimeoutSec == 0
}

// MissionSpec translates a fuzz spec into the single-mission run the
// job executes, taking its fuzzer options and deadline from
// CampaignConfig. Runtime wiring (Fuzz.Telemetry, FlightDir) is left
// zero for the engine to fill in, as there.
func (s JobSpec) MissionSpec() experiments.MissionSpec {
	cfg := s.CampaignConfig()
	return experiments.MissionSpec{
		SwarmSize: s.SwarmSize, Seed: s.Seed, SpoofDistance: s.SpoofDistance,
		Fuzz: cfg.Fuzz, Timeout: cfg.MissionTimeout,
		Postmortem: s.Postmortem, Atlas: s.Atlas,
	}
}

// CampaignConfig translates a campaign or grid spec into the
// experiments configuration the job runs with. Runtime wiring
// (Telemetry, Log, Checkpoint, FlightDir) is left zero: the engine
// fills it in, and a test comparing against a direct RunCampaign/Grid
// call starts from this exact config, which is what makes HTTP-run
// reports byte-identical to CLI runs.
func (s JobSpec) CampaignConfig() experiments.Config {
	cfg := experiments.DefaultConfig(s.Missions)
	switch s.Kind {
	case KindCampaign:
		cfg.SwarmSizes = []int{s.SwarmSize}
		cfg.SpoofDistances = []float64{s.SpoofDistance}
	case KindGrid:
		if len(s.SwarmSizes) > 0 {
			cfg.SwarmSizes = append([]int(nil), s.SwarmSizes...)
		}
		if len(s.SpoofDistances) > 0 {
			cfg.SpoofDistances = append([]float64(nil), s.SpoofDistances...)
		}
	}
	cfg.BaseSeed = s.BaseSeed
	if s.MaxIterPerSeed > 0 {
		cfg.Fuzz.MaxIterPerSeed = s.MaxIterPerSeed
	}
	cfg.Fuzz.MaxSeeds = s.MaxSeeds
	cfg.Fuzz.SeedWorkers = s.SeedWorkers
	cfg.Workers = s.Workers
	cfg.MissionTimeout = time.Duration(s.MissionTimeoutSec * float64(time.Second))
	if s.Retries > 0 {
		cfg.Retry = robust.Policy{MaxAttempts: 1 + s.Retries,
			BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}
	}
	cfg.Postmortem = s.Postmortem
	return cfg
}

// JobStatus is a job's externally-visible state, persisted as
// status.json and returned by the API.
type JobStatus struct {
	// ID is the engine-assigned job identifier.
	ID string `json:"id"`
	// Kind and Fuzzer echo the spec's identity.
	Kind   string `json:"kind"`
	Fuzzer string `json:"fuzzer"`
	// State is the lifecycle state.
	State State `json:"state"`
	// SpecHash digests the accepted spec (JobSpec.Hash), letting a
	// client confirm what a deduplicated resubmission matched.
	SpecHash string `json:"spec_hash,omitempty"`
	// IODegraded marks a done job whose report could not be persisted
	// even after retries; the daemon serves it from memory until
	// restart.
	IODegraded bool `json:"io_degraded,omitempty"`
	// CacheHit marks a done job whose report was served from the
	// fleet-wide result cache: no simulation ran for this submission.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error is why the job failed (meaningful when State is failed).
	Error string `json:"error,omitempty"`
	// Attempts counts executions started, including re-queues after
	// transient failures and daemon restarts.
	Attempts int `json:"attempts,omitempty"`
	// Restarts counts daemon restarts that re-queued this job.
	Restarts int `json:"restarts,omitempty"`
	// CreatedUnix, StartedUnix and FinishedUnix are wall-clock
	// timestamps (seconds); zero when the transition hasn't happened.
	CreatedUnix  int64 `json:"created_unix,omitempty"`
	StartedUnix  int64 `json:"started_unix,omitempty"`
	FinishedUnix int64 `json:"finished_unix,omitempty"`
	// WallSeconds is the last execution's wall time.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

// FuzzReport is the persisted report of a fuzz-kind job: the
// fuzz.Report minus the bulky clean-run trajectory, plus the job's
// identifying parameters so the report stands alone. Unsafe marks a
// mission whose clean run already collided: its search never ran.
type FuzzReport struct {
	Fuzzer           string         `json:"fuzzer"`
	SwarmSize        int            `json:"swarm_size"`
	Seed             uint64         `json:"seed"`
	SpoofDistance    float64        `json:"spoof_distance"`
	CleanDuration    float64        `json:"clean_duration_seconds"`
	VDO              float64        `json:"vdo"`
	Found            bool           `json:"found"`
	Unsafe           bool           `json:"unsafe,omitempty"`
	SeedsTried       int            `json:"seeds_tried"`
	IterationsToFind int            `json:"iterations_to_find"`
	SimRuns          int            `json:"sim_runs"`
	Findings         []fuzz.Finding `json:"findings,omitempty"`
}

// reportUnsafe reports whether an encoded job report is a FuzzReport
// marked unsafe.
func reportUnsafe(report []byte) bool {
	var r struct {
		Unsafe bool `json:"unsafe"`
	}
	return json.Unmarshal(report, &r) == nil && r.Unsafe
}

// NewFuzzReport summarises a fuzz.Report for persistence.
func NewFuzzReport(spec JobSpec, rep *fuzz.Report) FuzzReport {
	out := FuzzReport{
		Fuzzer:           rep.Fuzzer,
		SwarmSize:        spec.SwarmSize,
		Seed:             spec.Seed,
		SpoofDistance:    spec.SpoofDistance,
		VDO:              rep.VDO,
		Found:            rep.Found,
		SeedsTried:       rep.SeedsTried,
		IterationsToFind: rep.IterationsToFind,
		SimRuns:          rep.SimRuns,
		Findings:         rep.Findings,
	}
	if rep.Clean != nil {
		out.CleanDuration = rep.Clean.Duration
		out.Unsafe = len(rep.Clean.Collisions) > 0
	}
	return out
}
