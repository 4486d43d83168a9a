package experiments

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"swarmfuzz/internal/atlas"
	"swarmfuzz/internal/flightlog"
	"swarmfuzz/internal/flightlog/report"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/sim"
)

// MissionSpec is a single-mission fuzz run, one pass of the paper's
// Fig. 3. cmd/swarmfuzz and the daemon's fuzz job both run it through
// RunMission.
type MissionSpec struct {
	SwarmSize     int
	Seed          uint64
	SpoofDistance float64
	// Fuzz carries the fuzzer options, Telemetry and TraceParent
	// included; RunMission sets Flight and Observer.
	Fuzz fuzz.Options
	// Timeout bounds the fuzzing wall-clock (0 = none).
	Timeout time.Duration
	// FlightDir, when set, receives the mission's flight log, and
	// Postmortem its HTML post-mortem; Atlas records the search atlas.
	FlightDir  string
	Postmortem bool
	Atlas      bool
}

// MissionResult is a run's report and artifacts. Artifact failures are
// kept apart from the fuzz verdict, so each caller decides whether they
// fail its run.
type MissionResult struct {
	Report *fuzz.Report
	// Atlas is the framed artifact (header, the mission's records,
	// atlas_end{cells:0,missions:1}), made only for a run that returned
	// a report without error; AtlasErr says why such a run has none.
	Atlas    []byte
	AtlasErr error
	// FlightPath is set with FlightDir, and PostmortemPath with
	// Postmortem. The log is closed on every exit; FlightErr and
	// PostmortemErr say what failed.
	FlightPath, PostmortemPath string
	FlightErr, PostmortemErr   error
}

// RunMission builds the default controller and the spec's mission and
// fuzzes it under robust.Call, which turns a panic into an error and
// enforces spec.Timeout. It opens no trace span. The error is the fuzz
// verdict (fuzz.ErrUnsafeMission, a deadline, ...) or a setup failure.
func RunMission(ctx context.Context, spec MissionSpec, fuzzer fuzz.Fuzzer) (res MissionResult, err error) {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		return res, err
	}
	mission, err := sim.NewMission(sim.DefaultMissionConfig(spec.SwarmSize, spec.Seed))
	if err != nil {
		return res, err
	}
	if spec.FlightDir != "" {
		name := flightlog.MissionName(spec.SwarmSize, spec.SpoofDistance, spec.Seed)
		flog, path, err := flightlog.Create(spec.FlightDir, name, ctrl)
		if err != nil {
			return res, err
		}
		spec.Fuzz.Flight = flog
		res.FlightPath = path
		defer func() {
			if res.FlightErr = flog.Close(); res.FlightErr == nil && spec.Postmortem {
				res.PostmortemPath = flightlog.PostmortemPath(path)
				res.PostmortemErr = report.GenerateFile(path, res.PostmortemPath)
			}
		}()
	}
	in := fuzz.Input{Mission: mission, Controller: ctrl, SpoofDistance: spec.SpoofDistance}
	a, err := fuzzAttempt(ctx, fuzzer, in, spec.Fuzz, spec.Timeout, spec.Atlas)
	res.Report, res.AtlasErr = a.rep, a.atlasErr
	if err != nil || a.search == nil {
		return res, err
	}
	// Framing into a buffer cannot fail: the two records hold only
	// strings and ints.
	var buf bytes.Buffer
	_ = atlas.WriteHeader(&buf, fuzzer.Name())
	buf.Write(a.stream)
	_ = atlas.WriteAtlasEnd(&buf, 0, 1)
	res.Atlas = buf.Bytes()
	return res, nil
}

// attempt is one fuzzing attempt's outcome. With collection on, a run
// that returned without error carries its atlas records and search
// summary, or the collection error that lost them.
type attempt struct {
	rep      *fuzz.Report
	stream   []byte
	search   *atlas.MissionSearch
	atlasErr error
}

// fuzzAttempt runs fuzzer on in once under robust.Call. With collect
// set it records the search into a fresh collector and buffer, so a
// deadline-killed attempt's goroutine writes only into its own
// abandoned buffer, which is never read.
func fuzzAttempt(ctx context.Context, fuzzer fuzz.Fuzzer, in fuzz.Input, opts fuzz.Options,
	timeout time.Duration, collect bool) (attempt, error) {
	var col *atlas.Collector
	var buf bytes.Buffer
	if collect {
		col = atlas.NewCollector(&buf, opts.Telemetry)
		opts.Observer = col
	}
	rep, err := robust.Call(ctx, timeout, func() (*fuzz.Report, error) {
		return fuzzer.Fuzz(in, opts)
	})
	a := attempt{rep: rep}
	if err != nil || col == nil {
		return a, err
	}
	if cerr := col.Err(); cerr != nil {
		a.atlasErr = fmt.Errorf("atlas collection: %w", cerr)
		return a, nil
	}
	sum := col.Summary()
	a.stream, a.search = buf.Bytes(), &sum
	return a, nil
}
