package experiments

import (
	"swarmfuzz/internal/flightlog"
	"swarmfuzz/internal/flightlog/report"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/telemetry"
)

// recordForensics writes the flight log (and, when configured, the
// HTML post-mortem) for one cracked or degraded mission: a fully
// recorded re-run of the clean mission plus, for a cracked mission
// whose spoof plan is reconstructible, a witness run of the attack.
// The extra cost is bounded — at most two simulations per recorded
// mission — and failures degrade to log lines: forensics must never
// change a campaign's result.
func recordForensics(cfg Config, ctrl sim.Controller, spoofDistance float64, mission *sim.Mission, o MissionOutcome) {
	rec := telemetry.OrNop(cfg.Telemetry)
	terms, _ := ctrl.(flightlog.TermSource)
	name := flightlog.MissionName(mission.Config.NumDrones, spoofDistance, o.Seed)
	log, path, err := flightlog.Create(cfg.FlightDir, name, terms)
	if err != nil {
		cfg.Log.Warnf("forensics seed %d: %v", o.Seed, err)
		return
	}

	// The campaign is deterministic, so re-running the clean mission
	// reproduces exactly the trajectory the verdict was based on. Run
	// errors land in the log's run_end record via EndFlight.
	_, _ = sim.Run(mission, sim.RunOptions{
		Controller: ctrl,
		Telemetry:  cfg.Telemetry,
		Flight:     log.Recorder("clean"),
	})
	if o.Err != "" {
		log.Note("degraded", o.Err)
	}
	if o.Found {
		plan := gps.SpoofPlan{
			Target:    o.Target,
			Start:     o.Start,
			Duration:  o.Duration,
			Direction: gps.Direction(o.Direction),
			Distance:  spoofDistance,
		}
		// Outcomes from checkpoints written before the finding tuple was
		// recorded (or from stub fuzzers) may lack a valid plan; skip
		// the witness rather than record a bogus run.
		if err := plan.Validate(); err != nil {
			log.Note("witness_skipped", err.Error())
		} else {
			log.Finding(plan, o.Victim, o.Objective)
			_, _ = sim.Run(mission, sim.RunOptions{
				Controller: ctrl,
				Spoof:      &plan,
				Telemetry:  cfg.Telemetry,
				Flight:     log.Recorder("witness"),
			})
		}
	}
	if err := log.Close(); err != nil {
		cfg.Log.Warnf("forensics seed %d: %v", o.Seed, err)
		return
	}
	rec.Add(telemetry.MFlightsRecorded, 1)
	cfg.Log.Debugf("forensics seed %d: flight log %s", o.Seed, path)

	if cfg.Postmortem {
		htmlPath := flightlog.PostmortemPath(path)
		if err := report.GenerateFile(path, htmlPath); err != nil {
			cfg.Log.Warnf("forensics seed %d: post-mortem: %v", o.Seed, err)
			return
		}
		rec.Add(telemetry.MPostmortems, 1)
		cfg.Log.Debugf("forensics seed %d: post-mortem %s", o.Seed, htmlPath)
	}
}
