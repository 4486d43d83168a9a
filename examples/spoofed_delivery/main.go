// Spoofed delivery reproduces the paper's motivating example (§III,
// Fig. 2): a delivery swarm passes an on-path obstacle safely, until a
// GPS spoofing attack on one member (the target) makes a *different*
// member (the victim) veer into the obstacle.
//
// The example finds a vulnerable mission with SwarmFuzz, then replays
// the clean and attacked runs side by side and narrates the collision.
// Along the way it records the full forensic flight log and renders it
// as spoofed_delivery.postmortem.html — open it in a browser for an
// animated replay of the attack.
package main

import (
	"fmt"
	"log"

	"swarmfuzz/internal/flightlog"
	"swarmfuzz/internal/flightlog/report"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/sim"
)

func main() {
	controller, err := flock.New(flock.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}

	// Scan mission seeds until SwarmFuzz finds an SPV.
	for seed := uint64(1); seed < 200; seed++ {
		mission, err := sim.NewMission(sim.DefaultMissionConfig(5, seed))
		if err != nil {
			log.Fatal(err)
		}
		// The flight log is the mission's black box: SwarmFuzz records
		// the clean run, the vulnerability graphs, the search trail,
		// and a witness run of any finding into it.
		flog, flightPath, err := flightlog.Create(".", "spoofed_delivery", controller)
		if err != nil {
			log.Fatal(err)
		}
		opts := fuzz.DefaultOptions()
		opts.Flight = flog
		rep, err := fuzz.SwarmFuzz{}.Fuzz(fuzz.Input{
			Mission:       mission,
			Controller:    controller,
			SpoofDistance: 10,
		}, opts)
		if cerr := flog.Close(); cerr != nil {
			log.Fatal(cerr)
		}
		if err != nil {
			continue // e.g. unsafe mission: skip like the campaign does
		}
		if !rep.Found {
			continue
		}

		finding := rep.Findings[0]
		fmt.Printf("mission seed %d is vulnerable: %s\n\n", seed, finding)

		fmt.Println("--- clean run ---")
		fmt.Printf("duration %.1fs, no collisions; per-drone obstacle clearance:\n", rep.Clean.Duration)
		for i, c := range rep.Clean.MinClearance {
			fmt.Printf("  drone %d: %.2fm\n", i, c)
		}

		attacked, err := sim.Run(mission, sim.RunOptions{
			Controller: controller,
			Spoof:      &finding.Plan,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\n--- attacked run ---")
		fmt.Printf("GPS of drone %d spoofed %s by %.0fm during t=[%.1fs, %.1fs]\n",
			finding.Plan.Target, finding.Plan.Direction, finding.Plan.Distance,
			finding.Plan.Start, finding.Plan.End())
		for _, c := range attacked.Collisions {
			fmt.Printf("  drone %d collides with %s %d at t=%.1fs\n", c.Drone, c.Kind, c.Other, c.Time)
		}
		fmt.Printf("\nnote: the spoofed drone (%d) is NOT the one that crashes (%d) —\n",
			finding.Plan.Target, finding.Victim)
		fmt.Println("the attack propagates through the swarm control algorithm.")

		if err := report.GenerateFile(flightPath, "spoofed_delivery.postmortem.html"); err != nil {
			log.Fatal(err)
		}
		fmt.Println("\npost-mortem written to spoofed_delivery.postmortem.html")
		fmt.Printf("raw flight log: %s\n", flightPath)
		return
	}
	log.Fatal("no vulnerable mission found in 200 seeds — retune or widen the scan")
}
