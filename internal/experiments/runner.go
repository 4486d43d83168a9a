package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/metrics"
	"swarmfuzz/internal/opt"
	"swarmfuzz/internal/report"
	"swarmfuzz/internal/sim"
)

// Runner renders the paper's experiments to a writer, optionally
// exporting raw series as CSV files.
type Runner struct {
	cfg    Config
	w      io.Writer
	csvDir string

	// grid caches the SwarmFuzz campaign shared by Table 1, Table 2,
	// Fig. 6 and Fig. 7.
	grid []*CampaignResult
}

// NewRunner returns a Runner writing to w. csvDir, when non-empty, is
// a directory raw CSV series are written into.
func NewRunner(cfg Config, w io.Writer, csvDir string) *Runner {
	return &Runner{cfg: cfg, w: w, csvDir: csvDir}
}

// ensureGrid runs (once) the full SwarmFuzz campaign grid. Progress
// goes to the configured logger (stderr by convention) so r.w carries
// only the rendered results.
func (r *Runner) ensureGrid(ctx context.Context) error {
	if r.grid != nil {
		return nil
	}
	r.cfg.Log.Infof("running SwarmFuzz campaign: sizes %v × distances %v × %d missions",
		r.cfg.SwarmSizes, r.cfg.SpoofDistances, r.cfg.Missions)
	grid, err := Grid(ctx, r.cfg, fuzz.SwarmFuzz{})
	if err != nil {
		return err
	}
	r.grid = grid
	return nil
}

// All runs every experiment in paper order.
func (r *Runner) All(ctx context.Context) error {
	for _, f := range []func(context.Context) error{r.Table1, r.Table2, r.Table3, r.Fig5, r.Fig6, r.Fig7} {
		if err := f(ctx); err != nil {
			return err
		}
		fmt.Fprintln(r.w)
	}
	return nil
}

// Table1 prints the success rates of SwarmFuzz per configuration
// (paper Table I).
func (r *Runner) Table1(ctx context.Context) error {
	if err := r.ensureGrid(ctx); err != nil {
		return err
	}
	tb := report.NewTable("Table I: success rates of SwarmFuzz in finding SPVs",
		"spoofing", "5 drones", "10 drones", "15 drones")
	sum, cnt := 0.0, 0
	errored := 0
	for _, d := range r.cfg.SpoofDistances {
		row := []string{fmt.Sprintf("%gm", d)}
		for _, n := range r.cfg.SwarmSizes {
			cell := CellFor(r.grid, n, d)
			rate := cell.SuccessRate()
			sum += rate
			cnt++
			errored += cell.Errored()
			row = append(row, fmt.Sprintf("%.0f%%", 100*rate))
		}
		tb.AddRow(row...)
	}
	if err := tb.Render(r.w); err != nil {
		return err
	}
	fmt.Fprintf(r.w, "average success rate: %.1f%% (paper: 48.8%%)\n", 100*sum/float64(cnt))
	if errored > 0 {
		fmt.Fprintf(r.w, "errored missions: %d (degraded outcomes, counted as not found)\n", errored)
	}
	return nil
}

// Table2 prints the average number of search iterations taken by
// SwarmFuzz to find SPVs (paper Table II).
func (r *Runner) Table2(ctx context.Context) error {
	if err := r.ensureGrid(ctx); err != nil {
		return err
	}
	tb := report.NewTable("Table II: average search iterations to find SPVs",
		"spoofing", "5 drones", "10 drones", "15 drones")
	for _, d := range r.cfg.SpoofDistances {
		row := []string{fmt.Sprintf("%gm", d)}
		for _, n := range r.cfg.SwarmSizes {
			cell := CellFor(r.grid, n, d)
			row = append(row, fmt.Sprintf("%.2f", cell.AvgIterations()))
		}
		tb.AddRow(row...)
	}
	return tb.Render(r.w)
}

// Table3 compares SwarmFuzz with R_Fuzz, G_Fuzz and S_Fuzz on the
// 5-drone, 10 m-spoofing configuration (paper Table III).
func (r *Runner) Table3(ctx context.Context) error {
	fuzzers := []fuzz.Fuzzer{fuzz.SwarmFuzz{}, fuzz.RFuzz{}, fuzz.GFuzz{}, fuzz.SFuzz{}}
	tb := report.NewTable("Table III: fuzzer comparison (5 drones, 10m spoofing)",
		"", "SwarmFuzz", "R_Fuzz", "G_Fuzz", "S_Fuzz")
	rates := []string{"Success rate"}
	iters := []string{"Avg. iterations"}
	errored := 0
	for _, f := range fuzzers {
		cell, err := RunCampaign(ctx, r.cfg, f, 5, 10)
		if err != nil {
			return err
		}
		errored += cell.Errored()
		rates = append(rates, fmt.Sprintf("%.0f%%", 100*cell.SuccessRate()))
		iters = append(iters, fmt.Sprintf("%.2f", cell.AvgIterations()))
	}
	tb.AddRow(rates...)
	tb.AddRow(iters...)
	if err := tb.Render(r.w); err != nil {
		return err
	}
	if errored > 0 {
		fmt.Fprintf(r.w, "errored missions: %d (degraded outcomes, counted as not found)\n", errored)
	}
	return nil
}

// Fig5 demonstrates the convexity of the objective f(t_s, Δt) (paper
// Fig. 5e) by sweeping Δt (and t_s) around an SPV found by SwarmFuzz.
func (r *Runner) Fig5(ctx context.Context) error {
	finding, mission, scanned, err := r.findExampleSPV(ctx)
	if err != nil {
		return err
	}
	if finding == nil {
		fmt.Fprintf(r.w, "Fig 5: no SPV found in %d scanned missions; increase -missions\n", scanned)
		return nil
	}
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		return err
	}

	objective := func(ts, dt float64) float64 {
		plan := finding.Plan
		plan.Start, plan.Duration = ts, dt
		res, err := sim.Run(mission, sim.RunOptions{Controller: ctrl, Spoof: &plan})
		if err != nil {
			return math.Inf(1)
		}
		return res.MinClearance[finding.Victim]
	}

	xsDT, ysDT := opt.Sweep1D(func(dt float64) float64 {
		return objective(finding.Plan.Start, dt)
	}, 0, 40, 21)
	xsTS, ysTS := opt.Sweep1D(func(ts float64) float64 {
		return objective(ts, finding.Plan.Duration)
	}, math.Max(0, finding.Plan.Start-20), finding.Plan.Start+20, 21)

	sDT := report.Series{Name: "f vs Δt (t_s fixed)", X: xsDT, Y: ysDT}
	sTS := report.Series{Name: "f vs t_s (Δt fixed)", X: xsTS, Y: ysTS}
	if err := report.AsciiPlot(r.w,
		fmt.Sprintf("Fig 5e: objective around %s (victim %d)", finding.Plan, finding.Victim),
		"parameter (s)", "victim-obstacle distance (m)", 64, 16, sDT, sTS); err != nil {
		return err
	}
	fmt.Fprintf(r.w, "discrete convexity violations (tol 0.3m): Δt sweep %d/%d, t_s sweep %d/%d\n",
		opt.ConvexityViolations(ysDT, 0.3), len(ysDT)-2,
		opt.ConvexityViolations(ysTS, 0.3), len(ysTS)-2)
	return r.writeCSV("fig5_objective.csv", sDT, sTS)
}

// Fig6 prints the cumulative success rate vs VDO per configuration
// (paper Fig. 6a–c) and the VDO CDF per swarm size (Fig. 6d).
func (r *Runner) Fig6(ctx context.Context) error {
	if err := r.ensureGrid(ctx); err != nil {
		return err
	}
	// Fig 6a-c: cumulative success rate against VDO.
	for _, n := range r.cfg.SwarmSizes {
		var series []report.Series
		for _, d := range r.cfg.SpoofDistances {
			cell := CellFor(r.grid, n, d)
			ths := SortedVDOThresholds(cell)
			rates := metrics.CumulativeSuccessRate(cell.VDOs(), cell.Successes(), ths)
			series = append(series, report.Series{
				Name: fmt.Sprintf("%gm spoofing", d),
				X:    ths,
				Y:    rates,
			})
		}
		if err := report.AsciiPlot(r.w,
			fmt.Sprintf("Fig 6: cumulative success rate vs VDO (%d drones)", n),
			"VDO (m)", "cumulative success rate", 64, 12, series...); err != nil {
			return err
		}
		if err := r.writeCSV(fmt.Sprintf("fig6_cumsuccess_%dd.csv", n), series...); err != nil {
			return err
		}
	}

	// Fig 6d: empirical CDF of VDOs per swarm size (clean runs; use
	// the first spoof distance's cells — VDO is an attack-free metric).
	var cdfSeries []report.Series
	ths := metrics.Linspace(0, 12, 25)
	for _, n := range r.cfg.SwarmSizes {
		cell := CellFor(r.grid, n, r.cfg.SpoofDistances[0])
		cdf := metrics.CDF(cell.VDOs(), ths)
		cdfSeries = append(cdfSeries, report.Series{
			Name: fmt.Sprintf("%d drones", n),
			X:    ths,
			Y:    cdf,
		})
	}
	if err := report.AsciiPlot(r.w, "Fig 6d: CDF of VDOs", "VDO (m)", "F(x)",
		64, 12, cdfSeries...); err != nil {
		return err
	}
	return r.writeCSV("fig6d_vdo_cdf.csv", cdfSeries...)
}

// Fig7 prints the distributions of the spoofing parameters found by
// SwarmFuzz (paper Fig. 7).
func (r *Runner) Fig7(ctx context.Context) error {
	if err := r.ensureGrid(ctx); err != nil {
		return err
	}
	tb := report.NewTable("Fig 7: GPS spoofing parameters found by SwarmFuzz (box stats)",
		"config", "param", "min", "q1", "median", "q3", "max", "mean", "n")
	var allStarts, allDurs []float64
	for _, d := range r.cfg.SpoofDistances {
		for _, n := range r.cfg.SwarmSizes {
			cell := CellFor(r.grid, n, d)
			starts, durs := cell.FoundParams()
			allStarts = append(allStarts, starts...)
			allDurs = append(allDurs, durs...)
			label := fmt.Sprintf("%dd-%gm", n, d)
			for _, p := range []struct {
				name string
				xs   []float64
			}{{"t_s", starts}, {"Δt", durs}} {
				b := metrics.Box(p.xs)
				tb.AddRow(label, p.name,
					fmt.Sprintf("%.1f", b.Min), fmt.Sprintf("%.1f", b.Q1),
					fmt.Sprintf("%.1f", b.Median), fmt.Sprintf("%.1f", b.Q3),
					fmt.Sprintf("%.1f", b.Max), fmt.Sprintf("%.1f", b.Mean),
					fmt.Sprintf("%d", b.N))
			}
		}
	}
	if err := tb.Render(r.w); err != nil {
		return err
	}
	fmt.Fprintf(r.w, "average spoofing start time %.2fs (paper: 6.91s), duration %.2fs (paper: 10.33s)\n",
		metrics.Mean(allStarts), metrics.Mean(allDurs))
	return nil
}

// findExampleSPV returns an SPV with its mission for Fig. 5,
// preferring the 5-drone/10 m seeds the cached campaign grid already
// cracked over re-fuzzing the seed stream from scratch. It also
// reports how many missions were scanned, so a miss can say what was
// searched.
func (r *Runner) findExampleSPV(ctx context.Context) (*fuzz.Finding, *sim.Mission, int, error) {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		return nil, nil, 0, err
	}
	scanned := 0
	try := func(seed uint64) (*fuzz.Finding, *sim.Mission, error) {
		mission, err := sim.NewMission(sim.DefaultMissionConfig(5, seed))
		if err != nil {
			return nil, nil, err
		}
		rep, err := fuzz.SwarmFuzz{}.Fuzz(fuzz.Input{
			Mission:       mission,
			Controller:    ctrl,
			SpoofDistance: 10,
		}, r.cfg.Fuzz)
		if errors.Is(err, fuzz.ErrUnsafeMission) {
			return nil, nil, nil // unsafe mission: skip, like the campaign
		}
		if err != nil {
			return nil, nil, err
		}
		if rep.Found {
			return &rep.Findings[0], mission, nil
		}
		return nil, nil, nil
	}

	// The cached grid already knows which seeds crack: replaying one
	// of them re-derives the full finding in a handful of iterations.
	if cell := CellFor(r.grid, 5, 10); cell != nil {
		for _, o := range cell.Outcomes {
			if !o.Found {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, nil, scanned, err
			}
			scanned++
			f, m, err := try(o.Seed)
			if f != nil || err != nil {
				return f, m, scanned, err
			}
		}
	}

	limit := uint64(r.cfg.Missions) * 10
	for seed := r.cfg.BaseSeed; seed < r.cfg.BaseSeed+limit; seed++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, scanned, err
		}
		scanned++
		f, m, err := try(seed)
		if f != nil || err != nil {
			return f, m, scanned, err
		}
	}
	return nil, nil, scanned, nil
}

// writeCSV exports series when a CSV directory is configured.
func (r *Runner) writeCSV(name string, series ...report.Series) error {
	if r.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.csvDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return report.WriteSeriesCSV(f, series...)
}
