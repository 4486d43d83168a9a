package atlas

// Cell aggregation: per-mission summaries fold into the per-cell
// statistics of a cell_end record.

// CellStats are one grid cell's aggregated search statistics.
type CellStats struct {
	// N and Dist identify the cell (swarm size × spoof distance).
	N    int     `json:"n"`
	Dist float64 `json:"dist"`
	// Missions/Cracked count the cell's missions and how many found
	// an SPV; CrackRate is their ratio.
	Missions  int     `json:"missions"`
	Cracked   int     `json:"cracked"`
	CrackRate float64 `json:"crack_rate"`
	// MeanItersToCrack averages, over cracked missions only, the
	// search iterations the mission consumed before its SPV; 0 when
	// nothing cracked.
	MeanItersToCrack float64 `json:"mean_iters_to_crack"`
	// Seeds is the total seeds walked; StallFraction the fraction of
	// them classified as stalled.
	Seeds         int     `json:"seeds"`
	StallFraction float64 `json:"stall_fraction"`
	// Classes tallies seed outcomes; Hist is the objective-landscape
	// histogram over every iterate of the cell (HistBounds buckets
	// plus overflow).
	Classes map[string]int `json:"classes,omitempty"`
	Hist    []int          `json:"hist,omitempty"`
}

// AggregateCell folds one cell's mission summaries (nil entries — e.g.
// unsafe-seed skips — are ignored) into its statistics.
func AggregateCell(n int, dist float64, sums []*MissionSearch) CellStats {
	st := CellStats{
		N:       n,
		Dist:    r6(dist),
		Classes: map[string]int{},
		Hist:    make([]int, len(HistBounds)+1),
	}
	crackIters := 0
	stalled := 0
	for _, s := range sums {
		if s == nil {
			continue
		}
		st.Missions++
		if s.Cracked {
			st.Cracked++
			crackIters += s.Iters
		}
		st.Seeds += s.Seeds
		for class, c := range s.Classes {
			st.Classes[class] += c
		}
		stalled += s.Classes[ClassStalled]
		for i, c := range s.Hist {
			if i < len(st.Hist) {
				st.Hist[i] += c
			}
		}
	}
	if st.Missions > 0 {
		st.CrackRate = r6(float64(st.Cracked) / float64(st.Missions))
	}
	if st.Cracked > 0 {
		st.MeanItersToCrack = r6(float64(crackIters) / float64(st.Cracked))
	}
	if st.Seeds > 0 {
		st.StallFraction = r6(float64(stalled) / float64(st.Seeds))
	}
	return st
}
