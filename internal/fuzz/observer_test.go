package fuzz

import (
	"bytes"
	"fmt"
	"testing"

	"swarmfuzz/internal/atlas"
)

// The atlas collector must satisfy the observer contract structurally
// (the atlas package deliberately does not import fuzz).
var _ SearchObserver = (*atlas.Collector)(nil)

// runWithObserver fuzzes one fixed input with an atlas collector
// attached and returns the recorded artifact bytes plus the report.
func runWithObserver(t *testing.T, f Fuzzer, in Input, opts Options, workers int) ([]byte, *Report) {
	t.Helper()
	var buf bytes.Buffer
	c := atlas.NewCollector(&buf, nil)
	opts.Observer = c
	opts.SeedWorkers = workers
	rep, err := f.Fuzz(in, opts)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", f.Name(), workers, err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("collector: %v", err)
	}
	return buf.Bytes(), rep
}

// TestObserverStreamMatchesReport checks, for every fuzzer, that the
// observer's record stream is consistent with the Report: one seed
// record per tried seed, mission verdict matching, and iteration
// accounting matching IterationsToFind.
func TestObserverStreamMatchesReport(t *testing.T) {
	in := Input{Mission: testMission(t, 4, 4), Controller: testController(t), SpoofDistance: 10}
	for _, fz := range []Fuzzer{SwarmFuzz{}, GFuzz{}, SFuzz{}, RFuzz{}} {
		t.Run(fz.Name(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.MaxIterPerSeed = 4
			opts.MaxSeeds = 4
			raw, rep := runWithObserver(t, fz, in, opts, 0)
			doc, err := atlas.ReadAtlas(bytes.NewReader(append(
				[]byte(fmt.Sprintf("{\"type\":\"atlas\",\"version\":1,\"fuzzer\":%q}\n", fz.Name())), raw...)))
			if err != nil {
				t.Fatal(err)
			}
			if len(doc.Missions) != 1 {
				t.Fatalf("%d mission streams, want 1", len(doc.Missions))
			}
			m := doc.Missions[0]
			if len(m.Seeds) != rep.SeedsTried {
				t.Errorf("%d seed records, report tried %d", len(m.Seeds), rep.SeedsTried)
			}
			if m.End == nil {
				t.Fatal("missing mission_end record")
			}
			if m.End.Found != rep.Found {
				t.Errorf("mission_end found=%v, report found=%v", m.End.Found, rep.Found)
			}
			if m.End.Iters != rep.IterationsToFind {
				t.Errorf("mission_end iters=%d, report IterationsToFind=%d", m.End.Iters, rep.IterationsToFind)
			}
			if rep.Found {
				cracked := 0
				for _, s := range m.Seeds {
					if s.Class == atlas.ClassCracked {
						cracked++
					}
				}
				if cracked != 1 {
					t.Errorf("%d cracked seed records, want exactly the finding's", cracked)
				}
			}
		})
	}
}

// TestObserverParallelWalkByteIdentity extends the speculative-walk
// determinism contract to the atlas stream: the observer's bytes must
// be identical between the sequential and speculative walks, and
// across repeated runs.
func TestObserverParallelWalkByteIdentity(t *testing.T) {
	runPool(t)
	for _, fx := range []struct {
		n    int
		seed uint64
	}{{4, 4}, {5, 4}} {
		in := Input{Mission: testMission(t, fx.n, fx.seed), Controller: testController(t), SpoofDistance: 10}
		opts := DefaultOptions()
		opts.MaxIterPerSeed = 6
		opts.MaxSeeds = 8
		seq, _ := runWithObserver(t, SwarmFuzz{}, in, opts, 0)
		if len(seq) == 0 {
			t.Fatal("observer recorded nothing")
		}
		again, _ := runWithObserver(t, SwarmFuzz{}, in, opts, 0)
		if !bytes.Equal(seq, again) {
			t.Errorf("n%d seed%d: repeated sequential runs differ", fx.n, fx.seed)
		}
		for _, workers := range []int{2, 4} {
			par, _ := runWithObserver(t, SwarmFuzz{}, in, opts, workers)
			if !bytes.Equal(seq, par) {
				t.Errorf("n%d seed%d: workers=%d atlas stream differs from sequential (%d vs %d bytes)",
					fx.n, fx.seed, workers, len(seq), len(par))
			}
		}
	}
}
