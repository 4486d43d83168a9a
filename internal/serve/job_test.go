package serve_test

import (
	"encoding/json"
	"testing"

	"swarmfuzz/internal/serve"
)

// TestHashNormalizesDefaults pins the spec-hash contract: a spec that
// omits defaulted knobs hashes identically to one spelling the
// defaults out, so idempotency dedup and the result cache treat them
// as the same work.
func TestHashNormalizesDefaults(t *testing.T) {
	var minimal serve.JobSpec
	if err := json.Unmarshal([]byte(`{"kind":"fuzz","swarm_size":5,"spoof_distance":10}`), &minimal); err != nil {
		t.Fatal(err)
	}
	explicit := serve.JobSpec{
		Kind: "Fuzz", Fuzzer: "SwarmFuzz", // case folds away too
		SwarmSize: 5, SpoofDistance: 10, Seed: 1,
	}
	if minimal.Hash() != explicit.Hash() {
		t.Errorf("minimal spec hash %s != explicit-defaults hash %s", minimal.Hash(), explicit.Hash())
	}

	// Campaign/grid defaults: omitted base_seed means 1.
	a := serve.JobSpec{Kind: serve.KindCampaign, SwarmSize: 5, SpoofDistance: 10, Missions: 3, BaseSeed: 1}
	b := serve.JobSpec{Kind: serve.KindCampaign, SwarmSize: 5, SpoofDistance: 10, Missions: 3}
	if a.Hash() != b.Hash() {
		t.Errorf("base_seed-1 spec hash %s != defaulted hash %s", a.Hash(), b.Hash())
	}

	// A materially different spec must not collide.
	other := explicit
	other.Seed = 2
	if other.Hash() == explicit.Hash() {
		t.Error("seed 1 and seed 2 specs hash identically")
	}

	// Hash works on a copy: the caller's spec stays un-normalized.
	if minimal.Fuzzer != "" {
		t.Errorf("Hash mutated the receiver: fuzzer = %q", minimal.Fuzzer)
	}
}

// TestCacheKeyIgnoresExecutionKnobs pins the cache address: identity
// and parallelism knobs — all pinned byte-identity-invariant elsewhere
// in the suite — are excluded, everything that changes the report is
// not.
func TestCacheKeyIgnoresExecutionKnobs(t *testing.T) {
	base := serve.JobSpec{
		Kind: serve.KindGrid, SwarmSizes: []int{3, 4}, SpoofDistances: []float64{10},
		Missions: 2, MaxIterPerSeed: 2, MaxSeeds: 1,
	}
	key := base.CacheKey()
	if len(key) != 64 {
		t.Fatalf("cache key %q is not a full sha256 hex digest", key)
	}

	same := []func(*serve.JobSpec){
		func(s *serve.JobSpec) { s.IdempotencyKey = "ik-someone-else" },
		func(s *serve.JobSpec) { s.Workers = 8 },
		func(s *serve.JobSpec) { s.SeedWorkers = 4 },
		func(s *serve.JobSpec) { s.Fuzzer = "SWARMFUZZ" },
	}
	for i, mutate := range same {
		spec := base
		mutate(&spec)
		if spec.CacheKey() != key {
			t.Errorf("execution-knob variant %d changed the cache key", i)
		}
	}

	diff := []func(*serve.JobSpec){
		func(s *serve.JobSpec) { s.Missions = 3 },
		func(s *serve.JobSpec) { s.BaseSeed = 2 },
		func(s *serve.JobSpec) { s.Atlas = true },
		func(s *serve.JobSpec) { s.SpoofDistances = []float64{20} },
		func(s *serve.JobSpec) { s.Fuzzer = "r_fuzz" },
	}
	for i, mutate := range diff {
		spec := base
		mutate(&spec)
		if spec.CacheKey() == key {
			t.Errorf("result-shaping variant %d did not change the cache key", i)
		}
	}
}

// TestCacheable pins which specs may be served from the result cache.
func TestCacheable(t *testing.T) {
	base := serve.JobSpec{Kind: serve.KindCampaign, SwarmSize: 3, SpoofDistance: 10, Missions: 1}
	if !base.Cacheable() {
		t.Error("plain campaign spec not cacheable")
	}
	for name, mutate := range map[string]func(*serve.JobSpec){
		"flightlog":  func(s *serve.JobSpec) { s.Flightlog = true },
		"postmortem": func(s *serve.JobSpec) { s.Postmortem = true },
		"timeout":    func(s *serve.JobSpec) { s.MissionTimeoutSec = 5 },
	} {
		spec := base
		mutate(&spec)
		if spec.Cacheable() {
			t.Errorf("%s spec claims cacheable", name)
		}
	}
}
