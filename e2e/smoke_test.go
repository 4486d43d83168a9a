package e2e

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"swarmfuzz/internal/fabric"
	"swarmfuzz/internal/serve"
)

// TestServeSmoke submits a tiny fuzz job through the CLI client and
// requires a persisted report, then runs a small atlas-recorded grid
// job and checks the observability surface on it: /v1/stats, the
// per-job stats, the stitched span tree (`trace` exits non-zero on a
// broken tree), the atlas artifact and XHTML page, the dashboard and
// one `top` frame.
func TestServeSmoke(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	d := startDaemon(t, bin("swarmfuzzd"), "serve", "-store", store, "-workers", "1", "-drain", "5s")

	job := d.submit(t, "-kind", "fuzz", "-n", "3", "-seed", "1", "-dist", "10", "-iters", "2", "-max-seeds", "1")
	d.waitDone(t, job)
	if fi, err := os.Stat(filepath.Join(store, "jobs", job, "report.json")); err != nil || fi.Size() == 0 {
		t.Fatalf("no report.json in the store for %s: %v", job, err)
	}

	grid := d.submit(t, "-kind", "grid", "-sizes", "3", "-dists", "10", "-missions", "1", "-iters", "2",
		"-max-seeds", "1", "-workers", "1", "-atlas")
	d.waitDone(t, grid)

	var stats serve.FleetStats
	getJSON(t, d.url("/v1/stats"), &stats)
	if stats.QueueWait.Count == 0 {
		t.Errorf("/v1/stats has no queue-wait observations: %+v", stats)
	}
	if stats.JobsByKind["grid"] != 1 {
		t.Errorf("/v1/stats counts %d grid jobs, want 1: %+v", stats.JobsByKind["grid"], stats)
	}
	mustContain(t, "job stats", d.client(t, "stats", grid), `"state": "done"`)
	mustContain(t, "trace tree", d.client(t, "trace", grid), `root "job"`)

	checkPopulatedCell(t, get(t, d.url("/v1/jobs/"+grid+"/atlas")))
	page := get(t, d.url("/v1/jobs/"+grid+"/atlas?format=html"))
	mustContain(t, "atlas page", string(page), "<!DOCTYPE html>")
	checkWellFormed(t, page)

	dash := string(get(t, d.url("/debug/dashboard")))
	mustContain(t, "dashboard", dash, "<!DOCTYPE html>", "</html>", "/v1/stats/events")
	if ext := regexp.MustCompile(`src="http|href="http|<link`).FindString(dash); ext != "" {
		t.Errorf("dashboard references an external asset: %s", ext)
	}

	mustContain(t, "top frame", d.client(t, "top", "-once"), "queue wait")
}

// TestChaosSmoke runs the same grid job on a healthy daemon and on one
// with a corrupt job dir in its store and a fault schedule injecting a
// torn status write, one report-rename ENOSPC and a mid-job stall long
// enough to trip the watchdog. The chaos report must be byte-identical
// to the fault-free one, with every injected failure on /metrics. Both
// daemons run under the race detector.
func TestChaosSmoke(t *testing.T) {
	tmp := t.TempDir()
	if err := goBuild(tmp, "swarmfuzzd", "-race"); err != nil {
		t.Fatal(err)
	}
	exe := filepath.Join(tmp, "swarmfuzzd")
	runJob := func(extra ...string) (*daemon, []byte) {
		d := startDaemon(t, exe, "serve", append([]string{"-workers", "1", "-drain", "5s"}, extra...)...)
		job := d.submit(t, "-kind", "grid", "-sizes", "3", "-dists", "10", "-missions", "2", "-iters", "2",
			"-max-seeds", "1", "-workers", "1")
		d.waitDone(t, job)
		return d, get(t, d.url("/v1/jobs/"+job+"/report"))
	}

	clean, want := runJob("-store", filepath.Join(tmp, "store-clean"))
	clean.stop()

	chaosStore := filepath.Join(tmp, "store-chaos")
	corrupt := filepath.Join(chaosStore, "jobs", "j000000")
	spec := filepath.Join(tmp, "chaos.json")
	if err := os.MkdirAll(corrupt, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corrupt, "spec.json"), []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spec, []byte(`{
  "seed": 7,
  "faults": [
    {"op": "write", "match": "status.json", "nth": 2, "kind": "torn", "torn_bytes": 8},
    {"op": "rename", "match": "report.json", "nth": 1, "kind": "enospc"},
    {"op": "stall", "match": "sim_runs", "nth": 3, "kind": "latency", "delay_ms": 1500}
  ]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	d, got := runJob("-store", chaosStore, "-chaos", spec, "-job-stall-timeout", "500ms")
	if !bytes.Equal(got, want) {
		t.Errorf("chaos report differs from the fault-free report:\n%s\nwant:\n%s", got, want)
	}
	if _, err := os.Stat(filepath.Join(chaosStore, "jobs", ".quarantine", "j000000")); err != nil {
		t.Errorf("corrupt job dir was not quarantined: %v", err)
	}
	metrics := get(t, d.url("/metrics"))
	for _, name := range []string{"serve_faults_injected", "serve_store_quarantined", "serve_watchdog_kills"} {
		if v := metric(t, metrics, name); v < 1 {
			t.Errorf("%s = %g on /metrics, want >= 1", name, v)
		}
	}
	// The schedule's faults are all transient (retries and the second
	// attempt absorb them), so nothing may have degraded durability.
	if v := metric(t, metrics, "serve_io_degraded"); v != 0 {
		t.Errorf("serve_io_degraded = %g, want 0", v)
	}
	d.stop()
}

// TestAtlasSmoke proves the search atlas on real binaries: two
// identical `swarmfuzz -atlas` runs write identical artifacts, a served
// fuzz job of the same spec serves those very bytes, two identical
// served grid jobs yield identical framed artifacts with a populated
// cell, a summary table and a well-formed XHTML page, and a job
// recorded without the atlas is a clear non-zero exit. (The golden
// and checkpoint-resume pins are Go tests of their own packages; `make
// atlas-smoke` runs them alongside.)
func TestAtlasSmoke(t *testing.T) {
	tmp := t.TempDir()
	var cli [2][]byte
	for i := range cli {
		path := filepath.Join(tmp, fmt.Sprintf("cli%d.jsonl", i))
		if _, errOut, err := run(bin("swarmfuzz"), "-n", "3", "-seed", "1", "-dist", "10", "-iters", "2", "-atlas", path); err != nil {
			t.Fatalf("swarmfuzz -atlas: %v\n%s", err, errOut)
		}
		cli[i] = readFile(t, path)
	}
	if !bytes.Equal(cli[0], cli[1]) {
		t.Fatal("CLI atlas is not deterministic")
	}
	mustContain(t, "CLI artifact", string(cli[0]), `"type":"atlas_end"`)

	d := startDaemon(t, bin("swarmfuzzd"), "serve", "-store", filepath.Join(tmp, "store"), "-workers", "1", "-drain", "5s")
	var jobs [2]string
	var served [2][]byte
	for i := range jobs {
		jobs[i] = d.submit(t, "-kind", "grid", "-sizes", "3", "-dists", "10", "-missions", "1", "-iters", "2",
			"-max-seeds", "1", "-workers", "1", "-atlas")
		d.waitDone(t, jobs[i])
	}
	for i, job := range jobs {
		path := filepath.Join(tmp, fmt.Sprintf("served%d.jsonl", i))
		d.client(t, "atlas", "-o", path, job)
		served[i] = readFile(t, path)
	}
	if !bytes.Equal(served[0], served[1]) {
		t.Fatal("served atlas is not deterministic across jobs")
	}
	checkPopulatedCell(t, served[0])

	fuzzJob := d.submit(t, "-kind", "fuzz", "-n", "3", "-seed", "1", "-dist", "10", "-iters", "2", "-atlas")
	d.waitDone(t, fuzzJob)
	fuzzPath := filepath.Join(tmp, "served-fuzz.jsonl")
	d.client(t, "atlas", "-o", fuzzPath, fuzzJob)
	if got := readFile(t, fuzzPath); !bytes.Equal(got, cli[0]) {
		t.Errorf("served fuzz-job atlas differs from the swarmfuzz -atlas file (%d vs %d bytes)", len(got), len(cli[0]))
	}
	mustContain(t, "atlas summary", d.client(t, "atlas", "-summary", jobs[0]), "CRACK-RATE")

	html := filepath.Join(tmp, "atlas.xhtml")
	d.client(t, "atlas", "-html", html, jobs[0])
	page := readFile(t, html)
	mustContain(t, "atlas page", string(page), "<!DOCTYPE html>", "Crack-rate heatmap")
	checkWellFormed(t, page)

	plain := d.submit(t, "-kind", "fuzz", "-n", "3", "-seed", "1", "-dist", "10", "-iters", "2", "-max-seeds", "1")
	d.waitDone(t, plain)
	_, errOut, err := run(bin("swarmfuzzd"), "atlas", "-addr", d.addr, plain)
	if err == nil {
		t.Fatal("atlas on an unrecorded job should fail")
	}
	mustContain(t, "unrecorded-job error", errOut, "without atlas recording")
}

// TestFabricSmoke runs a grid on a single-node daemon for reference
// artifacts, then the same grid on a coordinator with two worker
// daemons, kill -9ing one mid-grid: the report and atlas must be
// byte-identical to the single-node run. Resubmitting the identical
// spec must then be served from the content-addressed result cache.
func TestFabricSmoke(t *testing.T) {
	tmp := t.TempDir()
	spec := []string{"-kind", "grid", "-sizes", "3,4", "-dists", "10,20", "-missions", "2", "-iters", "2", "-max-seeds", "1", "-atlas"}

	ref := startDaemon(t, bin("swarmfuzzd"), "serve", "-store", filepath.Join(tmp, "store1"), "-workers", "1", "-drain", "5s")
	job := ref.submit(t, spec...)
	ref.waitDone(t, job)
	wantReport := get(t, ref.url("/v1/jobs/"+job+"/report"))
	wantAtlas := get(t, ref.url("/v1/jobs/"+job+"/atlas"))
	ref.stop()

	coord := startDaemon(t, bin("swarmfuzzd"), "coordinate", "-store", filepath.Join(tmp, "store2"),
		"-workers", "1", "-drain", "5s", "-lease-ttl", "2s")
	work := func(id string) *daemon {
		return startDaemon(t, bin("swarmfuzzd"), "work", "-coordinator", "http://"+coord.addr, "-id", id, "-poll", "100ms")
	}
	w1 := work("smoke-w1")
	work("smoke-w2")
	for i := 0; ; i++ {
		var st fabric.Status
		getJSON(t, coord.url("/fabric/v1/status"), &st)
		if st.LiveWorkers == 2 {
			break
		}
		if i == 100 {
			t.Fatalf("workers never registered: %+v", st)
		}
		time.Sleep(100 * time.Millisecond)
	}

	job = coord.submit(t, spec...)
	time.Sleep(300 * time.Millisecond)
	w1.kill()
	coord.waitDone(t, job)
	if got := get(t, coord.url("/v1/jobs/"+job+"/report")); !bytes.Equal(got, wantReport) {
		t.Errorf("fabric report differs from the single-node run:\n%s\nwant:\n%s", got, wantReport)
	}
	if got := get(t, coord.url("/v1/jobs/"+job+"/atlas")); !bytes.Equal(got, wantAtlas) {
		t.Error("fabric atlas differs from the single-node run")
	}
	metrics := get(t, coord.url("/metrics"))
	if metric(t, metrics, "fabric_leases_granted_total") < 1 {
		t.Error("no leases granted: the grid never sharded")
	}
	if metric(t, metrics, "serve_cache_stores_total") < 1 {
		t.Error("finished grid was not stored in the result cache")
	}

	job = coord.submit(t, spec...)
	if st := coord.waitDone(t, job); !st.CacheHit {
		t.Errorf("resubmission was not served from the cache: %+v", st)
	}
	if got := get(t, coord.url("/v1/jobs/"+job+"/report")); !bytes.Equal(got, wantReport) {
		t.Error("cached report differs from the reference")
	}
	if metric(t, get(t, coord.url("/metrics")), "serve_cache_hits_total") < 1 {
		t.Error("serve_cache_hits_total did not tick")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
