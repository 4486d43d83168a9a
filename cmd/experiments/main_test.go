package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swarmfuzz/internal/telemetry"
)

// runFlags runs the command with args and returns what it logged and
// its error.
func runFlags(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var logged strings.Builder
	err := run(context.Background(), append(args, "-missions", "1", "-progress", "0"), telemetry.NewLogger(&logged, telemetry.LevelInfo))
	return logged.String(), err
}

// TestAtlasNeedsTheGrid pins that -atlas is refused, before any work,
// for an experiment that does not run the SwarmFuzz grid, even when a
// file from an earlier run sits at the path: the stale artifact is
// neither reported as written nor rendered.
func TestAtlasNeedsTheGrid(t *testing.T) {
	dir := t.TempDir()
	stale, page := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "a.html")
	if err := os.WriteFile(stale, []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, exp := range []string{"table3", "fig5"} {
		logged, err := runFlags(t, "-exp", exp, "-atlas", stale, "-atlas-html", page)
		if err == nil || !strings.Contains(err.Error(), "does not run the SwarmFuzz grid") {
			t.Errorf("-exp %s -atlas: err = %v, want a refusal", exp, err)
		}
		if strings.Contains(logged, "written") {
			t.Errorf("-exp %s -atlas logged an artifact:\n%s", exp, logged)
		}
		if _, err := os.Stat(page); !os.IsNotExist(err) {
			t.Fatalf("-exp %s rendered the stale atlas (stat: %v)", exp, err)
		}
	}
}

// TestPostmortemNeedsFlightlog pins that -postmortem without -flightlog
// is refused rather than ignored.
func TestPostmortemNeedsFlightlog(t *testing.T) {
	if _, err := runFlags(t, "-exp", "fig5", "-postmortem"); err == nil || !strings.Contains(err.Error(), "-postmortem needs -flightlog") {
		t.Errorf("err = %v, want -postmortem needs -flightlog", err)
	}
}
