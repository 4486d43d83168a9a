package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swarmfuzz/internal/telemetry"
)

// TestPostmortemNeedsFlightlog pins that -postmortem without -flightlog
// is refused rather than ignored.
func TestPostmortemNeedsFlightlog(t *testing.T) {
	err := run(context.Background(), []string{"-n", "3", "-postmortem"}, io.Discard, telemetry.NewLogger(io.Discard, telemetry.LevelInfo))
	if err == nil || !strings.Contains(err.Error(), "-postmortem needs -flightlog") {
		t.Errorf("err = %v, want -postmortem needs -flightlog", err)
	}
}

// TestUnsafeMissionWritesNoAtlas pins that a mission failing its
// no-attack test is a clean exit that leaves no atlas artifact: there
// is no search to record, so nothing gets framed.
func TestUnsafeMissionWritesNoAtlas(t *testing.T) {
	path := filepath.Join(t.TempDir(), "atlas.jsonl")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-n", "15", "-seed", "14", "-dist", "10", "-atlas", path},
		&out, telemetry.NewLogger(io.Discard, telemetry.LevelInfo))
	if err != nil {
		t.Fatalf("run = %v, want a clean exit", err)
	}
	if !strings.Contains(out.String(), "fails its initial no-attack test") {
		t.Errorf("stdout = %q, want the unsafe-mission line", out.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("atlas file: stat err = %v, want it absent", err)
	}
}
