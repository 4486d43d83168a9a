package main

import (
	"io"
	"strings"
	"testing"

	"swarmfuzz/internal/telemetry"
)

// TestPostmortemNeedsFlightlog pins that -postmortem without -flightlog
// is refused rather than ignored.
func TestPostmortemNeedsFlightlog(t *testing.T) {
	err := run([]string{"-n", "3", "-postmortem"}, telemetry.NewLogger(io.Discard, telemetry.LevelInfo))
	if err == nil || !strings.Contains(err.Error(), "-postmortem needs -flightlog") {
		t.Errorf("err = %v, want -postmortem needs -flightlog", err)
	}
}
