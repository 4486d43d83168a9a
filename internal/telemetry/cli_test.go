package telemetry

import (
	"context"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestWithInterruptCancelsOnFirstSignal sends the process one SIGINT:
// the context must be cancelled and the warning logged. (The second
// signal's exit with status 130 is left to the binaries' manual check.)
func TestWithInterruptCancelsOnFirstSignal(t *testing.T) {
	var sb strings.Builder
	ctx, stop := WithInterrupt(context.Background(), NewLogger(&sb, LevelInfo))
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("context not cancelled by SIGINT")
	}
	if want := "warn: interrupt: finishing gracefully"; !strings.Contains(sb.String(), want) {
		t.Errorf("log %q lacks %q", sb.String(), want)
	}
}
