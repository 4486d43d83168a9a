package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestLoggerLevels(t *testing.T) {
	var sb strings.Builder
	log := NewLogger(&sb, LevelInfo)
	log.Debugf("hidden %d", 1)
	log.Infof("shown %d", 2)
	log.Warnf("warned")
	log.Errorf("failed")
	out := sb.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("debug line emitted at info level:\n%s", out)
	}
	for _, want := range []string{"info: shown 2\n", "warn: warned\n", "error: failed\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}

	// A level above every severity mutes the logger.
	log.SetLevel(LevelError + 1)
	before := sb.Len()
	log.Errorf("muted")
	if sb.Len() != before {
		t.Error("muted logger wrote output")
	}
}

func TestNilLoggerIsSilent(t *testing.T) {
	var log *Logger
	log.Debugf("a")
	log.Infof("b")
	log.Warnf("c")
	log.Errorf("d")
	log.SetLevel(LevelDebug)
	if log.Enabled(LevelError) {
		t.Error("nil logger reports enabled")
	}
}

func TestLoggerConcurrency(t *testing.T) {
	var sb safeBuilder
	log := NewLogger(&sb, LevelDebug)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				log.Infof("line %d", j)
			}
		}()
	}
	wg.Wait()
	if got := strings.Count(sb.String(), "\n"); got != 800 {
		t.Errorf("got %d lines, want 800", got)
	}
}

// safeBuilder is a concurrency-safe strings.Builder for tests.
type safeBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *safeBuilder) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *safeBuilder) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}
