package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Level is a log severity.
type Level int32

// Log levels, in increasing severity.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Logger is the pipeline's leveled logger. It writes human-facing
// progress lines to one writer (conventionally stderr, so stdout stays
// machine-parseable). A nil *Logger is valid and silent, so callers
// never need to guard log statements. Safe for concurrent use.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level atomic.Int32
}

// NewLogger returns a Logger writing lines at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	l := &Logger{w: w}
	l.level.Store(int32(level))
	return l
}

// SetLevel changes the minimum emitted level.
func (l *Logger) SetLevel(level Level) {
	if l == nil {
		return
	}
	l.level.Store(int32(level))
}

// Enabled reports whether lines at the given level are emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= Level(l.level.Load())
}

func (l *Logger) logf(level Level, format string, args ...any) {
	if !l.Enabled(level) {
		return
	}
	line := fmt.Sprintf(level.String()+": "+format+"\n", args...)
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = io.WriteString(l.w, line)
}

// Debugf logs at debug level.
func (l *Logger) Debugf(format string, args ...any) { l.logf(LevelDebug, format, args...) }

// Infof logs at info level.
func (l *Logger) Infof(format string, args ...any) { l.logf(LevelInfo, format, args...) }

// Warnf logs at warn level.
func (l *Logger) Warnf(format string, args ...any) { l.logf(LevelWarn, format, args...) }

// Errorf logs at error level.
func (l *Logger) Errorf(format string, args ...any) { l.logf(LevelError, format, args...) }
