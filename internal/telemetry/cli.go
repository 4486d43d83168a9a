package telemetry

import (
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
)

// Flags bundles the observability flags shared by the pipeline's
// binaries: span tracing, metric snapshots, the pprof debug server and
// log verbosity.
type Flags struct {
	// Trace is the JSONL span trace output path ("" disables tracing).
	Trace string
	// Metrics is the JSON metrics snapshot path, written on Close.
	Metrics string
	// Pprof is the debug server listen address ("" disables it).
	Pprof string
	// CPUProfile is a pprof CPU profile output path, recording from
	// Start to Close ("" disables it).
	CPUProfile string
	// MemProfile is a pprof heap profile output path, written on Close
	// after a forced GC ("" disables it).
	MemProfile string
	// Verbose and Quiet adjust the log level from the default info.
	Verbose, Quiet bool
}

// RegisterFlags registers the standard observability flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "", "write a JSONL span trace to this `file`")
	fs.StringVar(&f.Metrics, "metrics", "", "write a JSON metrics snapshot to this `file` on exit")
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof and /metrics on this `addr` (e.g. localhost:6060)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the whole run to this `file`")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this `file` on exit")
	fs.BoolVar(&f.Verbose, "v", false, "verbose logging (debug level)")
	fs.BoolVar(&f.Quiet, "quiet", false, "log only errors")
	return f
}

// LogLevel returns the log level the flags select: debug with -v,
// error-only with -quiet, info otherwise (-quiet wins over -v).
func (f *Flags) LogLevel() Level {
	switch {
	case f.Quiet:
		return LevelError
	case f.Verbose:
		return LevelDebug
	}
	return LevelInfo
}

// Session is one CLI run's wired-up observability: the recorder to
// thread through the pipeline, plus the trace file and debug server
// lifecycles. Close flushes and releases everything.
type Session struct {
	// Rec is the run's recorder; recording into the registry is always
	// on (it is cheap), tracing only when -trace was given.
	Rec *Telemetry
	// Log is the logger passed to Start, levelled per the flags.
	Log *Logger

	metricsPath string
	memPath     string
	traceFile   *os.File
	cpuFile     *os.File
	srv         *http.Server
}

// Start applies the flag-selected level to log, opens the trace file
// and starts the debug server as requested, and returns the session.
func (f *Flags) Start(log *Logger) (*Session, error) {
	log.SetLevel(f.LogLevel())
	s := &Session{Log: log, metricsPath: f.Metrics, memPath: f.MemProfile}
	var trace io.Writer
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			return nil, err
		}
		s.traceFile = file
		trace = file
	}
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err != nil {
			s.release()
			return nil, err
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			_ = file.Close()
			s.release()
			return nil, err
		}
		s.cpuFile = file
	}
	s.Rec = New(NewRegistry(), trace)
	if f.Pprof != "" {
		srv, addr, err := ServeDebug(f.Pprof, s.Rec.Registry())
		if err != nil {
			s.release()
			return nil, err
		}
		s.srv = srv
		log.Infof("debug server on http://%s (/debug/pprof/, /metrics, /metrics.json)", addr)
	}
	return s, nil
}

// release undoes a partial Start so its error paths leak nothing.
func (s *Session) release() {
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		_ = s.cpuFile.Close()
		s.cpuFile = nil
	}
	if s.traceFile != nil {
		_ = s.traceFile.Close()
		s.traceFile = nil
	}
}

// Close stops the debug server, finishes the CPU profile, writes the
// heap profile and metrics snapshot, and closes the trace file,
// returning the first error encountered.
func (s *Session) Close() error {
	var first error
	if s.srv != nil {
		_ = s.srv.Close()
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := s.cpuFile.Close(); err != nil {
			first = err
		}
		s.cpuFile = nil
	}
	if s.memPath != "" {
		f, err := os.Create(s.memPath)
		if err != nil {
			if first == nil {
				first = err
			}
		} else {
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
				first = err
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if s.metricsPath != "" {
		f, err := os.Create(s.metricsPath)
		if err != nil {
			first = err
		} else {
			if err := s.Rec.Registry().Snapshot().WriteJSON(f); err != nil && first == nil {
				first = err
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if s.traceFile != nil {
		if err := s.traceFile.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WithInterrupt returns a context cancelled by the first SIGINT or
// SIGTERM, which log warns about; a second signal exits the process
// with status 130. The returned func stops listening and cancels.
func WithInterrupt(parent context.Context, log *Logger) (context.Context, func()) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		log.Warnf("interrupt: finishing gracefully — ^C again to kill")
		cancel()
		<-ch
		os.Exit(130)
	}()
	return ctx, func() { signal.Stop(ch); cancel() }
}
