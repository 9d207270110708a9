// Package diag registers the diagnostics flags every command in this
// repository shares — the Go profiler trio (-cpuprofile, -memprofile,
// -trace), the scheduler telemetry set (-trace-out, -metrics,
// -metrics-out), and the live observability pair (-serve,
// -metrics-stream) — and manages their lifecycle behind one
// Start/Close pair, so the CLIs carry no per-command profiling,
// telemetry or ops-server plumbing.
package diag

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sync/atomic"
	"time"

	"nocsched/internal/obs"
	"nocsched/internal/telemetry"
)

// Flags holds the parsed diagnostics flag values.
type Flags struct {
	// CPUProfile, MemProfile and RuntimeTrace are the standard Go
	// profiler outputs (pprof CPU/heap profiles, runtime/trace).
	CPUProfile   string
	MemProfile   string
	RuntimeTrace string

	// TraceOut is the Chrome trace_event JSON output: scheduler phase
	// spans plus the committed schedule rendered one track per PE and
	// per link (load it in Perfetto or chrome://tracing).
	TraceOut string
	// MetricsOut is the metrics snapshot JSON output.
	MetricsOut string
	// Metrics appends the human-readable metrics report to the
	// command's normal output.
	Metrics bool

	// Serve is the listen address of the live ops HTTP server
	// (/metrics, /healthz, /readyz, /snapshot, /debug/pprof/); empty
	// leaves it off.
	Serve string
	// MetricsStream is the JSONL snapshot time-series output: one
	// timestamped telemetry snapshot per line, sampled every
	// StreamInterval plus once at start and once at Close.
	MetricsStream string
	// StreamInterval is the -metrics-stream sampling period.
	StreamInterval time.Duration

	telemetryRegistered bool
}

// RegisterProfiling registers only the Go profiler flags on fs —
// commands with no scheduler in their hot path (tgffgen) keep their
// flag surface minimal.
func RegisterProfiling(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file")
	fs.StringVar(&f.RuntimeTrace, "trace", "", "write a runtime execution trace to this file")
	return f
}

// Register registers the full diagnostics flag set: the profiler trio
// plus the telemetry flags.
func Register(fs *flag.FlagSet) *Flags {
	f := RegisterProfiling(fs)
	f.telemetryRegistered = true
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace_event JSON file (phase spans + schedule Gantt; open in Perfetto)")
	fs.BoolVar(&f.Metrics, "metrics", false, "append the telemetry metrics report to the output")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the telemetry metrics snapshot as JSON to this file")
	fs.StringVar(&f.Serve, "serve", "", "serve live metrics over HTTP on this address (/metrics, /healthz, /readyz, /snapshot, /debug/pprof/)")
	fs.StringVar(&f.MetricsStream, "metrics-stream", "", "append timestamped telemetry snapshots as JSON lines to this file")
	fs.DurationVar(&f.StreamInterval, "stream-interval", time.Second, "sampling period of -metrics-stream")
	return f
}

// telemetryOn reports whether any telemetry output was requested.
// -serve and -metrics-stream imply collection: a live plane with
// nothing behind it would expose only runtime series.
func (f *Flags) telemetryOn() bool {
	return f.TraceOut != "" || f.MetricsOut != "" || f.Metrics || f.Serve != "" || f.MetricsStream != ""
}

// Session is the running diagnostics state between Start and Close.
type Session struct {
	flags     *Flags
	stopProf  func() error
	collector *telemetry.Collector
	traceFile *os.File
	chrome    *telemetry.ChromeSink

	ready      atomic.Bool
	obsServer  *obs.Server
	runtimeCol *obs.RuntimeCollector
	stream     *obs.SnapshotStream
	streamFile *os.File

	closed bool
	err    error
}

// Start begins the requested profilers and opens the telemetry outputs.
// Always Close the returned session exactly once (defer is fine), even
// on error paths — Close finalizes the profile and trace files.
func (f *Flags) Start() (*Session, error) {
	stop, err := startProfiling(f.CPUProfile, f.MemProfile, f.RuntimeTrace)
	if err != nil {
		return nil, err
	}
	s := &Session{flags: f, stopProf: stop}
	if f.TraceOut != "" {
		tf, err := os.Create(f.TraceOut)
		if err != nil {
			stop() //nolint:errcheck // the create error is the one to report
			return nil, err
		}
		s.traceFile = tf
		s.chrome = telemetry.NewChromeSink(tf)
	}
	if f.telemetryOn() {
		// A typed-nil *ChromeSink must not reach the Sink interface, or
		// the tracer would think it has somewhere to write.
		if s.chrome != nil {
			s.collector = telemetry.NewCollector(s.chrome)
		} else {
			s.collector = telemetry.NewCollector(nil)
		}
	}
	if f.Serve != "" {
		// The live plane carries the Go runtime series alongside the
		// scheduler metrics; readiness flips when the CLI calls
		// MarkReady after its setup and validation are done.
		s.runtimeCol = obs.StartRuntime(s.collector.Registry, time.Second)
		srv, err := obs.Serve(f.Serve, obs.Options{
			Registry: s.collector.Registry,
			Ready:    s.ready.Load,
		})
		if err != nil {
			s.Close() //nolint:errcheck // the listen error is the one to report
			return nil, err
		}
		s.obsServer = srv
	}
	if f.MetricsStream != "" {
		sf, err := os.Create(f.MetricsStream)
		if err != nil {
			s.Close() //nolint:errcheck // the create error is the one to report
			return nil, err
		}
		s.streamFile = sf
		interval := f.StreamInterval
		if interval <= 0 {
			interval = time.Second
		}
		s.stream = obs.StartSnapshotStream(sf, s.collector.Registry, interval)
	}
	return s, nil
}

// MarkReady flips the ops server's /readyz endpoint to 200: call it
// once the command has validated its inputs and is about to start (or
// keep accepting) real work. A no-op without -serve; valid on a nil
// session.
func (s *Session) MarkReady() {
	if s == nil {
		return
	}
	s.ready.Store(true)
}

// Collector returns the telemetry collector to thread into scheduler
// options — nil (collection disabled) when no telemetry flag was set,
// so the zero-cost default applies. Valid on a nil session.
func (s *Session) Collector() *telemetry.Collector {
	if s == nil {
		return nil
	}
	return s.collector
}

// ChromeSink returns the trace_event sink of -trace-out (nil when the
// flag was not set) for rendering a committed schedule into the trace
// alongside the phase spans. Valid on a nil session.
func (s *Session) ChromeSink() *telemetry.ChromeSink {
	if s == nil {
		return nil
	}
	return s.chrome
}

// WriteReport appends the -metrics text report to w; a no-op unless the
// flag was set. Call it before Close, after the run's metrics are in.
func (s *Session) WriteReport(w io.Writer) error {
	if s == nil || !s.flags.Metrics || s.collector == nil {
		return nil
	}
	if _, err := io.WriteString(w, "run metrics:\n"); err != nil {
		return err
	}
	return s.collector.Registry.Snapshot().WriteText(w)
}

// Close stops the profilers, writes the -metrics-out snapshot, and
// finalizes the -trace-out file, returning the first error from any of
// them. Closing twice is safe; a nil session closes cleanly.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	if s.closed {
		return s.err
	}
	s.closed = true
	keep := func(err error) {
		if s.err == nil && err != nil {
			s.err = err
		}
	}
	keep(s.stopProf())
	// The live plane drains before the file outputs: the stream's final
	// sample and the last scrape should both see the run's closing
	// metric values.
	if s.stream != nil {
		keep(s.stream.Close())
		keep(s.streamFile.Close())
	}
	if s.runtimeCol != nil {
		s.runtimeCol.Close()
	}
	if s.obsServer != nil {
		keep(s.obsServer.Close())
	}
	if s.flags.MetricsOut != "" && s.collector != nil {
		f, err := os.Create(s.flags.MetricsOut)
		if err != nil {
			keep(err)
		} else {
			keep(s.collector.Registry.Snapshot().WriteJSON(f))
			keep(f.Close())
		}
	}
	if s.chrome != nil {
		keep(s.chrome.Close())
		keep(s.traceFile.Close())
	}
	return s.err
}

// startProfiling enables the requested Go profilers; empty paths
// disable the corresponding profiler. It returns a stop function that
// flushes and closes everything — call it exactly once, before process
// exit (defer is fine, but note os.Exit skips defers). The heap profile
// is written at stop time, after a GC, so it reflects live memory at
// the end of the run.
func startProfiling(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	var cpuFile, traceFile *os.File
	cleanup := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
	}
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("diag: start cpu profile: %w", err)
		}
	}
	if tracePath != "" {
		traceFile, err = os.Create(tracePath)
		if err != nil {
			cleanup()
			return nil, err
		}
		if err := trace.Start(traceFile); err != nil {
			cleanup()
			return nil, fmt.Errorf("diag: start trace: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
			cpuFile = nil
		}
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil {
				return err
			}
			traceFile = nil
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("diag: write heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
