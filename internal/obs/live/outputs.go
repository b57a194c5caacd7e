package live

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"csi/internal/obs"
)

// Config holds the values of a command's -serve, -trace-out, -metrics,
// -cpuprofile and -memprofile flags; "" leaves that output off.
type Config struct {
	// Program prefixes the ops-plane announcement and names the binary in
	// /statusz.
	Program string

	Serve, TraceOut, Metrics, CPUProfile, MemProfile string
	// Extra registries are rendered read-only by /metrics (Options.Extra).
	Extra []*obs.Registry
}

// Outputs is one command's observability outputs. Commands build it with
// Setup and defer Close, so every exit path, errors included, flushes what
// the flags asked for.
type Outputs struct {
	// Tracer feeds the trace collector and the /events ring; nil (the
	// disabled tracer) when no trace, metrics or serve output is set.
	Tracer *obs.Tracer
	// Server is the ops plane, nil (and inert) without -serve.
	Server *Server

	cfg     Config
	sink    *obs.Collector
	cpu     *os.File
	flushed bool
}

// Setup builds the tracer, starts the ops plane (announcing its address on
// stderr) and starts the CPU profile. /statusz sections and readiness stay
// with the caller.
func Setup(cfg Config) (*Outputs, error) {
	o := &Outputs{cfg: cfg}
	var sinks []obs.Sink
	if cfg.TraceOut != "" || cfg.Metrics != "" {
		o.sink = obs.NewCollector()
		sinks = append(sinks, o.sink)
	}
	var ring *Ring
	if cfg.Serve != "" {
		ring = NewRing(4096)
		sinks = append(sinks, ring)
	}
	if len(sinks) > 0 {
		o.Tracer = obs.New(nil, obs.Fanout(sinks...))
	}
	if cfg.Serve != "" {
		srv, err := Start(Options{
			Addr: cfg.Serve, Program: cfg.Program,
			Registry: o.Tracer.Metrics(), Ring: ring, Extra: cfg.Extra,
		})
		if err != nil {
			return nil, err
		}
		o.Server = srv
		_, _ = fmt.Fprintln(os.Stderr, cfg.Program+": ops plane on http://"+srv.Addr())
	}
	if cfg.CPUProfile != "" {
		f, err := os.Create(cfg.CPUProfile)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				_ = f.Close()
			}
		}
		if err != nil {
			return nil, errors.Join(err, o.Server.Shutdown(2*time.Second))
		}
		o.cpu = f
	}
	return o, nil
}

// Flush writes the trace (".jsonl" = JSONL events, else Chrome trace
// format) and the metrics dump ("-" = stdout) now, for commands whose
// -metrics - dump precedes their own report. Only the first Flush writes;
// Close calls it too.
func (o *Outputs) Flush() error {
	if o.flushed {
		return nil
	}
	o.flushed = true
	var err error
	if path := o.cfg.TraceOut; path != "" {
		err = writeFile(path, func(w io.Writer) error {
			if strings.HasSuffix(path, ".jsonl") {
				return obs.WriteJSONEvents(w, o.sink.Records())
			}
			return obs.WriteChromeTrace(w, o.sink.Records(), obs.ChromeTraceOptions{})
		})
	}
	if err != nil || o.cfg.Metrics == "" {
		return err
	}
	if o.cfg.Metrics == "-" {
		return o.Tracer.Metrics().WriteText(os.Stdout)
	}
	return writeFile(o.cfg.Metrics, o.Tracer.Metrics().WriteText)
}

// Close flushes the trace and metrics, stops the CPU profile, writes a heap
// profile after a final GC and shuts the ops plane down. It attempts every
// step and returns their errors joined.
func (o *Outputs) Close() error {
	errs := []error{o.Flush()}
	if o.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, o.cpu.Close())
	}
	if o.cfg.MemProfile != "" {
		errs = append(errs, writeFile(o.cfg.MemProfile, func(w io.Writer) error {
			runtime.GC() // settle the heap so the profile reflects retained memory
			return pprof.WriteHeapProfile(w)
		}))
	}
	errs = append(errs, o.Server.Shutdown(2*time.Second))
	return errors.Join(errs...)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
