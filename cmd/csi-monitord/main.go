// csi-monitord is the long-running monitoring daemon: it ingests an
// interleaved multi-flow frame stream (JSONL on stdin, or a recorded frame
// file) and runs the CSI inference incrementally over every flow, emitting
// one result line per finalized flow. SIGINT/SIGTERM drains gracefully:
// every live flow is flushed to a final (possibly partial) inference before
// exit.
//
// Modes:
//
//	csi-monitord -manifest m.json                      # live: frames on stdin
//	csi-monitord -manifest m.json -replay frames.jsonl # deterministic replay
//	csi-monitord -manifest m.json -batch  frames.jsonl # offline reference pipeline
//	csi-monitord -pack -o frames.jsonl a.json b.bin    # record runs -> frame stream
//
// Replay and batch produce byte-identical output over the same frames (the
// repository's replay determinism gate); live mode adds wall-clock-driven
// behavior (shedding, solve deadlines) that replay deliberately excludes.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/guard"
	"csi/internal/media"
	"csi/internal/obs"
	"csi/internal/obs/live"
	"csi/internal/pcap"
	"csi/internal/stream"
	"csi/internal/stream/crashpoint"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "csi-monitord:", err)
		os.Exit(1)
	}
}

// run does the work of main and returns its first error, so the deferred
// output-file close and ops-plane shutdown run on every exit path.
func run() (err error) {
	var (
		manifest  = flag.String("manifest", "", "manifest file (.json, .mpd or .m3u8); required except with -pack")
		mux       = flag.Bool("mux", false, "transport multiplexing analysis (SQ designs)")
		host      = flag.String("host", "", "media SNI host (default: manifest host)")
		replay    = flag.String("replay", "", "replay a recorded frame stream deterministically (blocking ingest, no wall clock)")
		batch     = flag.String("batch", "", "run the offline batch pipeline over a recorded frame stream (reference for replay identity)")
		pack      = flag.Bool("pack", false, "pack capture runs (args: .json, .bin or .pcap) into one interleaved frame stream")
		out       = flag.String("o", "", "output path (default stdout)")
		maxFlows  = flag.Int("max-flows", 64, "flow table cap; beyond it the least-recently-active flow is evicted to a partial result")
		memBudget = flag.Int64("flow-mem-budget", 64<<20, "per-flow buffered-bytes budget; a breaching flow is finalized early with a flow_evicted warning")
		resolve   = flag.Int("resolve-every", 0, "re-solve a flow after this many new packets (0 = solve only at finalization)")
		budget    = flag.Int64("work-budget", 0, "deterministic per-solve guard step budget (0 = unbounded)")
		deadline  = flag.Float64("solve-deadline", 0, "wall-clock per-solve deadline seconds, live mode only (0 = none)")
		idleEvict = flag.Float64("idle-evict", 0, "evict flows idle for this many seconds of stream (virtual) time (0 = never)")
		cacheMB   = flag.Int64("half-cache-mb", 0, "share MUX half enumerations across flows through a process cache of this many MiB (0 = disabled; never changes results)")
		serve     = flag.String("serve", "", "serve the live ops plane (/metrics, /statusz incl. the flow table, /events, pprof) on this address")
		stateDir  = flag.String("state-dir", "", "crash-safe state directory (frame WAL + snapshots); a restart recovers and continues with byte-identical output")
		walSync   = flag.String("wal-sync", "interval", "WAL fsync policy: always, interval[:N] (every N frames, default 256) or never")
		snapEvery = flag.Int("snapshot-every", 4096, "attempt a state snapshot after this many WAL'd frames (at the next quiescent point)")
	)
	flag.Parse()

	// Crash injection (tests and the check.sh crash matrix only): the env
	// read stays in the command so internal/stream remains clock- and
	// env-free for csi-vet.
	if err := crashpoint.Arm(os.Getenv("CSI_CRASHPOINT")); err != nil {
		return err
	}

	durable := *stateDir != ""
	liveMode := *replay == ""
	if durable && (*batch != "" || *pack) {
		return fmt.Errorf("-state-dir needs the monitor (live or -replay); -batch and -pack are one-shot")
	}

	output := io.Writer(os.Stdout)
	emitted := 0 // complete result lines already in a durable live output file
	if *out != "" {
		var f *os.File
		var err error
		if durable && liveMode {
			// The file may hold results a crashed predecessor already
			// emitted: keep them (suppressing re-emission below) and cut a
			// torn last line.
			f, emitted, err = openDurableOutput(*out)
		} else {
			f, err = os.Create(*out)
		}
		if err != nil {
			return err
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "csi-monitord:", err)
			}
		}()
		output = f
	}

	if *pack {
		return packRuns(flag.Args(), output)
	}
	if *manifest == "" {
		return fmt.Errorf("-manifest is required")
	}
	man, err := media.LoadManifestFile(*manifest, *host)
	if err != nil {
		return err
	}
	if *replay != "" && *batch != "" {
		return fmt.Errorf("-replay and -batch are mutually exclusive")
	}

	p := core.Params{MediaHost: *host, Mux: *mux, Degrade: true}
	if p.MediaHost == "" {
		p.MediaHost = man.Host
	}
	halfCache := core.NewHalfCache(*cacheMB << 20)
	p.HalfCache = halfCache

	opts := stream.Options{
		Manifest:        man,
		Params:          p,
		MaxFlows:        *maxFlows,
		FlowMemBudget:   *memBudget,
		ResolveEvery:    *resolve,
		WorkBudget:      *budget,
		QuarantineAfter: 3,
		IdleEvictSec:    *idleEvict,
	}

	if *batch != "" {
		frames, err := loadFrames(*batch)
		if err != nil {
			return err
		}
		return stream.WriteResults(output, stream.Batch(frames, opts))
	}

	var input io.Reader = os.Stdin
	if !liveMode {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		defer f.Close()
		input = f
		// Replay is the deterministic mode: every frame is processed
		// (back-pressure, no shedding) and no wall time is read. Live mode
		// keeps the default ShedDrop.
		opts.ShedPolicy = stream.ShedBlock
	} else {
		opts.Clock = guard.WallClock()
		opts.SolveDeadlineSec = *deadline
	}

	// The monitor's stream.* counters live in this tracer's registry; the
	// live plane serves it read-only on /metrics. Without -serve the
	// tracer only keeps that registry.
	ops, err := live.Setup(live.Config{
		Program: "csi-monitord", Serve: *serve,
		Extra: []*obs.Registry{halfCache.Registry()},
	})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, ops.Close()) }()
	opts.Obs = ops.Tracer
	if opts.Obs == nil {
		opts.Obs = obs.New(nil, nil)
	}
	opts.Params.Stages = ops.Server.StageTimer()

	// Open the durability layer before the monitor: recovery needs the
	// restored-result count to dedupe the live output stream, and OnResult
	// must be in place before the WAL tail replays.
	var dur *stream.Durability
	if durable {
		policy, every, err := stream.ParseSyncPolicy(*walSync)
		if err != nil {
			return err
		}
		dur, err = stream.OpenDurability(*stateDir, stream.DurabilityOptions{
			SyncPolicy: policy, SyncEvery: every, SnapshotEvery: *snapEvery, Obs: opts.Obs,
		})
		if err != nil {
			return err
		}
	}

	// Stream each result as it commits in live mode; replay writes the
	// drained set at once (identical contents, deterministic bytes). After
	// a crash, a durable live run suppresses the results its output file
	// already holds beyond the snapshot (exactly-once to a file; stdout is
	// at-least-once).
	if liveMode {
		skip := 0
		if dur != nil {
			skip = emitted - dur.RestoredResults()
		}
		opts.OnResult = func(r stream.Result) {
			if skip > 0 {
				skip--
				return
			}
			if err := stream.WriteResults(output, []stream.Result{r}); err != nil {
				fmt.Fprintln(os.Stderr, "csi-monitord:", err)
			}
		}
	}

	var mon *stream.Monitor
	var resume uint64
	if dur != nil {
		rec := stream.Recover(dur, opts)
		mon = rec.Monitor
		if !liveMode {
			// Replay restarts the recording from the top: skip the prefix
			// the durable state covers. Live stdin continues; no skip.
			resume = rec.Resume
		}
		for _, w := range rec.Warnings {
			fmt.Fprintf(os.Stderr, "csi-monitord: recovery: %s: %s\n", w.Code, w.Detail)
		}
		if rec.Resume > 0 {
			fmt.Fprintf(os.Stderr, "csi-monitord: recovered %d frames (%d replayed from wal, %d results restored) from %s\n",
				rec.Resume, rec.Replayed, rec.RestoredResults, *stateDir)
		}
	} else {
		mon = stream.New(opts)
	}
	ops.Server.SetStatus("monitor", mon.Status)
	if dur != nil {
		ops.Server.SetStatus("durability", dur.Status)
	}
	ops.Server.SetReady(true)

	// The reader feeds the monitor until EOF or a termination signal; the
	// signal path stops ingestion and drains every live flow to a final
	// partial inference.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	readErr := make(chan error, 1)
	go func() {
		fr := stream.NewFrameReader(input)
		var n uint64
		for {
			f, err := fr.Next()
			if err == io.EOF {
				readErr <- nil
				return
			}
			if err != nil {
				if durable && errors.Is(err, stream.ErrTruncatedTail) {
					// Crash-truncated recording: the valid prefix is the
					// stream. Batch mode (loadFrames) still fails on this.
					fmt.Fprintf(os.Stderr, "csi-monitord: input: %v (tolerated; end of stream)\n", err)
					readErr <- nil
					return
				}
				readErr <- err
				return
			}
			n++
			if n <= resume {
				// Replay restart: the durable state already covers this
				// prefix of the recording.
				continue
			}
			mon.Ingest(f)
		}
	}()

	var firstErr error
	select {
	case sig := <-sigC:
		fmt.Fprintf(os.Stderr, "csi-monitord: %v: draining %s\n", sig, "live flows")
	case firstErr = <-readErr:
	}
	signal.Stop(sigC)
	results := mon.Drain()
	if !liveMode {
		if err := stream.WriteResults(output, results); err != nil {
			return err
		}
	}
	return firstErr
}

// openDurableOutput opens a durable live run's output file preserving the
// results a crashed predecessor already wrote: a torn final line (crash
// mid-write) is cut, complete lines are counted so their re-commits can be
// suppressed, and new writes append.
func openDurableOutput(path string) (*os.File, int, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, 0, err
	}
	complete := bytes.Count(data, []byte{'\n'})
	valid := int64(bytes.LastIndexByte(data, '\n') + 1)
	if valid < int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			_ = f.Close()
			return nil, 0, err
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, 0, err
	}
	return f, complete, nil
}

func loadFrames(path string) ([]stream.Frame, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return stream.ReadFrames(f)
}

// packRuns merges capture runs (JSON, binary or pcap) into one interleaved
// frame recording; flows are named by file base name (extension stripped).
func packRuns(paths []string, w io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("-pack needs capture run files as arguments")
	}
	runs := make(map[string]*capture.Trace, len(paths))
	for _, path := range paths {
		run, err := pcap.LoadRun(path)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if _, dup := runs[name]; dup {
			return fmt.Errorf("duplicate flow name %q (from %s)", name, path)
		}
		runs[name] = run.Trace
	}
	return stream.WriteFrames(w, stream.Pack(runs))
}
