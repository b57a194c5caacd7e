// csi-analyze runs the CSI inference on a captured run: it detects chunk
// requests in the encrypted trace, estimates sizes, matches chunk
// sequences, and reports the inferred sequence with QoE metrics. When the
// run carries ground truth (csi-run always records it), it also reports the
// best/worst-candidate accuracy of Table 4.
//
// Usage:
//
//	csi-analyze -manifest bbb15.json -run run.json
//	csi-analyze -manifest bbb15.json -run run.json -mux        # SQ designs
//	csi-analyze -manifest bbb15.json -run run.json -display    # use screen info
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"csi/internal/core"
	"csi/internal/faults"
	"csi/internal/guard"
	"csi/internal/media"
	"csi/internal/obs"
	"csi/internal/obs/live"
	"csi/internal/pcap"
	"csi/internal/qoe"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "csi-analyze:", err)
		os.Exit(1)
	}
}

// run does the work of main and returns its first error, so the deferred
// flush of every observability output runs on every exit path.
func run() (err error) {
	var (
		manifest = flag.String("manifest", "", "manifest file (.json, .mpd or .m3u8)")
		runPath  = flag.String("run", "", "run file from csi-run (.json or .bin) or a .pcap capture")
		mux      = flag.Bool("mux", false, "transport multiplexing analysis (SQ designs)")
		display  = flag.Bool("display", false, "use displayed-chunk side information")
		host     = flag.String("host", "", "media SNI host (default: manifest host)")
		verbose  = flag.Bool("v", false, "print the full inferred sequence")
		faultStr = flag.String("faults", "", "impair the loaded capture before analysis (e.g. \"loss=0.01,cross=2\"); also enables graceful degradation")
		degrade  = flag.Bool("degrade", false, "tolerate impaired captures: degrade to a partial inference with warnings instead of failing")
		traceOut = flag.String("trace-out", "", "write an execution trace of the inference (.jsonl = JSONL events, else Chrome trace format)")
		metrics  = flag.String("metrics", "", "write a text metrics dump to this path (\"-\" = stdout)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the analysis to this path (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the analysis to this path (go tool pprof)")
		cacheMB  = flag.Int64("half-cache-mb", 0, "share MUX half enumerations across inferences through a process-wide cache of this many MiB (0 = disabled; never changes results)")
		budget   = flag.Int64("work-budget", 0, "deterministic inference step budget; exhausted runs yield a partial result with a deadline_exceeded warning (0 = unbounded)")
		deadline = flag.Float64("deadline", 0, "wall-clock inference deadline in seconds; a liveness backstop, not deterministic (0 = none)")
		serve    = flag.String("serve", "", "serve the live ops plane (/metrics, /statusz, /events, pprof) on this address; port 0 binds a free port")
	)
	flag.Parse()
	if *manifest == "" || *runPath == "" {
		return fmt.Errorf("-manifest and -run are required")
	}
	halfCache := core.NewHalfCache(*cacheMB << 20)
	ops, err := live.Setup(live.Config{
		Program: "csi-analyze", Serve: *serve, TraceOut: *traceOut, Metrics: *metrics,
		CPUProfile: *cpuProf, MemProfile: *memProf,
		Extra: []*obs.Registry{halfCache.Registry()},
	})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, ops.Close()) }()
	ops.Server.SetStatus("analysis", func() any {
		return map[string]any{"manifest": *manifest, "run": *runPath, "mux": *mux}
	})
	ops.Server.SetReady(true)

	man, err := media.LoadManifestFile(*manifest, *host)
	if err != nil {
		return err
	}
	run, err := pcap.LoadRun(*runPath)
	if err != nil {
		return err
	}
	fspec, err := faults.ParseSpec(*faultStr)
	if err != nil {
		return err
	}
	p := core.Params{
		MediaHost: *host, Mux: *mux, Degrade: *degrade || fspec.Enabled(),
		HalfCache: halfCache, Obs: ops.Tracer, Stages: ops.Server.StageTimer(),
	}
	if *budget > 0 || *deadline > 0 {
		p.Guard = guard.New(*budget).WithDeadline(guard.WallClock(), *deadline)
	}
	if p.MediaHost == "" {
		p.MediaHost = man.Host
	}
	if *display {
		p.Display = run.Display
	}
	if fspec.Enabled() {
		impaired, frep := faults.Apply(run, fspec, p.Obs)
		run = impaired
		fmt.Printf("faults [%s]: %d -> %d packets (%d window, %d loss, %d dup, %d clipped, %d cross)\n",
			fspec, frep.Input, frep.Output,
			frep.WindowDropped, frep.LossDropped, frep.Duplicated, frep.Clipped, frep.CrossPackets)
	}
	inf, err := core.Infer(man, run.Trace, p)
	if err != nil {
		return err
	}
	if err := ops.Flush(); err != nil {
		return err
	}

	if inf.Mux {
		fmt.Printf("QUIC transport-multiplexing analysis: %d traffic groups\n", len(inf.Groups))
	} else {
		fmt.Printf("detected %d chunk requests\n", len(inf.Requests))
	}
	fmt.Printf("matching chunk sequences: %g\n", inf.SequenceCount)
	if inf.Truncated {
		fmt.Println("note: group search hit its enumeration budget; the count is a lower bound")
	}
	for _, w := range inf.Warnings {
		fmt.Printf("warning [%s]: %s\n", w.Code, w.Detail)
	}
	if p.Degrade {
		confs := inf.Confidences()
		mean, min := 0.0, 1.0
		for _, c := range confs {
			mean += c
			if c < min {
				min = c
			}
		}
		if len(confs) > 0 {
			fmt.Printf("chunk confidence: mean %.2f, min %.2f over %d chunks\n",
				mean/float64(len(confs)), min, len(confs))
		}
	}

	if len(run.Truth) > 0 {
		best, worst, err := inf.AccuracyRange(run.Truth)
		if err != nil {
			fmt.Printf("accuracy evaluation: %v\n", err)
		} else {
			fmt.Printf("accuracy vs ground truth: best %.1f%%, worst %.1f%%\n", 100*best, 100*worst)
		}
	}

	if inf.Best != nil {
		chunks := inf.QoEChunks(man)
		if *verbose {
			for i, a := range inf.Best.Assignments {
				r := inf.Requests[i]
				switch {
				case a.Noise:
				case a.Audio:
					fmt.Printf("  req %3d t=%8.2f audio track %d\n", i, r.Time, a.AudioTrack)
				default:
					fmt.Printf("  req %3d t=%8.2f video track %d index %d (%d bytes)\n",
						i, r.Time, a.Ref.Track, a.Ref.Index, man.Size(a.Ref))
				}
			}
		}
		rep, err := qoe.Analyze(chunks, qoe.Config{ChunkDur: man.ChunkDur, TolerateGaps: p.Degrade})
		if err != nil {
			return err
		}
		fmt.Printf("QoE (from inferred sequence): startup %.1fs, %d stalls (%.1fs), %.1f MB data\n",
			rep.StartupDelay, len(rep.Stalls), rep.StallTime, float64(rep.DataBytes)/1e6)
		if rep.Partial {
			fmt.Printf("QoE is PARTIAL: %d chunks dropped across %d index gaps\n", rep.DroppedChunks, rep.IndexGaps)
		}
		fmt.Printf("track playback share:")
		for _, ti := range man.VideoTracks() {
			if s, ok := rep.TrackShare[ti]; ok && s > 0.001 {
				fmt.Printf(" T%d=%.1f%%", ti+1, 100*s)
			}
		}
		fmt.Println()
	}
	return nil
}
