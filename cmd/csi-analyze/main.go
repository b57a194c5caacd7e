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
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

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
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "csi-analyze:", err)
		os.Exit(1)
	}
	if *manifest == "" || *runPath == "" {
		die(fmt.Errorf("-manifest and -run are required"))
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "csi-analyze:", err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "csi-analyze:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "csi-analyze:", err)
			}
		}()
	}
	man, err := media.LoadManifestFile(*manifest, *host)
	if err != nil {
		die(err)
	}
	run, err := pcap.LoadRun(*runPath)
	if err != nil {
		die(err)
	}
	fspec, err := faults.ParseSpec(*faultStr)
	if err != nil {
		die(err)
	}
	p := core.Params{MediaHost: *host, Mux: *mux, Degrade: *degrade || fspec.Enabled()}
	halfCache := core.NewHalfCache(*cacheMB << 20)
	p.HalfCache = halfCache
	if *budget > 0 || *deadline > 0 {
		p.Guard = guard.New(*budget).WithDeadline(guard.WallClock(), *deadline)
	}
	if p.MediaHost == "" {
		p.MediaHost = man.Host
	}
	if *display {
		p.Display = run.Display
	}
	var sink *obs.Collector
	var sinks []obs.Sink
	if *traceOut != "" || *metrics != "" {
		sink = obs.NewCollector()
		sinks = append(sinks, sink)
	}
	var ring *live.Ring
	if *serve != "" {
		ring = live.NewRing(4096)
		sinks = append(sinks, ring)
	}
	if fan := obs.Fanout(sinks...); fan != nil {
		p.Obs = obs.New(nil, fan)
	}
	if *serve != "" {
		srv, err := live.Start(live.Options{
			Addr: *serve, Program: "csi-analyze",
			Registry: p.Obs.Metrics(), Ring: ring,
			Extra: []*obs.Registry{halfCache.Registry()},
		})
		if err != nil {
			die(err)
		}
		defer func() { _ = srv.Shutdown(2 * time.Second) }()
		srv.SetStatus("analysis", func() any {
			return map[string]any{"manifest": *manifest, "run": *runPath, "mux": *mux}
		})
		p.Stages = srv.StageTimer()
		fmt.Fprintln(os.Stderr, "csi-analyze: ops plane on http://"+srv.Addr())
		srv.SetReady(true)
	}
	if fspec.Enabled() {
		impaired, frep := faults.Apply(run, fspec, p.Obs)
		run = impaired
		fmt.Printf("faults [%s]: %d -> %d packets (%d window, %d loss, %d dup, %d clipped, %d cross)\n",
			fspec, frep.Input, frep.Output,
			frep.WindowDropped, frep.LossDropped, frep.Duplicated, frep.Clipped, frep.CrossPackets)
	}
	inf, err := core.Infer(man, run.Trace, p)
	if *traceOut != "" {
		if werr := obs.WriteTraceFile(*traceOut, sink.Records()); werr != nil {
			die(werr)
		}
	}
	if *metrics != "" {
		if werr := obs.WriteMetricsFile(*metrics, p.Obs.Metrics()); werr != nil {
			die(werr)
		}
	}
	if err != nil {
		die(err)
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
			die(err)
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
}
