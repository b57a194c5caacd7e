// csi-run streams a video through the emulated network for one of the four
// ABR design types and writes the captured run (encrypted-traffic trace +
// instrumentation ground truth) to a JSON file for csi-analyze.
//
// Usage:
//
//	csi-run -manifest bbb15.json -design SH -bandwidth 4 -o run.json
//	csi-run -manifest bbb15.json -design SQ -cellular 7 -mean 5 -o run.json
//	csi-run -manifest bbb15.json -design CH -bandwidth 10 -shape-rate 1.5 -shape-bucket 50000 -o run.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"csi/internal/abr"
	"csi/internal/faults"
	"csi/internal/guard"
	"csi/internal/media"
	"csi/internal/netem"
	"csi/internal/obs/live"
	"csi/internal/pcap"
	"csi/internal/session"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "csi-run:", err)
		os.Exit(1)
	}
}

// run does the work of main and returns its first error, so the deferred
// flush of every observability output runs on every exit path.
func run() (err error) {
	var (
		manifest = flag.String("manifest", "", "manifest file (.json, .mpd or .m3u8)")
		host     = flag.String("host", "media.example.com", "media host for non-JSON manifests")
		design   = flag.String("design", "CH", "ABR design type: CH, SH, CQ or SQ")
		bw       = flag.Float64("bandwidth", 0, "stable bandwidth, Mbit/s")
		cellular = flag.Int64("cellular", 0, "generate a variable cellular trace with this seed")
		mean     = flag.Float64("mean", 5, "cellular mean bandwidth, Mbit/s")
		varia    = flag.Float64("variability", 0.4, "cellular log-variability")
		duration = flag.Float64("duration", 600, "session duration, seconds")
		algo     = flag.String("algo", "exo", "adaptation algorithm: exo, bba, bola, rate, hulu-half")
		shRate   = flag.Float64("shape-rate", 0, "token bucket rate, Mbit/s (0 = no shaping)")
		shBucket = flag.Int64("shape-bucket", 50_000, "token bucket size, bytes")
		loss     = flag.Float64("loss", 0.005, "downlink radio loss probability")
		seed     = flag.Int64("seed", 1, "run seed")
		faultStr = flag.String("faults", "", "monitor-side capture impairments, e.g. \"loss=0.01,start=5,cross=2\" (see internal/faults)")
		out      = flag.String("o", "run.json", "output run path (.bin selects the compact binary format)")
		traceOut = flag.String("trace-out", "", "write an execution trace of the session (.jsonl = JSONL events, else Chrome trace format)")
		metrics  = flag.String("metrics", "", "write a text metrics dump to this path (\"-\" = stdout)")
		serve    = flag.String("serve", "", "serve the live ops plane (/metrics, /statusz, /events, pprof) on this address; port 0 binds a free port")
	)
	flag.Parse()
	if *manifest == "" {
		return fmt.Errorf("-manifest is required")
	}
	man, err := media.LoadManifestFile(*manifest, *host)
	if err != nil {
		return err
	}
	d, err := session.ParseDesign(*design)
	if err != nil {
		return err
	}
	a, err := abr.ByName(*algo)
	if err != nil {
		return err
	}
	var trace *netem.BandwidthTrace
	switch {
	case *bw > 0:
		trace = netem.Constant(*bw * 1e6)
	case *cellular != 0:
		trace = netem.GenerateCellular(netem.CellularConfig{
			Seed: *cellular, MeanBps: *mean * 1e6, Variability: *varia,
		})
	default:
		return fmt.Errorf("one of -bandwidth or -cellular is required")
	}
	cfg := session.Config{
		Design:    d,
		Manifest:  man,
		Algo:      a,
		Bandwidth: trace,
		Duration:  *duration,
		LossProb:  *loss,
		Seed:      *seed,
	}
	if *shRate > 0 {
		cfg.Shaper = &netem.TokenBucketConfig{RateBps: *shRate * 1e6, BucketSize: *shBucket}
	}
	ops, err := live.Setup(live.Config{
		Program: "csi-run", Serve: *serve, TraceOut: *traceOut, Metrics: *metrics,
	})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, ops.Close()) }()
	cfg.Obs = ops.Tracer
	ops.Server.SetStatus("session", func() any {
		return map[string]any{
			"design": *design, "algo": *algo, "duration_sec": *duration, "seed": *seed,
		}
	})
	ops.Server.SetReady(true)
	fspec, err := faults.ParseSpec(*faultStr)
	if err != nil {
		return err
	}
	// Contain simulator panics as typed errors so a poisoned configuration
	// reports a stack through the normal error path instead of crashing.
	res, err := func() (res *session.Result, err error) {
		defer guard.Capture(&err)
		return session.Run(cfg)
	}()
	if err != nil {
		return err
	}
	if fspec.Enabled() {
		impaired, frep := faults.Apply(res.Run, fspec, cfg.Obs)
		res.Run = impaired
		fmt.Fprintf(os.Stderr, "faults [%s]: %d -> %d packets (%d window, %d loss, %d dup, %d clipped, %d cross)\n",
			fspec, frep.Input, frep.Output,
			frep.WindowDropped, frep.LossDropped, frep.Duplicated, frep.Clipped, frep.CrossPackets)
	}
	if err := ops.Flush(); err != nil {
		return err
	}
	save := res.Run.SaveJSON
	switch {
	case strings.HasSuffix(*out, ".bin"):
		save = res.Run.SaveBinary
	case strings.HasSuffix(*out, ".pcap"):
		save = func(path string) error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := pcap.Write(f, res.Run.Trace); err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, "note: pcap output keeps only the packet trace; ground truth and display logs are dropped")
			return f.Close()
		}
	}
	if err := save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d packets captured, %d video + %d audio chunks downloaded, %d stalls, %.1f MB downlink\n",
		*out, len(res.Run.Trace.Packets), res.Stats.VideoChunks, res.Stats.AudioChunks,
		res.Stats.Stalls, float64(res.Stats.DownlinkBytes)/1e6)
	return nil
}
