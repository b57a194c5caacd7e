// Benchmarks regenerating (at reduced scale) every table and figure of the
// paper's evaluation, plus the §6.2.3 analysis-time measurements. Run all:
//
//	go test -bench=. -benchmem
//
// The full-scale numbers in EXPERIMENTS.md come from `csi-paper -scale full`.
package csi_test

import (
	"sync"
	"testing"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/experiments"
	"csi/internal/media"
	"csi/internal/netem"
	"csi/internal/obs"
	"csi/internal/session"
)

// BenchmarkProp1SizeEstimation reproduces the §3.2 measurement: object
// downloads over HTTPS/QUIC and size estimation from encrypted captures.
func BenchmarkProp1SizeEstimation(b *testing.B) {
	sc := experiments.Quick
	sc.Reps = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Prop1(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Encode regenerates the Figure 4 per-track size ladder.
func BenchmarkFig4Encode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Uniqueness regenerates Figure 5 (unique-sequence fractions
// across PASR 1.1..2.0 and sequence lengths 1..8 at k=1%/5%).
func BenchmarkFig5Uniqueness(b *testing.B) {
	sc := experiments.Quick
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3ServiceUniqueness regenerates Table 3 (six service
// profiles, PASR and unique-sequence statistics).
func BenchmarkTable3ServiceUniqueness(b *testing.B) {
	sc := experiments.Quick
	sc.Videos = 3
	sc.Samples = 600
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTable4(b *testing.B, d session.Design) {
	b.Helper()
	sc := experiments.Quick
	sc.Traces = 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(sc, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Inference* regenerate the four rows of Table 4: streaming
// sessions + inference + accuracy scoring per ABR design type.
func BenchmarkTable4InferenceCH(b *testing.B) { benchTable4(b, session.CH) }
func BenchmarkTable4InferenceSH(b *testing.B) { benchTable4(b, session.SH) }
func BenchmarkTable4InferenceCQ(b *testing.B) { benchTable4(b, session.CQ) }
func BenchmarkTable4InferenceSQ(b *testing.B) { benchTable4(b, session.SQ) }

// BenchmarkGroupsSQ regenerates the §5.3.2 traffic-group statistics.
func BenchmarkGroupsSQ(b *testing.B) {
	sc := experiments.Quick
	sc.Traces = 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Groups(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Shaping regenerates the Figure 10 token-bucket sweeps.
func BenchmarkFig10Shaping(b *testing.B) {
	sc := experiments.Quick
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11TimeSeries regenerates the Figure 11 panels.
func BenchmarkFig11TimeSeries(b *testing.B) {
	sc := experiments.Quick
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHuluBasics regenerates the §7 characterization table.
func BenchmarkHuluBasics(b *testing.B) {
	sc := experiments.Quick
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HuluBasics(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations exercises the ablation variants (header discount,
// SP1-only splitting, display pruning).
func BenchmarkAblations(b *testing.B) {
	sc := experiments.Quick
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaseline compares the naive mean-size identifier against CSI.
func BenchmarkBaseline(b *testing.B) {
	sc := experiments.Quick
	sc.Traces = 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Baseline(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- §6.2.3: computation time of the CSI analysis itself ----
//
// The paper reports a few seconds for a 10-minute no-MUX trace and up to
// around a minute with transport multiplexing. These benchmarks time ONLY
// core.Infer on a pre-captured 10-minute session.

type inferFixture struct {
	man *media.Manifest
	run *capture.Run
	p   core.Params
}

var (
	noMuxOnce sync.Once
	noMuxFix  inferFixture
	muxOnce   sync.Once
	muxFix    inferFixture
)

func setupInferFixture(b *testing.B, d session.Design) inferFixture {
	b.Helper()
	audio := 0
	if d.Separate() {
		audio = 1
	}
	man, err := media.Encode(media.EncodeConfig{
		Name: "bench", Seed: 55, DurationSec: 900, ChunkDur: 5,
		TargetPASR: 1.5, AudioTracks: audio,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := session.Run(session.Config{
		Design:   d,
		Manifest: man,
		Bandwidth: netem.GenerateCellular(netem.CellularConfig{
			Seed: 3, MeanBps: 6_000_000, Variability: 0.4,
		}),
		Duration: 600, // the paper's 10-minute sessions
		Seed:     3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return inferFixture{
		man: man,
		run: res.Run,
		p:   core.Params{MediaHost: man.Host, Mux: d == session.SQ},
	}
}

// coldTrace returns a new Trace over t's packets, so each iteration infers
// over a trace no earlier iteration touched, as a freshly received session
// is. A Trace holds no derived state today; this keeps the benchmarks cold
// should one ever gain a cache.
func coldTrace(t *capture.Trace) *capture.Trace {
	return &capture.Trace{Packets: t.Packets, SNI: t.SNI, DNS: t.DNS, ServerIP: t.ServerIP}
}

// BenchmarkInferNoMux times CSI on a cold 10-minute HTTPS (SH) session.
func BenchmarkInferNoMux(b *testing.B) {
	noMuxOnce.Do(func() { noMuxFix = setupInferFixture(b, session.SH) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Infer(noMuxFix.man, coldTrace(noMuxFix.run.Trace), noMuxFix.p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferMux times CSI on a cold 10-minute QUIC-multiplexed (SQ)
// session.
func BenchmarkInferMux(b *testing.B) {
	muxOnce.Do(func() { muxFix = setupInferFixture(b, session.SQ) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Infer(muxFix.man, coldTrace(muxFix.run.Trace), muxFix.p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferObsOn runs BenchmarkInferNoMux's inference with a live
// collector sink. The obs layer promises that a nil tracer costs one
// pointer check on hot paths, so the delta over BenchmarkInferNoMux is the
// full cost of tracing the inference.
func BenchmarkInferObsOn(b *testing.B) {
	noMuxOnce.Do(func() { noMuxFix = setupInferFixture(b, session.SH) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := noMuxFix.p
		p.Obs = obs.New(nil, obs.NewCollector())
		if _, err := core.Infer(noMuxFix.man, coldTrace(noMuxFix.run.Trace), p); err != nil {
			b.Fatal(err)
		}
	}
}
