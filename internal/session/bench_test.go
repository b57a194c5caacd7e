package session

import (
	"testing"

	"csi/internal/media"
	"csi/internal/netem"
)

var benchSink *Result

// benchSessionRun times whole 300 s sessions at 4 Mbit/s. Almost all of
// the time goes to simulator event dispatch (sim, tcpsim/quicsim, netem,
// abr), which is the layer these benchmarks watch.
func benchSessionRun(b *testing.B, d Design, man *media.Manifest) {
	cfg := Config{Design: d, Manifest: man, Bandwidth: netem.Constant(4_000_000), Duration: 300, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res
	}
}

func BenchmarkSessionRunSH(b *testing.B) { benchSessionRun(b, SH, separateManifest(b)) }

func BenchmarkSessionRunCQ(b *testing.B) { benchSessionRun(b, CQ, combinedManifest(b)) }
