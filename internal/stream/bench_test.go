package stream

import (
	"bytes"
	"io"
	"testing"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/session"
)

// benchStream packs three SH sessions that start 0, 7.3 and 19.6 s apart,
// so most timestamps carry a long fraction, as in a recorded multi-flow
// stream, and returns the frames and their JSONL encoding.
func benchStream(b *testing.B) ([]Frame, []byte) {
	b.Helper()
	man := testManifest(b, session.SH)
	runs := map[string]*capture.Trace{}
	for i, start := range []float64{0, 7.3, 19.6} {
		tr := testSession(b, man, session.SH, int64(61+i), 60)
		for j := range tr.Packets {
			tr.Packets[j].Time += start
		}
		runs[[]string{"flow-a", "flow-b", "flow-c"}[i]] = tr
	}
	frames := Pack(runs)
	var buf bytes.Buffer
	if err := WriteFrames(&buf, frames); err != nil {
		b.Fatal(err)
	}
	return frames, buf.Bytes()
}

// BenchmarkFrameReader decodes the packed stream with a FrameReader: the
// reader goroutine's share of a replay.
func BenchmarkFrameReader(b *testing.B) {
	frames, jsonl := benchStream(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(jsonl)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := NewFrameReader(bytes.NewReader(jsonl))
		for {
			if _, err := fr.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frames)), "ns/frame")
}

// BenchmarkIngest feeds the decoded frames through a replay-mode monitor
// (ShedBlock) and drains it: the ring handoff and the control loop's
// frame handling. The media host matches no connection, so each flow's
// one solve, at its close frame, ends in Step 1 and the inference costs
// little.
func BenchmarkIngest(b *testing.B) {
	frames, _ := benchStream(b)
	opts := Options{
		Manifest:   testManifest(b, session.SH),
		Params:     core.Params{MediaHost: "bench.invalid"},
		ShedPolicy: ShedBlock,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon := New(opts)
		for _, f := range frames {
			mon.Ingest(f)
		}
		if res := mon.Drain(); len(res) != 3 {
			b.Fatalf("drained %d results, want 3", len(res))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frames)), "ns/frame")
}
