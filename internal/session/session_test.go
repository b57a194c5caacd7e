package session

import (
	"testing"

	"csi/internal/abr"
	"csi/internal/media"
	"csi/internal/media/mediatest"
	"csi/internal/netem"
)

func combinedManifest(tb testing.TB) *media.Manifest {
	tb.Helper()
	return mediatest.Encode(tb, media.EncodeConfig{
		Name: "t", Seed: 11, DurationSec: 300, ChunkDur: 5, TargetPASR: 1.4,
	})
}

func separateManifest(tb testing.TB) *media.Manifest {
	tb.Helper()
	return mediatest.Encode(tb, media.EncodeConfig{
		Name: "t", Seed: 11, DurationSec: 300, ChunkDur: 5, TargetPASR: 1.4, AudioTracks: 1,
	})
}

func runDesign(t *testing.T, d Design, man *media.Manifest) *Result {
	t.Helper()
	res, err := Run(Config{
		Design:    d,
		Manifest:  man,
		Bandwidth: netem.Constant(4_000_000),
		Duration:  120,
		Seed:      1,
	})
	if err != nil {
		t.Fatalf("Run(%v): %v", d, err)
	}
	return res
}

func TestRunAllDesigns(t *testing.T) {
	cm, sm := combinedManifest(t), separateManifest(t)
	for _, tc := range []struct {
		d   Design
		man *media.Manifest
	}{{CH, cm}, {SH, sm}, {CQ, cm}, {SQ, sm}} {
		res := runDesign(t, tc.d, tc.man)
		if res.Stats.VideoChunks < 10 {
			t.Errorf("%v: only %d video chunks in 120 s", tc.d, res.Stats.VideoChunks)
		}
		if tc.d.Separate() && res.Stats.AudioChunks < 10 {
			t.Errorf("%v: only %d audio chunks", tc.d, res.Stats.AudioChunks)
		}
		if !tc.d.Separate() && res.Stats.AudioChunks != 0 {
			t.Errorf("%v: unexpected audio chunks %d", tc.d, res.Stats.AudioChunks)
		}
		if len(res.Run.Trace.Packets) == 0 {
			t.Errorf("%v: empty capture", tc.d)
		}
		if len(res.Run.Display) == 0 {
			t.Errorf("%v: empty display log", tc.d)
		}
		// All requests before the duration limit; downloads progress in
		// index order per media type.
		lastIdx := map[bool]int{true: -1, false: -1}
		for _, tr := range res.Run.Truth {
			if tr.ReqTime >= 120 {
				t.Errorf("%v: request at %g after duration limit", tc.d, tr.ReqTime)
			}
			isVideo := tr.Kind == media.Video
			if tr.Ref.Index != lastIdx[isVideo]+1 {
				t.Errorf("%v: %v indexes not contiguous: %d after %d", tc.d, tr.Kind, tr.Ref.Index, lastIdx[isVideo])
			}
			lastIdx[isVideo] = tr.Ref.Index
		}
	}
}

func TestSNIRecorded(t *testing.T) {
	res := runDesign(t, CH, combinedManifest(t))
	ids := res.Run.Trace.ConnIDs("media.example.com")
	if len(ids) != 1 {
		t.Fatalf("media connections = %v, want exactly 1", ids)
	}
	decoy := res.Run.Trace.ConnIDs(DecoyHost)
	if len(decoy) != 1 {
		t.Fatalf("decoy connections = %v, want exactly 1", decoy)
	}
}

func TestAdaptationReactsToBandwidth(t *testing.T) {
	man := combinedManifest(t)
	low := runDesign(t, CH, man)
	res, err := Run(Config{
		Design: CH, Manifest: man,
		Bandwidth: netem.Constant(1_000_000),
		Duration:  120, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	avgTrack := func(r *Result) float64 {
		s, n := 0, 0
		for _, tr := range r.Run.Truth {
			if tr.Kind == media.Video {
				s += tr.Ref.Track
				n++
			}
		}
		return float64(s) / float64(n)
	}
	if avgTrack(res) >= avgTrack(low) {
		t.Fatalf("1 Mbit/s run selected tracks (avg %.2f) >= 4 Mbit/s run (avg %.2f)",
			avgTrack(res), avgTrack(low))
	}
}

func TestLowBandwidthCausesLowTracksNotStallsForever(t *testing.T) {
	res, err := Run(Config{
		Design: CH, Manifest: combinedManifest(t),
		Bandwidth: netem.Constant(600_000),
		Duration:  120, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 600 kbit/s fits the lowest (200 kbit/s) track; the player should
	// make steady progress.
	if res.Stats.VideoChunks < 15 {
		t.Fatalf("only %d chunks at 600 kbit/s", res.Stats.VideoChunks)
	}
}

func TestShaperReducesDataUsage(t *testing.T) {
	man := separateManifest(t)
	unshaped := runDesign(t, SH, man)
	shaped, err := Run(Config{
		Design: SH, Manifest: man,
		Bandwidth: netem.Constant(4_000_000),
		Shaper:    &netem.TokenBucketConfig{RateBps: 1_000_000, BucketSize: 50_000},
		Duration:  120, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if shaped.Stats.DownlinkBytes >= unshaped.Stats.DownlinkBytes {
		t.Fatalf("shaped run used %d bytes >= unshaped %d", shaped.Stats.DownlinkBytes, unshaped.Stats.DownlinkBytes)
	}
}

func TestConfigValidation(t *testing.T) {
	cm, sm := combinedManifest(t), separateManifest(t)
	if _, err := Run(Config{Design: SH, Manifest: cm, Bandwidth: netem.Constant(1e6)}); err == nil {
		t.Error("SH with combined manifest accepted")
	}
	if _, err := Run(Config{Design: CH, Manifest: sm, Bandwidth: netem.Constant(1e6)}); err == nil {
		t.Error("CH with separate-audio manifest accepted")
	}
	if _, err := Run(Config{Design: CH, Manifest: cm}); err == nil {
		t.Error("missing bandwidth accepted")
	}
	if _, err := Run(Config{Design: CH, Bandwidth: netem.Constant(1e6)}); err == nil {
		t.Error("missing manifest accepted")
	}
}

func TestParseDesign(t *testing.T) {
	for _, s := range []string{"CH", "SH", "CQ", "SQ"} {
		d, err := ParseDesign(s)
		if err != nil || d.String() != s {
			t.Errorf("ParseDesign(%q) = %v, %v", s, d, err)
		}
	}
	if _, err := ParseDesign("XX"); err == nil {
		t.Error("ParseDesign(XX) accepted")
	}
}

func TestHuluLikeOnOffPattern(t *testing.T) {
	// Hulu-like config: resume == max buffer => chunk-at-a-time ON-OFF
	// after the ramp (§7 / Figure 11a).
	res, err := Run(Config{
		Design: CH, Manifest: combinedManifest(t),
		Algo:            abr.HuluHalf{},
		Bandwidth:       netem.Constant(2_000_000),
		MaxBufferSec:    145,
		ResumeBufferSec: 145,
		StartupChunks:   3,
		Duration:        280,
		Seed:            4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Buffer cap 145 s over a 280 s session on a 300 s asset: the player
	// must not have downloaded the whole video instantly; its last
	// request should come well after the ramp.
	last := 0.0
	for _, tr := range res.Run.Truth {
		if tr.ReqTime > last {
			last = tr.ReqTime
		}
	}
	if last < 100 {
		t.Fatalf("last request at %g; ON-OFF pacing missing", last)
	}
}

func TestDeterminism(t *testing.T) {
	man := separateManifest(t)
	a := runDesign(t, SQ, man)
	b := runDesign(t, SQ, man)
	if len(a.Run.Truth) != len(b.Run.Truth) || len(a.Run.Trace.Packets) != len(b.Run.Trace.Packets) {
		t.Fatalf("runs differ: %d/%d truth, %d/%d packets",
			len(a.Run.Truth), len(b.Run.Truth), len(a.Run.Trace.Packets), len(b.Run.Trace.Packets))
	}
	for i := range a.Run.Truth {
		if a.Run.Truth[i] != b.Run.Truth[i] {
			t.Fatalf("truth diverges at %d", i)
		}
	}
}

// Every adaptation algorithm must drive a full session without wedging the
// player or the transports.
func TestAllAlgorithmsEndToEnd(t *testing.T) {
	man := combinedManifest(t)
	for _, name := range []string{"rate", "bba", "bola", "exo", "hulu-half"} {
		a, err := abr.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Design: CH, Manifest: man,
			Algo:      a,
			Bandwidth: netem.Constant(4_000_000),
			Duration:  90, Seed: 6,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.VideoChunks < 10 {
			t.Errorf("%s: only %d chunks", name, res.Stats.VideoChunks)
		}
	}
}

// TestLostHandshakeRetransmits pins SYN retransmission: on these cellular
// traces a connection's first SYN or SYN-ACK is lost, and unless the SYN is
// re-sent the player waits for the handshake until the event queue drains,
// ending the session with no chunks and no error.
func TestLostHandshakeRetransmits(t *testing.T) {
	man := mediatest.Encode(t, media.EncodeConfig{
		Name: "streamtest", Seed: 23, DurationSec: 300, ChunkDur: 5,
		TargetPASR: 1.5, AudioTracks: 1,
	})
	for _, seed := range []int64{55, 61} {
		res, err := Run(Config{
			Design:    SH,
			Manifest:  man,
			Bandwidth: netem.GenerateCellular(netem.CellularConfig{Seed: seed, MeanBps: 5_000_000, Variability: 0.4}),
			Duration:  60,
			Seed:      seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Stats.VideoChunks == 0 {
			t.Errorf("seed %d: no video chunks; the session stalled in the TCP handshake", seed)
		}
		t.Logf("seed %d: %d video chunks", seed, res.Stats.VideoChunks)
	}
}
