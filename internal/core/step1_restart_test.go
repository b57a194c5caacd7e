package core

import (
	"fmt"
	"reflect"
	"testing"

	"csi/internal/capture"
	"csi/internal/faults"
	"csi/internal/media"
	"csi/internal/media/mediatest"
	"csi/internal/netem"
	"csi/internal/session"
)

// TestStep1RestartsOnSimulatedCaptures replays simulated sessions of the
// no-MUX designs through a carried Step1 re-solved every 500 packets, clean
// and under the robustness study's capture faults plus timestamp jitter
// (which reorders packets at the monitor). Every solve must equal a fresh
// Estimate of its prefix. The log reports how often walks restarted and how
// many trace positions the restarts walked again, against the positions a
// carried walk passes over anyway; a clean capture must need no restart.
func TestStep1RestartsOnSimulatedCaptures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates sessions")
	}
	levels := []struct{ name, spec string }{
		{"clean", ""},
		{"loss-2%", "loss=0.02"},
		{"midstart-10s", "start=10"},
		{"dup-1%", "dup=0.01"},
		{"cross-2", "cross=2"},
		{"combined", "loss=0.01,start=5,dup=0.005,cross=1"},
		{"jitter-2ms", "jitter=0.002"},
	}
	for _, d := range []session.Design{session.CH, session.SH, session.CQ} {
		audio := 0
		if d.Separate() {
			audio = 1
		}
		man := mediatest.Encode(t, media.EncodeConfig{
			Name: "restarts", Seed: 23, DurationSec: 300, ChunkDur: 5,
			TargetPASR: 1.5, AudioTracks: audio,
		})
		res, err := session.Run(session.Config{
			Design:    d,
			Manifest:  man,
			Bandwidth: netem.GenerateCellular(netem.CellularConfig{Seed: 71, MeanBps: 5_000_000, Variability: 0.4}),
			Duration:  60,
			Seed:      71,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, lvl := range levels {
			spec, err := faults.ParseSpec(lvl.spec)
			if err != nil {
				t.Fatal(err)
			}
			run := res.Run
			if spec.Enabled() {
				spec.Seed = 71
				run, _ = faults.Apply(res.Run, spec, nil)
			}
			pkts := run.Trace.Packets
			p := Params{MediaHost: "media.example.com", Degrade: true, MinChunkBytes: 4000}
			tr := capture.NewTrace()
			tap := tr.Tap()
			st := NewStep1()
			solves := 0
			for n := 0; n < len(pkts); {
				next := min(n+500, len(pkts))
				for _, v := range pkts[n:next] {
					tap(v, v.Time)
				}
				n = next
				solves++
				got, gotErr := st.Estimate(tr, p)
				want, wantErr := Estimate(mkTrace(pkts[:n]), p)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%v %s: the solve at %d packets diverged from a fresh Estimate", d, lvl.name, n)
				}
			}
			if lvl.spec == "" && st.restarts != 0 {
				t.Errorf("%v clean: %d walk restarts on a capture without drops or reordering", d, st.restarts)
			}
			t.Logf("%v %-12s packets %6d solves %3d restarts %3d re-walked %7d (%.2f of the trace)",
				d, lvl.name, len(pkts), solves, st.restarts, st.rewalked, float64(st.rewalked)/float64(len(pkts)))
		}
	}
}
