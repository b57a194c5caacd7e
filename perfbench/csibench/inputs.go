package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"csi/internal/capture"
	"csi/internal/media"
	"csi/internal/netem"
	"csi/internal/packet"
	"csi/internal/session"
	"csi/internal/stream"
)

// title encodes catalog entry i, with separate audio as the SH and SQ
// designs need. The catalog is fixed: the seed picks the network conditions
// and the users, never the videos, so every seed streams the same ladders.
func title(i int) (*media.Manifest, error) {
	return media.Encode(media.EncodeConfig{
		Name: fmt.Sprintf("title-%d", i), Seed: 900 + int64(i)*13,
		DurationSec: 780, ChunkDur: 5,
		TargetPASR: 1.3 + 0.2*float64(i%3), AudioTracks: 1,
	})
}

// simulate streams one session at mean bandwidth meanBps and returns its
// capture. Like the repository's Table 4 protocol, a session that streams
// fewer than 5 chunks (the cellular trace starved it) is not a viewing
// session: it is drawn again.
func simulate(tr *tracer, d session.Design, man *media.Manifest, r *rand.Rand, meanBps, durSec float64, id string, parent int) (*capture.Run, error) {
	for {
		bw := netem.GenerateCellular(netem.CellularConfig{Seed: r.Int63(), MeanBps: meanBps, Variability: 0.4})
		seed := r.Int63()
		sp := tr.begin("session.run", id, parent)
		res, err := session.Run(session.Config{Design: d, Manifest: man, Bandwidth: bw, Duration: durSec, Seed: seed})
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("simulating %s: %w", id, err)
		}
		if len(res.Run.Truth) >= 5 {
			return res.Run, nil
		}
	}
}

// strata draws n values stratified over [lo, hi): one uniform draw per
// equal-width stratum, in stratum order, so every seed covers the whole
// range evenly.
func strata(r *rand.Rand, n int, lo, hi float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)*(float64(i)+r.Float64())/float64(n)
	}
	return xs
}

// sqSession is one cold-inference input of infer-sq.
type sqSession struct {
	name  string
	man   *media.Manifest
	trace *capture.Trace
	truth []capture.TruthRecord
}

// sqInputs simulates n SQ sessions of durSec seconds, drawn round-robin
// from nTitles catalog titles.
func sqInputs(tr *tracer, seed int64, n, nTitles int, durSec float64) ([]sqSession, error) {
	root := tr.begin("setup", "infer-sq", -1)
	defer tr.end(root)
	r := rand.New(rand.NewSource(seed))
	mans := make([]*media.Manifest, nTitles)
	for i := range mans {
		man, err := title(i)
		if err != nil {
			return nil, err
		}
		mans[i] = man
	}
	bws := strata(r, n, 4e6, 8e6)
	r.Shuffle(n, func(i, j int) { bws[i], bws[j] = bws[j], bws[i] })
	pool := make([]sqSession, n)
	for i := range pool {
		name := fmt.Sprintf("session-%02d", i)
		run, err := simulate(tr, session.SQ, mans[i%nTitles], r, bws[i], durSec, name, root)
		if err != nil {
			return nil, err
		}
		pool[i] = sqSession{name: name, man: mans[i%nTitles], trace: run.Trace, truth: run.Truth}
	}
	return pool, nil
}

// sqDigest fingerprints the simulated packets of a pool.
func sqDigest(pool []sqSession) [32]byte {
	h := sha256.New()
	var b [40]byte
	for _, s := range pool {
		for _, v := range s.trace.Packets {
			binary.LittleEndian.PutUint64(b[0:], math.Float64bits(v.Time))
			binary.LittleEndian.PutUint64(b[8:], uint64(v.Size))
			binary.LittleEndian.PutUint64(b[16:], uint64(v.ConnID))
			binary.LittleEndian.PutUint64(b[24:], uint64(v.Dir))
			binary.LittleEndian.PutUint64(b[32:], uint64(v.Proto))
			h.Write(b[:])
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// freshTrace is a new Trace over the same packets with a cold per-trace
// memo: what a monitor holds when a session capture has just arrived.
func freshTrace(t *capture.Trace) *capture.Trace {
	return &capture.Trace{Packets: t.Packets, SNI: t.SNI, DNS: t.DNS, ServerIP: t.ServerIP}
}

// monitorStream is the input of a monitor workload: one JSONL frame stream
// and the truth log of each flow in it.
type monitorStream struct {
	man    *media.Manifest
	jsonl  []byte
	frames int
	truth  map[string][]capture.TruthRecord
}

// monitorInputs simulates nFlows SH users of one title. Flow lengths and
// mean bandwidths are stratified (see strata) and paired in a fixed way —
// the longest flow gets the lowest bandwidth — so the stream's size varies
// little from seed to seed; the pairs are then shuffled over the flows.
// Flow starts are independent uniform draws over startSpread seconds. The flows are packed into one
// interleaved stream and encoded to JSONL in memory.
func monitorInputs(tr *tracer, seed int64, nFlows int, minSec, maxSec, startSpread float64) (*monitorStream, error) {
	root := tr.begin("setup", "monitor", -1)
	defer tr.end(root)
	r := rand.New(rand.NewSource(seed))
	man, err := title(0)
	if err != nil {
		return nil, err
	}
	lengths := strata(r, nFlows, minSec, maxSec)
	bws := strata(r, nFlows, 4e6, 8e6)
	slices.Reverse(bws)
	r.Shuffle(nFlows, func(i, j int) {
		lengths[i], lengths[j] = lengths[j], lengths[i]
		bws[i], bws[j] = bws[j], bws[i]
	})
	ms := &monitorStream{man: man, truth: make(map[string][]capture.TruthRecord, nFlows)}
	traces := make(map[string]*capture.Trace, nFlows)
	for i := 0; i < nFlows; i++ {
		name := fmt.Sprintf("user-%02d", i)
		start := startSpread * r.Float64()
		run, err := simulate(tr, session.SH, man, r, bws[i], lengths[i], name, root)
		if err != nil {
			return nil, err
		}
		traces[name], ms.truth[name] = shift(run, start)
	}
	sp := tr.begin("stream.pack", "monitor", root)
	frames := stream.Pack(traces)
	tr.end(sp)
	sp = tr.begin("stream.encode", "monitor", root)
	var buf bytes.Buffer
	err = stream.WriteFrames(&buf, frames)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ms.jsonl = buf.Bytes()
	ms.frames = len(frames)
	return ms, nil
}

// shift moves a session's capture and truth log start seconds later, as if
// the user had started watching then.
func shift(run *capture.Run, start float64) (*capture.Trace, []capture.TruthRecord) {
	in := run.Trace
	t := &capture.Trace{Packets: make([]packet.View, len(in.Packets)), SNI: in.SNI, DNS: in.DNS, ServerIP: in.ServerIP}
	for i, v := range in.Packets {
		v.Time += start
		t.Packets[i] = v
	}
	truth := make([]capture.TruthRecord, len(run.Truth))
	for i, rec := range run.Truth {
		rec.ReqTime += start
		rec.DoneTime += start
		truth[i] = rec
	}
	return t, truth
}

// timedSetups builds a workload's inputs `reps` times, checks (untimed)
// that every build has the same digest — the simulator is deterministic —
// and returns the last build plus the median build time.
func timedSetups[T any](reps int, build func() (T, error), digestOf func(T) [32]byte) (T, float64, error) {
	var out T
	var first [32]byte
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		var zero T
		out = zero // drop the previous build before timing the next one
		freeSetupMemory()
		t0 := time.Now()
		v, err := build()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return out, 0, err
		}
		digest := digestOf(v)
		if i == 0 {
			first = digest
		} else if digest != first {
			return out, 0, fmt.Errorf("setup %d produced different inputs from setup 0 for the same seed", i)
		}
		out = v
	}
	return out, median(times), nil
}
