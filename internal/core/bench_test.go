package core

import (
	"math/rand"
	"testing"

	"csi/internal/media"
	"csi/internal/packet"
)

// benchMuxFixture builds a fixed-seed mux candidate-search workload from a
// Table-3 service profile: a real sampled manifest plus synthetic traffic
// groups whose estimates come from a ground-truth walk through it. The
// fixture is deterministic, so each `go test -bench` pair below compares
// the parallel kernel against the serial reference on identical inputs.
// These are microbenchmarks; the end-to-end benchmark is perfbench/.
func benchMuxFixture(tb testing.TB) (*media.Manifest, *Estimation, Params) {
	tb.Helper()
	svc, err := media.ServiceByName("Facebook")
	if err != nil {
		tb.Fatal(err)
	}
	vids, err := svc.SampleVideos(7, 1, 300)
	if err != nil {
		tb.Fatal(err)
	}
	man := vids[0]

	rng := rand.New(rand.NewSource(1234))
	vTracks := man.VideoTracks()
	aTrack := man.AudioTracks()[0]
	nChunks := man.NumVideoChunks()
	k := 0.05

	var groups []Group
	idx := 0
	tstamp := 0.0
	for gi := 0; gi < 12 && idx < nChunks-10; gi++ {
		g := Group{Start: tstamp}
		// Mix of window lengths, including even vLen so adjacent windows
		// share half ranges through the cache.
		nReq := 4 + rng.Intn(7)
		var sum int64
		for r := 0; r < nReq; r++ {
			tstamp += 1
			g.ReqTimes = append(g.ReqTimes, tstamp)
			if rng.Intn(3) == 0 {
				sum += man.Tracks[aTrack].Sizes[0]
				continue
			}
			tr := vTracks[rng.Intn(len(vTracks))]
			sum += man.Tracks[tr].Sizes[idx]
			idx++
		}
		g.End = tstamp
		g.Est = sum + int64(rng.Intn(int(float64(sum)*k)+1))
		groups = append(groups, g)
		tstamp += 10
	}

	est := &Estimation{Proto: packet.UDP, Mux: true, Groups: groups}
	p := Params{K: k, MediaHost: man.Host, Mux: true}.withDefaults(packet.UDP)
	p.K = k
	return man, est, p
}

// BenchmarkMuxCandidateSearch measures the full per-session candidate
// search through the parallel kernel. Each iteration builds a fresh graph
// (fresh half cache), so the number is honest about cold-cache cost.
func BenchmarkMuxCandidateSearch(b *testing.B) {
	man, est, p := benchMuxFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildMuxGraph(man, est, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMuxCandidateSearchSerial is the pre-kernel serial baseline on
// the identical fixture.
func BenchmarkMuxCandidateSearchSerial(b *testing.B) {
	man, est, p := benchMuxFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serialBuildMuxGraph(man, est, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWindow picks one representative mid-manifest window for the
// single-window micro-benchmarks: 12 chunks, bounds from the true sum.
func benchWindow(man *media.Manifest, p Params) (s, vLen int, vLo, vHi int64) {
	s, vLen = 20, 12
	var sum int64
	t0 := man.VideoTracks()[0]
	for q := 0; q < vLen; q++ {
		sum += man.Tracks[t0].Sizes[s+q]
	}
	vLo, vHi = media.CandidateRange(sum, p.K)
	return s, vLen, vLo, vHi
}

// BenchmarkWindowStats measures one window evaluation through the kernel
// (fresh search context per iteration: enumeration is not amortized).
func BenchmarkWindowStats(b *testing.B) {
	man, _, p := benchMuxFixture(b)
	s, vLen, vLo, vHi := benchWindow(man, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := newMuxSearch(man, p, nil)
		budget := p.GroupSearchBudget
		ms.evalWindow(0, s, vLen, vLo, vHi, &budget)
	}
}

// BenchmarkWindowStatsSerial is the serial single-window baseline.
func BenchmarkWindowStatsSerial(b *testing.B) {
	man, _, p := benchMuxFixture(b)
	s, vLen, vLo, vHi := benchWindow(man, p)
	vTracks := man.VideoTracks()
	allowed := func(int) []int { return vTracks }
	wantTrack := func(int, int) int { return -1 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		budget := p.GroupSearchBudget
		serialWindowStats(man, allowed, wantTrack, s, vLen, vLo, vHi, &budget)
	}
}
