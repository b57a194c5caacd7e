package core

import (
	"fmt"
	"sort"

	"csi/internal/media"
)

// This file preserves the pre-parallel serial candidate search verbatim
// (modulo renames) as the reference implementation: the kernel in
// muxsearch.go is cross-checked against it for correctness, and the
// Benchmark*Serial microbenchmarks measure it as the "before" baseline of
// each bench_test.go pair.

// serialBuildMuxGraph is the old buildMuxGraph driving the serial search.
func serialBuildMuxGraph(man *media.Manifest, est *Estimation, p Params, tc *truthCtx) (*muxGraph, error) {
	g := &muxGraph{man: man, params: p, groups: est.Groups}
	disp := displayConstraint(p.Display)

	states := map[int]bool{lastVNone: true}
	for gi, grp := range est.Groups {
		admissible := map[int]bool{}
		wildcard := states[lastVNone]
		for lv := range states {
			if lv != lastVNone {
				admissible[lv+1] = true
			}
		}
		nReq := len(grp.ReqTimes)
		cands, truncated := serialGroupCandidates(man, grp, nReq, p, disp, tc, gi, wildcard, admissible)
		for drop := 1; len(cands) == 0 && nReq > drop && drop <= 2; drop++ {
			cands, truncated = serialGroupCandidates(man, grp, len(grp.ReqTimes)-drop, p, disp, tc, gi, wildcard, admissible)
			nReq = len(grp.ReqTimes) - drop
		}
		if truncated {
			g.truncated = true
		}
		if len(cands) == 0 {
			cands = []groupCand{{vStart: -1, aTrack: -1, Count: 1, Wild: true}}
		}
		g.cands = append(g.cands, cands)
		g.nReqUsed = append(g.nReqUsed, nReq)

		next := map[int]bool{}
		passthrough := false
		for _, c := range cands {
			switch {
			case c.Wild:
				next[lastVNone] = true
			case c.vLen > 0:
				next[c.vStart+c.vLen-1] = true
			default:
				passthrough = true
			}
		}
		if passthrough {
			for lv := range states {
				next[lv] = true
			}
		}
		states = next
		if len(states) == 0 {
			return nil, fmt.Errorf("core: chain broken at group %d (%.1fs..%.1fs)", gi, grp.Start, grp.End)
		}
	}
	return g, nil
}

// serialGroupCandidates is the old serial groupCandidates.
func serialGroupCandidates(man *media.Manifest, grp Group, nReq int, p Params, disp map[int]int, tc *truthCtx, gi int, wildcard bool, admissible map[int]bool) ([]groupCand, bool) {
	sumLo, sumHi := media.CandidateRange(grp.Est, p.K)
	vTracks := man.VideoTracks()
	nChunks := man.NumVideoChunks()
	truncated := false
	var out []groupCand

	allowed := func(idx int) []int {
		if disp != nil {
			if tr, ok := disp[idx]; ok {
				return []int{tr}
			}
		}
		return vTracks
	}
	wantTrack := func(s, pos int) int {
		if tc == nil {
			return -1
		}
		if tr, ok := tc.videoTrack[gi][s+pos]; ok {
			return tr
		}
		return -1
	}

	audioChoices := []struct {
		track int
		size  int64
	}{{track: -1}}
	for _, ai := range man.AudioTracks() {
		audioChoices = append(audioChoices, struct {
			track int
			size  int64
		}{ai, man.Tracks[ai].Sizes[0]})
	}

	aOrder := make([]int, 0, nReq+1)
	for d := 0; d <= nReq; d++ {
		if lo := nReq/2 - d; lo >= 0 {
			aOrder = append(aOrder, lo)
		}
		if hi := nReq/2 + d; d > 0 && hi <= nReq {
			aOrder = append(aOrder, hi)
		}
	}
	budget := p.GroupSearchBudget
	cWinCalls := p.Obs.Metrics().Counter("core.window_calls")
	cWinRejects := p.Obs.Metrics().Counter("core.window_rejects")
	cWinTrunc := p.Obs.Metrics().Counter("core.window_truncations")
	for _, aCount := range aOrder {
		for _, ac := range audioChoices {
			if (ac.track < 0) != (aCount == 0) {
				continue
			}
			vLen := nReq - aCount
			audioBytes := int64(aCount) * ac.size
			vLo, vHi := sumLo-audioBytes, sumHi-audioBytes
			if vHi < 0 {
				continue
			}
			audioW := 0.0
			if tc != nil && aCount > 0 {
				if have := tc.audioCount[gi][ac.track]; have > 0 {
					audioW = float64(min(aCount, have))
				}
			}
			if vLen == 0 {
				if vLo <= 0 && 0 <= vHi {
					out = append(out, groupCand{vStart: -1, aTrack: ac.track, aCount: aCount,
						Count: 1, MaxW: audioW, MinW: audioW})
				}
				continue
			}
			for s := 0; s+vLen <= nChunks; s++ {
				if !wildcard && !admissible[s] {
					continue
				}
				if budget <= 0 {
					truncated = true
					cWinTrunc.Inc()
					return out, truncated
				}
				cWinCalls.Inc()
				cnt, maxW, minW, tr := serialWindowStats(man, allowed, wantTrack, s, vLen, vLo, vHi, &budget)
				truncated = truncated || tr
				if tr {
					cWinTrunc.Inc()
				}
				if cnt <= 0 {
					cWinRejects.Inc()
					continue
				}
				out = append(out, groupCand{
					vStart: s, vLen: vLen, aTrack: ac.track, aCount: aCount,
					Count: cnt, MaxW: maxW + audioW, MinW: minW + audioW,
				})
			}
		}
	}
	return out, truncated
}

// serialWindowStats is the old serial windowStats.
func serialWindowStats(man *media.Manifest, allowed func(int) []int, wantTrack func(s, pos int) int,
	s, vLen int, vLo, vHi int64, budget *int64) (count, maxW, minW float64, truncated bool) {

	var minSum, maxSum int64
	for q := 0; q < vLen; q++ {
		ts := allowed(s + q)
		mn, mx := man.Tracks[ts[0]].Sizes[s+q], man.Tracks[ts[0]].Sizes[s+q]
		for _, t := range ts[1:] {
			sz := man.Tracks[t].Sizes[s+q]
			if sz < mn {
				mn = sz
			}
			if sz > mx {
				mx = sz
			}
		}
		minSum += mn
		maxSum += mx
	}
	if minSum > vHi || maxSum < vLo {
		return 0, 0, 0, false
	}
	halfCombosBound := 1.0
	for q := 0; q < (vLen+1)/2; q++ {
		halfCombosBound *= float64(len(allowed(s + q)))
		if halfCombosBound > 2_000_000 {
			return 0, 0, 0, true
		}
	}

	enum := func(from, to int) []halfCombo {
		res := []halfCombo{{count: 1}}
		for q := from; q < to; q++ {
			want := wantTrack(s, q)
			ts := allowed(s + q)
			next := make([]halfCombo, 0, len(res)*len(ts))
			for _, c := range res {
				for _, t := range ts {
					m := c.matches
					if t == want {
						m++
					}
					next = append(next, halfCombo{sum: c.sum + man.Tracks[t].Sizes[s+q], matches: m, count: c.count})
				}
			}
			res = next
			*budget -= int64(len(res))
			if len(res) > 2_000_000 || *budget <= 0 {
				return nil
			}
		}
		return res
	}
	mid := (vLen + 1) / 2
	left := enum(0, mid)
	right := enum(mid, vLen)
	if left == nil || right == nil {
		return 0, 0, 0, true
	}
	right = compressCombos(right)

	maxM := int32(vLen + 1)
	type bucket struct {
		sums []int64
		pref []float64
	}
	buckets := make([]bucket, maxM+1)
	anyMatches := false
	for _, r := range right {
		b := &buckets[r.matches]
		b.sums = append(b.sums, r.sum)
		total := r.count
		if len(b.pref) > 0 {
			total += b.pref[len(b.pref)-1]
		}
		b.pref = append(b.pref, total)
		if r.matches > 0 {
			anyMatches = true
		}
	}
	countIn := func(b *bucket, lo, hi int64) float64 {
		i := sort.Search(len(b.sums), func(i int) bool { return b.sums[i] >= lo })
		j := sort.Search(len(b.sums), func(i int) bool { return b.sums[i] > hi })
		if j <= i {
			return 0
		}
		c := b.pref[j-1]
		if i > 0 {
			c -= b.pref[i-1]
		}
		return c
	}

	first := true
	for _, l := range left {
		lo, hi := vLo-l.sum, vHi-l.sum
		if !anyMatches && l.matches == 0 {
			// NOTE: deviation from the historical code, which only set
			// first=false here and relied on the zero initialization of
			// maxW/minW — an order-dependent bug: a matching zero-weight
			// combo processed AFTER a full-path combo never lowered minW
			// back to 0. The reference merges w=0 properly so the
			// cross-check pins the correct semantics (which brute force
			// confirms, see TestMuxChainAgainstBruteForce).
			if n := countIn(&buckets[0], lo, hi); n > 0 {
				count += n * l.count
				if first {
					maxW, minW = 0, 0
					first = false
				} else if minW > 0 {
					minW = 0
				}
			}
			continue
		}
		for m := int32(0); m <= maxM; m++ {
			b := &buckets[m]
			if len(b.sums) == 0 {
				continue
			}
			n := countIn(b, lo, hi)
			if n <= 0 {
				continue
			}
			count += n * l.count
			w := float64(l.matches + m)
			if first {
				maxW, minW = w, w
				first = false
			} else {
				if w > maxW {
					maxW = w
				}
				if w < minW {
					minW = w
				}
			}
		}
	}
	return count, maxW, minW, false
}

// serialWithTruthWeights is the old eval pass driving serialWindowStats.
// The clone-and-reweight walk is the shared reweightTruth (mux.go); only
// the window-weight kernel is the serial reference implementation.
func serialWithTruthWeights(g *muxGraph, man *media.Manifest, p Params, tc *truthCtx) *muxGraph {
	disp := displayConstraint(p.Display)
	vTracks := man.VideoTracks()
	allowed := func(idx int) []int {
		if disp != nil {
			if tr, ok := disp[idx]; ok {
				return []int{tr}
			}
		}
		return vTracks
	}
	return reweightTruth(g, man, tc, func(gi int, c groupCand, vLo, vHi int64) (float64, float64) {
		wantTrack := func(s, pos int) int {
			if tr, ok := tc.videoTrack[gi][s+pos]; ok {
				return tr
			}
			return -1
		}
		evalBudget := g.params.GroupSearchBudget
		_, maxW, minW, _ := serialWindowStats(man, allowed, wantTrack, c.vStart, c.vLen, vLo, vHi, &evalBudget)
		return maxW, minW
	})
}
