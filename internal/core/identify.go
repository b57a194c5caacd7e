package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"csi/internal/capture"
	"csi/internal/guard"
	"csi/internal/media"
	"csi/internal/obs"
)

// Identify performs Step 2 on an estimation: it finds the chunk sequences
// consistent with Property 1 (sizes) and Property 2 (contiguous indexes).
func Identify(man *media.Manifest, est *Estimation, p Params) (*Inference, error) {
	p = p.withDefaults(est.Proto)
	if (est.Mux && len(est.Groups) == 0) || (!est.Mux && len(est.Requests) == 0) {
		// Nothing to identify — a degraded Estimate already said why.
		return zeroInference(est, Warning{Code: "no_match", Detail: "empty estimation: nothing to identify"}), nil
	}
	if est.Mux {
		return identifyMux(man, est, p)
	}
	return identifyNoMux(man, est, p)
}

// zeroInference is the last-resort degraded result: the Step-1 artifacts
// and warnings are preserved, no sequence matched, and every accuracy
// evaluation scores zero instead of erroring.
func zeroInference(est *Estimation, extra ...Warning) *Inference {
	return &Inference{
		Proto:    est.Proto,
		Mux:      est.Mux,
		Requests: est.Requests,
		Groups:   est.Groups,
		Warnings: append(append([]Warning{}, est.Warnings...), extra...),
		eval:     zeroEval{},
	}
}

// zeroEval scores the empty inference: zero accuracy, never an error.
type zeroEval struct{}

func (zeroEval) accuracyRange([]capture.TruthRecord) (float64, float64, error) {
	return 0, 0, nil
}

// displayConstraint returns the track displayed for each video index, if
// displayed-chunk side information is available.
func displayConstraint(display []capture.DisplayRecord) map[int]int {
	if len(display) == 0 {
		return nil
	}
	m := make(map[int]int, len(display))
	for _, d := range display {
		m[d.Index] = d.Track
	}
	return m
}

// layer holds the per-request candidates of the no-MUX graph.
type layer struct {
	video []media.ChunkRef
	audio []int // audio track ids matching the estimate
}

// noMuxGraph is the layered candidate graph of §5.3.1 plus the DP values
// needed to count sequences and bound accuracy without enumeration.
type noMuxGraph struct {
	man    *media.Manifest
	layers []layer
	reqs   []Request

	// guard bounds graph construction and the DP; a stopped guard leaves
	// trailing layers empty and aborts runDP, surfacing as no_match plus a
	// guard warning.
	guard *guard.Ctx

	// byIndex[i] maps a chunk index to the positions of layer i's video
	// candidates holding it (in layer order). Built once; shared by the DP
	// predecessor lookups, the graph-edge metrics and extractSequence.
	byIndex []map[int][]int

	// DP instrumentation handles (nil-safe).
	cExpand *obs.Counter
	cPrune  *obs.Counter
}

func buildNoMuxGraph(man *media.Manifest, reqs []Request, p Params) *noMuxGraph {
	vIdx := man.VideoIndex()
	disp := displayConstraint(p.Display)
	// Audio candidates are matched per track in manifest order so the
	// layer's candidate list (and everything enumerated from it) is
	// deterministic across runs.
	audioTracks := man.AudioTracks()
	g := &noMuxGraph{man: man, layers: make([]layer, len(reqs)), reqs: reqs, guard: p.Guard}
	for i, r := range reqs {
		if !p.Guard.OK() {
			// Leave the remaining layers empty; runDP aborts on the stopped
			// guard before an empty-layer path could count as a match.
			break
		}
		lo, hi := media.CandidateRange(r.Est, p.K)
		var vc []media.ChunkRef
		for _, ref := range vIdx.Range(lo, hi, nil) {
			if disp != nil {
				if tr, ok := disp[ref.Index]; ok && tr != ref.Track {
					continue // contradicted by the screen
				}
			}
			vc = append(vc, ref)
		}
		var ac []int
		for _, ai := range audioTracks {
			if sz := man.Tracks[ai].Sizes[0]; sz >= lo && sz <= hi {
				ac = append(ac, ai)
			}
		}
		g.layers[i] = layer{video: vc, audio: ac}
		// Guard checkpoint: one charge per layer, proportional to the
		// candidates materialized.
		p.Guard.Step(int64(len(vc)) + 1)
	}
	g.byIndex = make([]map[int][]int, len(g.layers))
	for i := range g.layers {
		m := make(map[int][]int)
		for ci, c := range g.layers[i].video {
			m[c.Index] = append(m[c.Index], ci)
		}
		g.byIndex[i] = m
	}
	g.cExpand = p.Obs.Metrics().Counter("core.dp_expansions")
	g.cPrune = p.Obs.Metrics().Counter("core.dp_prunes")
	if p.Obs.Enabled() {
		hist := p.Obs.Metrics().Histogram("core.candidates_per_request",
			[]float64{0, 1, 2, 4, 8, 16, 32, 64})
		nodes, edges := 0, 0
		for i := range g.layers {
			la := g.layers[i]
			hist.Observe(float64(len(la.video) + len(la.audio)))
			nodes += len(la.video) + len(la.audio)
			// Contiguity edges: a candidate links to prior-layer candidates
			// holding the preceding playback index.
			if i > 0 {
				for _, c := range la.video {
					edges += len(g.byIndex[i-1][c.Index-1])
				}
			}
		}
		p.Obs.Metrics().Counter("core.graph_nodes").Add(int64(nodes))
		p.Obs.Metrics().Counter("core.graph_edges").Add(int64(edges))
		p.Obs.Event("core", "graph_built",
			obs.Int("layers", int64(len(g.layers))),
			obs.Int("nodes", int64(nodes)),
			obs.Int("edges", int64(edges)))
	}
	return g
}

// satRatio divides two prefix products of audio option counts, saturating
// explicitly instead of producing NaN. On very long sessions the running
// product prefCnt can overflow float64 to +Inf (thousands of multi-option
// audio requests); the ratio of two saturated prefixes is then Inf/Inf =
// NaN, which would poison every downstream count. The denominator is always
// a factor of the numerator (both are prefix products of per-request option
// counts >= 1), so when the numerator saturates the true ratio is "too many
// to represent": report +Inf. Sequence counts therefore saturate to +Inf on
// overflow and never degrade to NaN.
func satRatio(num, den float64) float64 {
	if math.IsInf(num, 1) {
		return math.Inf(1)
	}
	return num / den
}

// dpVals carries the per-node DP state: number of distinct sequences ending
// here and the best/worst cumulative truth matches. Weights are only
// meaningful when truth weighting is installed; counting works always.
type dpVals struct {
	count float64
	best  float64
	worst float64
	ok    bool
}

// dpScratch pools the per-run prefix/suffix tables of the no-MUX DP. Every
// element is overwritten before it is read (the prefix and suffix loops fill
// index 0 / n explicitly and sweep the rest), so reuse needs no zeroing —
// only a capacity check. The tables never escape runDP; vals does (the
// caller walks it in extractSequence) and therefore stays per-call.
type dpScratch struct {
	audioOK                   []bool
	prefOK, sufOK             []bool
	prefMin, prefMax, prefCnt []float64
	sufMin, sufMax, sufCnt    []float64
}

var dpScratchPool = sync.Pool{New: func() any { return new(dpScratch) }}

// growBools / growFloats return a slice of length n reusing buf's backing
// array when it is large enough. Contents are unspecified: callers must
// write every element before reading it.
func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// runDP runs the forward DP. audioW[i] gives (min,max) per-request audio
// match weight and the option count; videoW(i, c) the video match weight.
// Returns per-layer per-candidate values plus the aggregated full-sequence
// results.
func (g *noMuxGraph) runDP(
	audioMinW, audioMaxW []float64,
	audioOpts []float64,
	videoW func(i int, c media.ChunkRef) float64,
) (total dpVals, vals [][]dpVals) {
	n := len(g.layers)
	// vals escapes (extractSequence walks it after runDP returns), so it is
	// allocated per call — but as one flat backing array plus headers, two
	// allocations instead of one per layer.
	nCands := 0
	for i := range g.layers {
		nCands += len(g.layers[i].video)
	}
	flat := make([]dpVals, nCands)
	vals = make([][]dpVals, n)
	for i, off := 0, 0; i < n; i++ {
		c := len(g.layers[i].video)
		vals[i] = flat[off : off+c : off+c]
		off += c
	}
	sc := dpScratchPool.Get().(*dpScratch)
	defer dpScratchPool.Put(sc)
	// audioOK[i]: request i can be skipped by a video-chunk path — either
	// it can be assigned as audio, or it matched nothing at all (noise:
	// e.g. a retransmitted request whose inflated estimate fits no chunk)
	// and is stepped over rather than failing the whole inference.
	sc.audioOK = growBools(sc.audioOK, n)
	audioOK := sc.audioOK
	for i := range audioOK {
		audioOK[i] = len(g.layers[i].audio) > 0 || len(g.layers[i].video) == 0
	}
	// Prefix aggregates over audio-assigned runs.
	// prefMin[i] = sum of audioMinW[0..i-1], valid only if all audioOK.
	sc.prefMin = growFloats(sc.prefMin, n+1)
	sc.prefMax = growFloats(sc.prefMax, n+1)
	sc.prefCnt = growFloats(sc.prefCnt, n+1)
	sc.prefOK = growBools(sc.prefOK, n+1)
	prefMin, prefMax, prefCnt, prefOK := sc.prefMin, sc.prefMax, sc.prefCnt, sc.prefOK
	prefMin[0], prefMax[0] = 0, 0
	prefOK[0] = true
	prefCnt[0] = 1
	for i := 0; i < n; i++ {
		prefOK[i+1] = prefOK[i] && audioOK[i]
		prefMin[i+1] = prefMin[i] + audioMinW[i]
		prefMax[i+1] = prefMax[i] + audioMaxW[i]
		prefCnt[i+1] = prefCnt[i] * audioOpts[i]
	}
	// Predecessor lookups by chunk index use the shared g.byIndex maps
	// built once in buildNoMuxGraph.

	merge := func(v *dpVals, cnt, best, worst float64) {
		if !v.ok {
			*v = dpVals{ok: true, count: cnt, best: best, worst: worst}
			return
		}
		v.count += cnt
		if best > v.best {
			v.best = best
		}
		if worst < v.worst {
			v.worst = worst
		}
	}

	for i := 0; i < n; i++ {
		// Guard checkpoint: one charge per DP layer, proportional to the
		// states expanded. Aborting returns the zero total (not ok), so a
		// bounded run degrades to no_match rather than reporting a count
		// from a half-explored graph.
		if !g.guard.Step(int64(len(g.layers[i].video)) + 1) {
			return dpVals{}, vals
		}
		for ci, c := range g.layers[i].video {
			w := videoW(i, c)
			v := dpVals{}
			// Start here: all previous requests assigned audio.
			if prefOK[i] {
				merge(&v, prefCnt[i], prefMax[i]+w, prefMin[i]+w)
			}
			// Or continue from a previous video candidate with index-1,
			// skipping audio-capable requests in between.
			for j := i - 1; j >= 0; j-- {
				// Requests j+1..i-1 must all be audio-capable.
				if j < i-1 && !audioOK[j+1] {
					g.cPrune.Inc()
					break
				}
				// Aggregate audio weights over the skipped run.
				skMin := prefMin[i] - prefMin[j+1]
				skMax := prefMax[i] - prefMax[j+1]
				skCnt := satRatio(prefCnt[i], prefCnt[j+1])
				for _, pj := range g.byIndex[j][c.Index-1] {
					pv := vals[j][pj]
					if !pv.ok {
						continue
					}
					g.cExpand.Inc()
					merge(&v, pv.count*skCnt, pv.best+skMax+w, pv.worst+skMin+w)
				}
			}
			vals[i][ci] = v
		}
	}

	// Aggregate full sequences: a path ends at (i, c) if all requests
	// after i are audio-capable.
	sc.sufOK = growBools(sc.sufOK, n+1)
	sc.sufMin = growFloats(sc.sufMin, n+1)
	sc.sufMax = growFloats(sc.sufMax, n+1)
	sc.sufCnt = growFloats(sc.sufCnt, n+1)
	sufOK, sufMin, sufMax, sufCnt := sc.sufOK, sc.sufMin, sc.sufMax, sc.sufCnt
	sufOK[n] = true
	sufMin[n], sufMax[n] = 0, 0
	sufCnt[n] = 1
	for i := n - 1; i >= 0; i-- {
		sufOK[i] = sufOK[i+1] && audioOK[i]
		sufMin[i] = sufMin[i+1] + audioMinW[i]
		sufMax[i] = sufMax[i+1] + audioMaxW[i]
		sufCnt[i] = sufCnt[i+1] * audioOpts[i]
	}
	for i := 0; i < n; i++ {
		if !sufOK[i+1] {
			continue
		}
		for ci := range g.layers[i].video {
			v := vals[i][ci]
			if !v.ok {
				continue
			}
			merge(&total, v.count*sufCnt[i+1], v.best+sufMax[i+1], v.worst+sufMin[i+1])
		}
	}
	// The all-audio sequence.
	if prefOK[n] {
		merge(&total, prefCnt[n], prefMax[n], prefMin[n])
	}
	return total, vals
}

func unitAudioWeights(g *noMuxGraph) (minW, maxW, opts []float64) {
	n := len(g.layers)
	backing := make([]float64, 3*n) // one allocation; zeroed weights
	minW = backing[0:n:n]
	maxW = backing[n : 2*n : 2*n]
	opts = backing[2*n : 3*n : 3*n]
	for i := range g.layers {
		opts[i] = float64(len(g.layers[i].audio))
		if len(g.layers[i].audio) == 0 {
			opts[i] = 1 // neutral for prefix products; gated by audioOK
		}
	}
	return minW, maxW, opts
}

// noMuxEval evaluates accuracy for the no-MUX graph.
type noMuxEval struct {
	g *noMuxGraph
}

func (e *noMuxEval) accuracyRange(truth []capture.TruthRecord) (float64, float64, error) {
	g := e.g
	n := len(g.layers)
	denom := float64(n)
	if len(truth) != n {
		// An impaired monitor can miss (or duplicate) requests, so the
		// detected count may disagree with ground truth. Align each
		// detected request to the nearest-in-time truth record and score
		// against the larger population: every miss and every spurious
		// detection counts against accuracy.
		if len(truth) == 0 {
			return 0, 0, fmt.Errorf("core: no ground-truth requests to evaluate against")
		}
		if nt := float64(len(truth)); nt > denom {
			denom = nt
		}
		truth = alignTruth(g.reqs, truth)
	}
	minW, maxW, opts := unitAudioWeights(g)
	for i := range g.layers {
		la := g.layers[i]
		anyMatch, anyMiss := false, false
		for _, at := range la.audio {
			if truth[i].Kind == media.Audio && truth[i].Ref.Track == at {
				anyMatch = true
			} else {
				anyMiss = true
			}
		}
		if anyMatch {
			maxW[i] = 1
		}
		if anyMatch && !anyMiss {
			minW[i] = 1
		}
	}
	videoW := func(i int, c media.ChunkRef) float64 {
		if truth[i].Kind == media.Video && truth[i].Ref == c {
			return 1
		}
		return 0
	}
	total, _ := g.runDP(minW, maxW, opts, videoW)
	if !total.ok {
		return 0, 0, fmt.Errorf("core: no consistent sequence found")
	}
	return total.best / denom, total.worst / denom, nil
}

// alignTruth maps each detected request to the ground-truth record nearest
// in request time, monotonically (used only when the counts disagree; under
// monitor loss a dropped request packet merges two chunks into one).
func alignTruth(reqs []Request, truth []capture.TruthRecord) []capture.TruthRecord {
	byTime := make([]capture.TruthRecord, len(truth))
	copy(byTime, truth)
	sort.SliceStable(byTime, func(a, b int) bool { return byTime[a].ReqTime < byTime[b].ReqTime })
	out := make([]capture.TruthRecord, len(reqs))
	j := 0
	for i, r := range reqs {
		for j+1 < len(byTime) && math.Abs(byTime[j+1].ReqTime-r.Time) <= math.Abs(byTime[j].ReqTime-r.Time) {
			j++
		}
		out[i] = byTime[j]
	}
	return out
}

func identifyNoMux(man *media.Manifest, est *Estimation, p Params) (*Inference, error) {
	span := p.Obs.Begin("core", "identify", obs.Int("requests", int64(len(est.Requests))))
	var (
		g     *noMuxGraph
		total dpVals
		vals  [][]dpVals
		warns []Warning
	)
	// Relaxed-K ladder: gap repair reconstructs bytes approximately, so a
	// repaired estimate can overshoot the protocol's measured error bound.
	// Under Degrade, widening k trades candidate precision for a result. A
	// stopped guard skips the wider rungs — each rebuilds the graph and
	// reruns the DP, exactly the work the budget forbids.
	for rung, mult := range []float64{1, 2, 4} {
		if rung > 0 && (!p.Degrade || p.Guard.Stopped()) {
			break
		}
		pr := p
		pr.K = p.K * mult
		stop := p.stageStart("candidates")
		g = buildNoMuxGraph(man, est.Requests, pr)
		stageStop(stop)
		minW, maxW, opts := unitAudioWeights(g)
		stop = p.stageStart("dp")
		total, vals = g.runDP(minW, maxW, opts, func(int, media.ChunkRef) float64 { return 0 })
		stageStop(stop)
		if total.ok {
			if rung > 0 {
				warns = append(warns, Warning{Code: "k_relaxed",
					Detail: fmt.Sprintf("no sequence at k=%.3f; matched at k=%.3f", p.K, pr.K)})
				p.Obs.Metrics().Counter("core.k_relaxed").Inc()
			}
			break
		}
	}
	if !total.ok {
		if p.Degrade || p.Guard.Stopped() {
			span.End(obs.Str("outcome", "degraded"))
			if p.Guard.Stopped() {
				warns = append(warns, guardWarning(p.Guard))
			}
			warns = append(warns, Warning{Code: "no_match",
				Detail: fmt.Sprintf("no chunk sequence matches the %d estimated sizes (k=%.3f, relaxation exhausted)", len(est.Requests), p.K)})
			inf := zeroInference(est, warns...)
			emitWarnings(p, warns)
			return inf, nil
		}
		span.End(obs.Str("outcome", "no_match"))
		return nil, fmt.Errorf("core: no chunk sequence matches the %d estimated sizes (k=%.3f)", len(est.Requests), p.K)
	}
	if p.Guard.Stopped() {
		// Defensive: a guard that stopped during the DP always yields
		// !total.ok today, but a complete-looking result computed under a
		// stopped guard must never pass silently.
		warns = append(warns, guardWarning(p.Guard))
	}
	inf := &Inference{
		Proto:         est.Proto,
		Requests:      est.Requests,
		SequenceCount: total.count,
		Warnings:      append(append([]Warning{}, est.Warnings...), warns...),
		eval:          &noMuxEval{g: g},
	}
	if len(inf.Warnings) == 0 {
		inf.Warnings = nil
	}
	inf.Best = g.extractSequence(vals)
	p.Obs.Metrics().Gauge("core.sequence_count").Set(total.count)
	emitWarnings(p, warns)
	span.End(obs.Float("sequences", total.count))
	return inf, nil
}

// extractSequence reconstructs one valid sequence (used when the caller
// wants a concrete answer, e.g. for QoE analysis). It walks backward from a
// valid terminal node choosing any reachable predecessor.
func (g *noMuxGraph) extractSequence(vals [][]dpVals) *Sequence {
	n := len(g.layers)
	audioOK := func(i int) bool { return len(g.layers[i].audio) > 0 }
	// Find a terminal node: a reachable candidate whose suffix is all
	// audio-capable.
	endLayer, endCand := -1, -1
	for i := n - 1; i >= 0 && endLayer < 0; i-- {
		for ci := range g.layers[i].video {
			if vals[i][ci].ok {
				endLayer, endCand = i, ci
				break
			}
		}
		if endLayer < 0 && !audioOK(i) {
			break // cannot extend the all-audio suffix past request i
		}
	}
	skipAssign := func(i int) Assignment {
		if len(g.layers[i].audio) > 0 {
			return Assignment{Audio: true, AudioTrack: g.layers[i].audio[0]}
		}
		return Assignment{Noise: true}
	}
	seq := &Sequence{Assignments: make([]Assignment, n)}
	if endLayer < 0 {
		// All-audio/noise sequence (or none; caller checked total.ok).
		for i := 0; i < n; i++ {
			seq.Assignments[i] = skipAssign(i)
		}
		return seq
	}
	for i := endLayer + 1; i < n; i++ {
		seq.Assignments[i] = skipAssign(i)
	}
	i, ci := endLayer, endCand
	for {
		c := g.layers[i].video[ci]
		seq.Assignments[i] = Assignment{Ref: c}
		// Find a predecessor via the shared byIndex maps: O(1) per layer
		// instead of rescanning every candidate. byIndex slices preserve
		// layer order, so the first reachable hit is the same candidate the
		// old linear scan picked.
		found := false
		for j := i - 1; j >= 0 && !found; j-- {
			if j < i-1 && !audioOK(j+1) {
				break
			}
			for _, pj := range g.byIndex[j][c.Index-1] {
				if vals[j][pj].ok {
					for k := j + 1; k < i; k++ {
						seq.Assignments[k] = skipAssign(k)
					}
					i, ci = j, pj
					found = true
					break
				}
			}
		}
		if !found {
			// Start of the path: everything before is audio or noise.
			for k := 0; k < i; k++ {
				seq.Assignments[k] = skipAssign(k)
			}
			return seq
		}
	}
}
