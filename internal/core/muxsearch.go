package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"csi/internal/guard"
	"csi/internal/media"
	"csi/internal/obs"
)

// This file implements the deterministic parallel kernel behind the MUX
// (QUIC) candidate search of §5.3.2 Step 2.2 — the dominant cost of every
// SQ experiment. Three mechanisms replace the serial scan that used to live
// in groupCandidates/windowStats:
//
//  1. Prefix-sum quick rejects: per-window min/max achievable size bounds
//     come from media.TrackPrefix envelope differences (O(1) per window,
//     plus one term per display-constrained position) instead of an
//     O(window·tracks) rescan per start.
//  2. A half-enumeration cache: meet-in-the-middle halves are keyed by
//     their absolute chunk-index range, the truth-weighting group (-1 when
//     ground truth cannot affect the half), and an allowed-set signature
//     derived from the display constraints in range. Overlapping windows,
//     phantom-request retries, sibling audio-track hypotheses and the
//     withTruthWeights eval pass all reuse the compressed halfCombo slices
//     instead of re-enumerating them; enumeration scratch is pooled.
//  3. A bounded worker pool (GOMAXPROCS semaphore, as in
//     internal/guard/runner) evaluates windows concurrently. Results are
//     committed strictly in submission order, and GroupSearchBudget is
//     charged at commit time — each half's enumeration cost is charged
//     exactly once, at its first committed use — so candidate lists,
//     truncation flags, counters and traces are byte-identical run to run
//     regardless of scheduling.
//
// Budget semantics (deterministic by construction): windows are scanned in
// the serial hypothesis order (balanced audio/video splits first). Each
// non-rejected window charges the enumeration cost of its halves — the
// total number of partial combinations materialized, exactly what the
// serial implementation charged — unless the half was already charged by an
// earlier committed window (a cache hit is free). When a charge drives the
// budget to zero or below, the charging window is discarded, the group's
// candidate set is marked truncated, and the scan stops. A half whose
// compressed level grows past halfComboCap is marked capped: its window is
// discarded (truncated), the work done so far is still charged, and a
// capped left half skips the right half entirely.

// halfComboCap bounds the number of partial combinations a single
// meet-in-the-middle half may materialize.
const halfComboCap = 2_000_000

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// halfKey identifies one cached half enumeration: the absolute chunk-index
// range [from, to), the truth-weighting group (-1 when no ground-truth
// video index falls in range, which lets the eval pass share build-pass
// entries), and a signature of the display-constrained allowed sets in
// range.
type halfKey struct {
	gi       int32
	from, to int32
	sig      uint64
}

// halfEntry is one cached compressed half enumeration. Fields other than
// done are written by the computing goroutine before done is closed and
// read only after it, so the channel close is the publication point.
type halfEntry struct {
	done chan struct{}
	// combos is the compressed half, sorted by (sum, matches).
	combos []halfCombo
	// cum[i] is the cumulative combo count over combos[0..i]; built only
	// when zeroMatches (the common build-pass case) for the count-only
	// meet fast path.
	cum []float64
	// cost is the number of partial combinations materialized while
	// enumerating this half — the budget charge of its first committed use.
	cost        int64
	maxMatch    int32
	zeroMatches bool
	capped      bool // enumeration exceeded halfComboCap; combos is nil
	failed      bool // computation was cancelled; a later caller recomputes
}

// halfCache is a concurrency-safe singleflight cache of half enumerations.
type halfCache struct {
	mu sync.Mutex
	m  map[halfKey]*halfEntry
}

// get returns the entry for key, computing it via fill if absent. Exactly
// one goroutine computes a given entry; others wait on its done channel.
// Entries whose computation was cancelled are marked failed and replaced by
// the next caller that is not itself cancelled.
func (hc *halfCache) get(key halfKey, cancel *atomic.Bool, fill func(e *halfEntry)) *halfEntry {
	for {
		hc.mu.Lock()
		e, ok := hc.m[key]
		if !ok {
			e = &halfEntry{done: make(chan struct{})}
			hc.m[key] = e
			hc.mu.Unlock()
			func() {
				// A panic inside fill must still close done, or every
				// waiter on this entry deadlocks while the panic is being
				// contained elsewhere.
				defer func() {
					if r := recover(); r != nil {
						e.failed = true
						close(e.done)
						panic(r) //csi-vet:ignore nakedpanic -- re-raise after publishing the failed entry
					}
				}()
				fill(e)
			}()
			close(e.done)
			return e
		}
		hc.mu.Unlock()
		<-e.done
		if !e.failed {
			return e
		}
		if cancel != nil && cancel.Load() {
			return e // caller is cancelled too; the failed entry is discarded
		}
		hc.mu.Lock()
		if hc.m[key] == e {
			delete(hc.m, key)
		}
		hc.mu.Unlock()
	}
}

// enumScratch is the pooled scratch of one half enumeration: the ping-pong
// buffer pair that kills the per-level slice churn of the old enum closure,
// plus the per-position merge cursors (sz/mi/pos), which used to be three
// fresh allocations per chunk index. All fields are resized, never
// reallocated, while capacity suffices; ownership is strictly Get→Put within
// fillHalf, so concurrent workers never alias a scratch.
type enumScratch struct {
	cur, next []halfCombo
	sz        []int64
	mi        []int32
	pos       []int
}

// runCursors returns the per-track merge cursor arrays sized for n tracks,
// reusing the scratch backing. mi and pos are zeroed (callers only set the
// match bump conditionally); sz is fully overwritten by the caller.
func (sc *enumScratch) runCursors(n int) (sz []int64, mi []int32, pos []int) {
	if cap(sc.sz) < n {
		sc.sz = make([]int64, n)
		sc.mi = make([]int32, n)
		sc.pos = make([]int, n)
	}
	sc.sz, sc.mi, sc.pos = sc.sz[:n], sc.mi[:n], sc.pos[:n]
	for i := 0; i < n; i++ {
		sc.mi[i], sc.pos[i] = 0, 0
	}
	return sc.sz, sc.mi, sc.pos
}

var enumScratchPool = sync.Pool{New: func() any { return new(enumScratch) }}

// meetScratch pools the per-match-count buckets of the weighted meetHalves
// path. Bucket sums/cum keep their capacity across uses; a Get→Put pair is
// scoped to one meetHalves call, so worker goroutines never share one.
type meetScratch struct {
	buckets []meetBkt
}

type meetBkt struct {
	sums     []int64
	cum      []float64
	iLo, iHi int
}

var meetScratchPool = sync.Pool{New: func() any { return new(meetScratch) }}

// grab returns n reset buckets, reusing backing storage.
func (sc *meetScratch) grab(n int) []meetBkt {
	if cap(sc.buckets) < n {
		old := sc.buckets
		sc.buckets = make([]meetBkt, n)
		copy(sc.buckets, old)
	}
	sc.buckets = sc.buckets[:n]
	for i := range sc.buckets {
		b := &sc.buckets[i]
		b.sums, b.cum = b.sums[:0], b.cum[:0]
		b.iLo, b.iHi = 0, 0
	}
	return sc.buckets
}

// muxSearch carries everything the candidate search kernel needs: the
// manifest with its prefix sums, the display constraints, the optional
// ground-truth context of the eval pass, the shared half cache, and the
// pre-resolved metric handles.
type muxSearch struct {
	man     *media.Manifest
	p       Params
	vTracks []int
	nChunks int
	pre     *media.TrackPrefix

	disp    map[int]int   // display constraint: chunk index -> track
	dispIdx []int         // sorted constrained indexes
	dispOne map[int][]int // constrained index -> one-element track slice

	tc       *truthCtx
	truthIdx [][]int // per group: sorted ground-truth video indexes

	// guard bounds the search. The serial commit loop charges it (via
	// chargeHalf, mirroring the GroupSearchBudget charges); workers only
	// poll OK() for an early abort, so the committed candidates under a
	// step budget never depend on scheduling.
	guard *guard.Ctx

	cache *halfCache
	// proc is the optional process-wide cache (Params.HalfCache); procSig
	// scopes its entries to this manifest's encoding profile. Only
	// truth-free halves (key.gi == -1) round-trip through it.
	proc    *HalfCache
	procSig uint64
	// seen tracks halves by first committed use across build and eval for
	// the deterministic hit/miss metrics; charged tracks budget charges and
	// is reset per pass so repeated eval passes behave identically.
	seen    map[halfKey]bool
	charged map[halfKey]bool

	workers int

	cWinCalls, cWinRejects, cWinTrunc *obs.Counter
	cHalfHits, cHalfMisses            *obs.Counter
}

func newMuxSearch(man *media.Manifest, p Params, tc *truthCtx) *muxSearch {
	ms := &muxSearch{
		man:     man,
		p:       p,
		vTracks: man.VideoTracks(),
		nChunks: man.NumVideoChunks(),
		disp:    displayConstraint(p.Display),
		cache:   &halfCache{m: map[halfKey]*halfEntry{}},
		seen:    map[halfKey]bool{},
		charged: map[halfKey]bool{},
		guard:   p.Guard,
		workers: runtime.GOMAXPROCS(0),
	}
	if ms.workers < 1 {
		ms.workers = 1
	}
	if p.HalfCache != nil {
		ms.proc = p.HalfCache
		ms.procSig = profileSig(man)
	}
	ms.pre = media.NewTrackPrefix(man, ms.vTracks)
	if len(ms.disp) > 0 {
		keys := make([]int, 0, len(ms.disp))
		for idx := range ms.disp {
			keys = append(keys, idx)
		}
		sort.Ints(keys)
		ms.dispIdx = keys
		ms.dispOne = make(map[int][]int, len(keys))
		for _, idx := range keys {
			ms.dispOne[idx] = []int{ms.disp[idx]}
		}
	}
	ms.setTruth(tc)
	reg := p.Obs.Metrics()
	ms.cWinCalls = reg.Counter("core.window_calls")
	ms.cWinRejects = reg.Counter("core.window_rejects")
	ms.cWinTrunc = reg.Counter("core.window_truncations")
	ms.cHalfHits = reg.Counter("core.half_cache_hits")
	ms.cHalfMisses = reg.Counter("core.half_cache_misses")
	return ms
}

// withTruth derives an eval-pass search sharing the cache and hit/miss
// bookkeeping but carrying the ground-truth context and a fresh budget
// charge set, so repeated eval passes are deterministic and identical.
func (ms *muxSearch) withTruth(tc *truthCtx) *muxSearch {
	es := *ms
	es.charged = map[halfKey]bool{}
	es.setTruth(tc)
	return &es
}

func (ms *muxSearch) setTruth(tc *truthCtx) {
	ms.tc = tc
	ms.truthIdx = nil
	if tc == nil {
		return
	}
	ms.truthIdx = make([][]int, len(tc.videoTrack))
	for gi := range tc.videoTrack {
		keys := make([]int, 0, len(tc.videoTrack[gi]))
		for idx := range tc.videoTrack[gi] {
			keys = append(keys, idx)
		}
		sort.Ints(keys)
		ms.truthIdx[gi] = keys
	}
}

// allowedAt returns the video tracks admissible at a chunk index under the
// display constraint. The returned slice is shared and must not be mutated.
func (ms *muxSearch) allowedAt(idx int) []int {
	if ms.dispOne != nil {
		if one, ok := ms.dispOne[idx]; ok {
			return one
		}
	}
	return ms.vTracks
}

// truthGi returns gi when some ground-truth video index of group gi falls
// in [from, to) — i.e. when truth weighting can alter the half — and -1
// otherwise, letting truth-free halves share one cache entry.
func (ms *muxSearch) truthGi(gi, from, to int) int {
	if ms.tc == nil || gi < 0 || gi >= len(ms.truthIdx) {
		return -1
	}
	idx := ms.truthIdx[gi]
	i := sort.SearchInts(idx, from)
	if i < len(idx) && idx[i] < to {
		return gi
	}
	return -1
}

// dispSig hashes the display-constrained (index, track) pairs inside
// [from, to) so the cache key captures the allowed-set shape of the range.
func (ms *muxSearch) dispSig(from, to int) uint64 {
	if len(ms.dispIdx) == 0 {
		return 0
	}
	i := sort.SearchInts(ms.dispIdx, from)
	if i >= len(ms.dispIdx) || ms.dispIdx[i] >= to {
		return 0
	}
	h := uint64(fnvOffset64)
	for ; i < len(ms.dispIdx) && ms.dispIdx[i] < to; i++ {
		p := ms.dispIdx[i]
		h = (h ^ uint64(p)) * fnvPrime64
		h = (h ^ uint64(ms.disp[p])) * fnvPrime64
	}
	return h
}

func (ms *muxSearch) keyFor(gi, from, to int) halfKey {
	if from >= to {
		return halfKey{gi: -1}
	}
	return halfKey{gi: int32(gi), from: int32(from), to: int32(to), sig: ms.dispSig(from, to)}
}

// windowJob is one window hypothesis: vLen video chunks starting at s whose
// sizes must sum into [vLo, vHi], plus the audio context it was derived
// under. prepare fills the serial pre-checks; a worker fills res.
type windowJob struct {
	gi      int
	s, vLen int
	vLo     int64
	vHi     int64
	aTrack  int
	aCount  int
	audioW  float64

	quickReject bool // envelope bounds exclude [vLo, vHi]

	done chan struct{}
	res  windowRes
}

type windowRes struct {
	// panicked carries a panic contained on the worker goroutine; the
	// commit loop re-raises it so it unwinds the committing (caller)
	// goroutine and reaches Infer's guard.Capture.
	panicked *guard.PanicError

	cancelled        bool
	lKey, rKey       halfKey
	lCost, rCost     int64
	lCapped, rCapped bool
	hasRight         bool
	count            float64
	maxW, minW       float64
}

// prepare runs the cheap serial pre-check: the prefix-sum quick reject.
func (ms *muxSearch) prepare(j *windowJob) {
	s, vLen := j.s, j.vLen
	minSum, maxSum := ms.pre.EnvelopeBounds(s, s+vLen)
	if len(ms.dispIdx) > 0 {
		// Constrained positions admit one track: replace their envelope
		// terms with that track's size.
		i := sort.SearchInts(ms.dispIdx, s)
		for ; i < len(ms.dispIdx) && ms.dispIdx[i] < s+vLen; i++ {
			p := ms.dispIdx[i]
			mn, mx := ms.pre.EnvelopeAt(p)
			sz := ms.man.Tracks[ms.disp[p]].Sizes[p]
			minSum += sz - mn
			maxSum += sz - mx
		}
	}
	if minSum > j.vHi || maxSum < j.vLo {
		j.quickReject = true
	}
}

// fillHalf enumerates the half [from, to) into e using pooled scratch. The
// level is kept COMPRESSED (sorted by (sum, matches), equal pairs merged
// with summed counts) as it grows: shifting a sorted level by one track's
// chunk size keeps it sorted, so the next level is a T-way merge of the
// per-track shifts — never a raw T^level product that needs sorting
// afterwards. Ordered tuples over the same track multiset collapse into one
// combo as soon as they appear, so level sizes grow like the number of
// distinct (sum, matches) pairs (combinatorial) instead of exponentially.
// gi >= 0 weights combos against the ground truth of that group. A set
// cancel flag aborts the enumeration between levels and marks the entry
// failed; a level growing past halfComboCap marks it capped.
func (ms *muxSearch) fillHalf(e *halfEntry, gi, from, to int, cancel *atomic.Bool) {
	if testHookFillHalf != nil {
		testHookFillHalf()
	}
	sc := enumScratchPool.Get().(*enumScratch)
	defer func() {
		sc.cur, sc.next = sc.cur[:0], sc.next[:0]
		enumScratchPool.Put(sc)
	}()
	cur := append(sc.cur[:0], halfCombo{count: 1})
	next := sc.next[:0]
	for idx := from; idx < to; idx++ {
		// A stopped guard aborts like a cancellation: the entry is marked
		// failed and recomputed only if a non-stopped caller ever wants it.
		if (cancel != nil && cancel.Load()) || !ms.guard.OK() {
			e.failed = true
			sc.cur, sc.next = cur, next
			return
		}
		want := -1
		if gi >= 0 {
			if tr, ok := ms.tc.videoTrack[gi][idx]; ok {
				want = tr
			}
		}
		// Run h walks cur shifted by track ts[h]'s size (and match bump);
		// pos[h] is its cursor. Each run is sorted, so a T-way merge yields
		// the next compressed level directly.
		ts := ms.allowedAt(idx)
		sz, mi, pos := sc.runCursors(len(ts))
		for h, t := range ts {
			sz[h] = ms.man.Tracks[t].Sizes[idx]
			if t == want {
				mi[h] = 1
			}
		}
		next = next[:0]
		capped := false
		for {
			// Pick the run head with the smallest (sum, matches).
			best := -1
			var bSum int64
			var bMatch int32
			for h := range pos {
				if pos[h] >= len(cur) {
					continue
				}
				s := cur[pos[h]].sum + sz[h]
				m := cur[pos[h]].matches + mi[h]
				if best < 0 || s < bSum || (s == bSum && m < bMatch) {
					best, bSum, bMatch = h, s, m
				}
			}
			if best < 0 {
				break
			}
			cnt := cur[pos[best]].count
			pos[best]++
			if n := len(next); n > 0 && next[n-1].sum == bSum && next[n-1].matches == bMatch {
				next[n-1].count += cnt
				continue
			}
			if len(next) >= halfComboCap {
				capped = true
				break
			}
			next = append(next, halfCombo{sum: bSum, matches: bMatch, count: cnt})
		}
		cur, next = next, cur
		e.cost += int64(len(cur))
		if capped {
			e.capped = true
			sc.cur, sc.next = cur, next
			return
		}
	}
	e.combos = make([]halfCombo, len(cur))
	copy(e.combos, cur)
	sc.cur, sc.next = cur, next
	for _, c := range e.combos {
		if c.matches > e.maxMatch {
			e.maxMatch = c.matches
		}
	}
	e.zeroMatches = e.maxMatch == 0
	if e.zeroMatches {
		e.cum = make([]float64, len(e.combos))
		run := 0.0
		for i, c := range e.combos {
			run += c.count
			e.cum[i] = run
		}
	}
}

// fillCached fills e for the half [from, to), consulting the process-wide
// cache first for truth-free halves. A loaded entry carries the original
// enumeration cost, so downstream budget charges are identical to a fresh
// fill; a freshly computed truth-free entry is published unless it failed
// (cancelled fills are nondeterministic — a later caller recomputes).
func (ms *muxSearch) fillCached(e *halfEntry, gi, from, to int, key halfKey, cancel *atomic.Bool) {
	cacheable := ms.proc != nil && key.gi < 0 && from < to
	if cacheable && ms.proc.load(ms.procSig, key, e) {
		return
	}
	ms.fillHalf(e, gi, from, to, cancel)
	if cacheable && !e.failed {
		ms.proc.store(ms.procSig, key, e)
	}
}

// meetHalves combines two compressed halves: the number of assignments
// whose sums land in [vLo, vHi] and the max/min ground-truth matches among
// them. Both halves are sorted by sum, so the range queries are merged in
// one monotone two-pointer sweep per match bucket — O(left + right) instead
// of a binary search per left combo.
func meetHalves(l, r *halfEntry, vLo, vHi int64) (count, maxW, minW float64) {
	if l.zeroMatches && r.zeroMatches {
		iLo, iHi := len(r.combos), len(r.combos)
		for _, lc := range l.combos {
			lo, hi := vLo-lc.sum, vHi-lc.sum
			for iLo > 0 && r.combos[iLo-1].sum >= lo {
				iLo--
			}
			for iHi > 0 && r.combos[iHi-1].sum > hi {
				iHi--
			}
			if iHi > iLo {
				n := r.cum[iHi-1]
				if iLo > 0 {
					n -= r.cum[iLo-1]
				}
				count += n * lc.count
			}
		}
		return count, 0, 0
	}
	// Bucket the right half by match count (tiny domain). combos is sorted
	// by (sum, matches), so each bucket's sums arrive ascending and each
	// bucket gets its own monotone pointer pair. Buckets come from the pool:
	// the weighted meet runs once per committed window of every eval pass,
	// and its bucket slices were the last per-window allocation left.
	sc := meetScratchPool.Get().(*meetScratch)
	defer meetScratchPool.Put(sc)
	buckets := sc.grab(int(r.maxMatch) + 1)
	for _, c := range r.combos {
		b := &buckets[c.matches]
		b.sums = append(b.sums, c.sum)
		run := c.count
		if len(b.cum) > 0 {
			run += b.cum[len(b.cum)-1]
		}
		b.cum = append(b.cum, run)
	}
	for m := range buckets {
		buckets[m].iLo = len(buckets[m].sums)
		buckets[m].iHi = len(buckets[m].sums)
	}
	first := true
	for _, lc := range l.combos {
		lo, hi := vLo-lc.sum, vHi-lc.sum
		for m := range buckets {
			b := &buckets[m]
			if len(b.sums) == 0 {
				continue
			}
			for b.iLo > 0 && b.sums[b.iLo-1] >= lo {
				b.iLo--
			}
			for b.iHi > 0 && b.sums[b.iHi-1] > hi {
				b.iHi--
			}
			if b.iHi <= b.iLo {
				continue
			}
			n := b.cum[b.iHi-1]
			if b.iLo > 0 {
				n -= b.cum[b.iLo-1]
			}
			// Counts are sums of positive combo counts, so "no combos in
			// range" is exactly n <= 0; no equality on floats needed.
			if n <= 0 {
				continue
			}
			count += n * lc.count
			w := float64(lc.matches + int32(m))
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
	return count, maxW, minW
}

// runJob evaluates one window: fetch (or enumerate) both halves through the
// cache and meet them. A capped left half short-circuits the right half.
func (ms *muxSearch) runJob(j *windowJob, cancel *atomic.Bool) {
	defer close(j.done)
	// Contain a worker panic into the job result. Registered after the
	// close defer so it runs first (LIFO): panicked is published before
	// done is closed and the commit loop re-raises it on its own stack.
	defer func() {
		if r := recover(); r != nil {
			j.res.panicked = guard.AsPanicError(r)
		}
	}()
	if cancel.Load() {
		j.res.cancelled = true
		return
	}
	mid := (j.vLen + 1) / 2
	lFrom, lTo := j.s, j.s+mid
	gl := ms.truthGi(j.gi, lFrom, lTo)
	j.res.lKey = ms.keyFor(gl, lFrom, lTo)
	le := ms.cache.get(j.res.lKey, cancel, func(e *halfEntry) { ms.fillCached(e, gl, lFrom, lTo, j.res.lKey, cancel) })
	if le.failed {
		j.res.cancelled = true
		return
	}
	j.res.lCost, j.res.lCapped = le.cost, le.capped
	if le.capped {
		return
	}
	rFrom, rTo := j.s+mid, j.s+j.vLen
	gr := ms.truthGi(j.gi, rFrom, rTo)
	j.res.rKey = ms.keyFor(gr, rFrom, rTo)
	re := ms.cache.get(j.res.rKey, cancel, func(e *halfEntry) { ms.fillCached(e, gr, rFrom, rTo, j.res.rKey, cancel) })
	if re.failed {
		j.res.cancelled = true
		return
	}
	j.res.hasRight = true
	j.res.rCost, j.res.rCapped = re.cost, re.capped
	if re.capped {
		return
	}
	j.res.count, j.res.maxW, j.res.minW = meetHalves(le, re, j.vLo, j.vHi)
}

// chargeHalf records a half's first committed use: the hit/miss metrics
// (shared across build and eval passes) and the budget charge (once per
// pass). Commit order is the serial hypothesis order, so charges — and
// therefore the truncation point — do not depend on worker scheduling.
func (ms *muxSearch) chargeHalf(key halfKey, cost int64, budget *int64) {
	if ms.seen[key] {
		ms.cHalfHits.Inc()
	} else {
		ms.seen[key] = true
		ms.cHalfMisses.Inc()
	}
	if !ms.charged[key] {
		ms.charged[key] = true
		*budget -= cost
		// The guard charge mirrors the GroupSearchBudget charge: serial,
		// at first committed use, so the guard's stopping point is as
		// deterministic as the group budget's truncation point.
		ms.guard.Step(cost)
	}
}

// groupAction is one step of a group's serial hypothesis order: either an
// immediate (windowless) candidate or a window job.
type groupAction struct {
	cand groupCand
	job  *windowJob
}

// groupCandidates enumerates collapsed hypotheses for one traffic group,
// fanning window evaluation out across the worker pool and committing
// results in submission order.
func (ms *muxSearch) groupCandidates(grp Group, nReq, gi int, wildcard bool, admissible map[int]bool) ([]groupCand, bool) {
	sumLo, sumHi := media.CandidateRange(grp.Est, ms.p.K)

	audioChoices := []struct {
		track int
		size  int64
	}{{track: -1}}
	for _, ai := range ms.man.AudioTracks() {
		audioChoices = append(audioChoices, struct {
			track int
			size  int64
		}{ai, ms.man.Tracks[ai].Sizes[0]})
	}

	// Audio/video request counts are typically balanced (both pipelines
	// advance one chunk per playback interval): explore aCount values near
	// nReq/2 first — ACROSS audio-track choices — so plausible hypotheses
	// are generated before the enumeration budget runs out on implausible
	// ones (the all-video aCount=0 case has the largest windows and must
	// come last, not first).
	aOrder := make([]int, 0, nReq+1)
	for d := 0; d <= nReq; d++ {
		if lo := nReq/2 - d; lo >= 0 {
			aOrder = append(aOrder, lo)
		}
		if hi := nReq/2 + d; d > 0 && hi <= nReq {
			aOrder = append(aOrder, hi)
		}
	}

	var actions []groupAction
	var jobs []*windowJob
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
			// Audio score is assignment-independent.
			audioW := 0.0
			if ms.tc != nil && aCount > 0 {
				if have := ms.tc.audioCount[gi][ac.track]; have > 0 {
					audioW = float64(min(aCount, have))
				}
			}
			if vLen == 0 {
				if vLo <= 0 && 0 <= vHi {
					actions = append(actions, groupAction{cand: groupCand{
						vStart: -1, aTrack: ac.track, aCount: aCount,
						Count: 1, MaxW: audioW, MinW: audioW,
					}})
				}
				continue
			}
			for s := 0; s+vLen <= ms.nChunks; s++ {
				if !wildcard && !admissible[s] {
					continue
				}
				j := &windowJob{
					gi: gi, s: s, vLen: vLen, vLo: vLo, vHi: vHi,
					aTrack: ac.track, aCount: aCount, audioW: audioW,
				}
				ms.prepare(j)
				actions = append(actions, groupAction{job: j})
				if !j.quickReject {
					jobs = append(jobs, j)
				}
			}
		}
	}

	// Lazily dispatch jobs a bounded lookahead ahead of the commit cursor:
	// if the budget truncates the scan early, work wasted on windows past
	// the truncation point is bounded by the lookahead instead of the whole
	// group (the serial code did no work past that point at all).
	var cancel atomic.Bool
	var wg sync.WaitGroup
	sem := make(chan struct{}, ms.workers)
	launched := 0
	launch := func(upTo int) {
		for ; launched < len(jobs) && launched < upTo; launched++ {
			j := jobs[launched]
			j.done = make(chan struct{})
			wg.Add(1)
			//csi-vet:ignore spawnbound -- semaphore-bounded pool (ms.workers slots); results commit in submission order at the cursor
			go func(j *windowJob) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				ms.runJob(j, &cancel)
			}(j)
		}
	}
	lookahead := ms.workers * 4
	// On early exit release any still-pending workers, then wait so no
	// enumeration outlives this search round.
	defer wg.Wait()
	defer cancel.Store(true)

	truncated := false
	budget := ms.p.GroupSearchBudget
	ji := 0 // commit cursor into jobs
	var out []groupCand
	for _, a := range actions {
		if a.job == nil {
			out = append(out, a.cand)
			continue
		}
		j := a.job
		if budget <= 0 || !ms.guard.OK() {
			truncated = true
			ms.cWinTrunc.Inc()
			return out, truncated
		}
		ms.cWinCalls.Inc()
		if j.quickReject {
			ms.cWinRejects.Inc()
			continue
		}
		launch(ji + 1 + lookahead)
		ji++
		<-j.done
		if j.res.panicked != nil {
			// Re-raise the contained worker panic on the committing
			// goroutine: the deferred cancel+wait above drain the pool, and
			// the panic unwinds to Infer's guard.Capture.
			panic(j.res.panicked) //csi-vet:ignore nakedpanic -- re-raises a contained worker panic toward guard.Capture
		}
		if j.res.cancelled {
			// Under a pure step budget this is unreachable: jobs are
			// committed in submission order before cancellation is ever
			// raised, and a guard stop is caught by the loop-head check.
			// A wall-clock deadline can expire between the head check and
			// the worker's own poll; fail safe as a truncation.
			truncated = true
			ms.cWinTrunc.Inc()
			return out, truncated
		}
		ms.chargeHalf(j.res.lKey, j.res.lCost, &budget)
		if j.res.hasRight {
			ms.chargeHalf(j.res.rKey, j.res.rCost, &budget)
		}
		if j.res.lCapped || j.res.rCapped {
			truncated = true
			ms.cWinTrunc.Inc()
			ms.cWinRejects.Inc()
			continue
		}
		if budget <= 0 {
			// This window's charge crossed the budget: discard it and stop.
			truncated = true
			ms.cWinTrunc.Inc()
			ms.cWinRejects.Inc()
			return out, truncated
		}
		if j.res.count <= 0 {
			ms.cWinRejects.Inc()
			continue
		}
		out = append(out, groupCand{
			vStart: j.s, vLen: j.vLen, aTrack: j.aTrack, aCount: j.aCount,
			Count: j.res.count, MaxW: j.res.maxW + j.audioW, MinW: j.res.minW + j.audioW,
		})
	}
	return out, truncated
}

// evalWindow recomputes the max/min ground-truth match weights of one
// already-matched window for the withTruthWeights eval pass, reusing cached
// halves. Budget semantics mirror the group search: uncharged halves charge
// their enumeration cost; exhaustion or a capped half yields zero weights.
func (ms *muxSearch) evalWindow(gi, s, vLen int, vLo, vHi int64, budget *int64) (maxW, minW float64) {
	j := windowJob{gi: gi, s: s, vLen: vLen, vLo: vLo, vHi: vHi}
	ms.prepare(&j)
	if j.quickReject {
		return 0, 0
	}
	mid := (vLen + 1) / 2
	gl := ms.truthGi(gi, s, s+mid)
	lKey := ms.keyFor(gl, s, s+mid)
	le := ms.cache.get(lKey, nil, func(e *halfEntry) { ms.fillCached(e, gl, s, s+mid, lKey, nil) })
	ms.chargeHalf(lKey, le.cost, budget)
	if le.capped || le.failed {
		return 0, 0
	}
	gr := ms.truthGi(gi, s+mid, s+vLen)
	rKey := ms.keyFor(gr, s+mid, s+vLen)
	re := ms.cache.get(rKey, nil, func(e *halfEntry) { ms.fillCached(e, gr, s+mid, s+vLen, rKey, nil) })
	ms.chargeHalf(rKey, re.cost, budget)
	if re.capped || re.failed || *budget <= 0 {
		return 0, 0
	}
	_, maxW, minW = meetHalves(le, re, vLo, vHi)
	return maxW, minW
}
