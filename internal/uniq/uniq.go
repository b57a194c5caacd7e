// Package uniq implements the fingerprintability analysis of §3.3 and §6.1:
// given a video's chunk-size ladder and a size-estimation error bound k, it
// measures what fraction of chunk sequences are *unique* — distinguishable
// from every other contiguous sequence by sizes alone.
//
// Two chunks are similar under k if their sizes could be confused given
// up-to-k relative over-estimation: S_j/(1+k) <= S_i <= (1+k)S_j. Two
// sequences are similar if all their aligned chunk pairs are; a sequence is
// unique if no other sequence is similar to it.
package uniq

import (
	"fmt"
	"math/rand"

	"csi/internal/media"
	"csi/internal/stats"
)

// Analysis precomputes the similarity structure of one video under a given
// error bound k.
type Analysis struct {
	man *media.Manifest
	k   float64
	n   int   // positions (chunks per track)
	trk []int // video track indexes
	// sim[p*T+t] is a bitset over positions q: does track t's chunk at p
	// have ANY similar chunk at position q (any track)?
	sim   []bitset
	multi []bool // multi[p*T+t]: >1 similar track at the same position p
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Similar reports whether two sizes are confusable under k (symmetric).
func Similar(a, b int64, k float64) bool {
	fa, fb := float64(a), float64(b)
	return fa <= (1+k)*fb && fb <= (1+k)*fa
}

// New builds the similarity analysis for the video tracks of man.
func New(man *media.Manifest, k float64) (*Analysis, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if k < 0 {
		return nil, fmt.Errorf("uniq: negative k")
	}
	a := &Analysis{man: man, k: k, trk: man.VideoTracks(), n: man.NumVideoChunks()}
	T := len(a.trk)
	a.sim = make([]bitset, a.n*T)
	a.multi = make([]bool, a.n*T)

	// Per position q, the sorted sizes across tracks.
	sizesAt := make([][]int64, a.n)
	for q := 0; q < a.n; q++ {
		ss := make([]int64, 0, T)
		for _, ti := range a.trk {
			ss = append(ss, man.Tracks[ti].Sizes[q])
		}
		for i := 1; i < len(ss); i++ {
			for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
				ss[j], ss[j-1] = ss[j-1], ss[j]
			}
		}
		sizesAt[q] = ss
	}
	anyIn := func(q int, lo, hi int64) bool {
		ss := sizesAt[q]
		// Binary search for the first >= lo.
		i, j := 0, len(ss)
		for i < j {
			m := (i + j) / 2
			if ss[m] < lo {
				i = m + 1
			} else {
				j = m
			}
		}
		return i < len(ss) && ss[i] <= hi
	}
	countIn := func(q int, lo, hi int64) int {
		c := 0
		for _, s := range sizesAt[q] {
			if s >= lo && s <= hi {
				c++
			}
		}
		return c
	}

	for p := 0; p < a.n; p++ {
		for t := 0; t < T; t++ {
			s := man.Tracks[a.trk[t]].Sizes[p]
			lo := int64(float64(s) / (1 + k))
			hi := int64(float64(s) * (1 + k))
			bs := newBitset(a.n)
			for q := 0; q < a.n; q++ {
				if anyIn(q, lo, hi) {
					bs.set(q)
				}
			}
			a.sim[p*T+t] = bs
			a.multi[p*T+t] = countIn(p, lo, hi) > 1
		}
	}
	return a, nil
}

// IsUnique reports whether the sequence starting at position start with the
// given per-position track choices (indexes into the video-track list) is
// unique among all contiguous sequences of the same length.
func (a *Analysis) IsUnique(start int, tracks []int) bool {
	L := len(tracks)
	T := len(a.trk)
	// Same-start partner differing in at least one track choice.
	for m := 0; m < L; m++ {
		if a.multi[(start+m)*T+tracks[m]] {
			return false
		}
	}
	// Partner at a different start j: similar at every aligned position.
	for j := 0; j+L <= a.n; j++ {
		if j == start {
			continue
		}
		ok := true
		for m := 0; m < L; m++ {
			if !a.sim[(start+m)*T+tracks[m]].get(j + m) {
				ok = false
				break
			}
		}
		if ok {
			return false
		}
	}
	return true
}

// UniqueFraction estimates the fraction of unique sequences of length L.
// For L == 1 (and whenever the total sequence count is small) it is exact;
// otherwise it samples uniformly at random using rng.
func (a *Analysis) UniqueFraction(L int, samples int, rng *rand.Rand) (float64, error) {
	if L < 1 || L > a.n {
		return 0, fmt.Errorf("uniq: sequence length %d out of range (1..%d)", L, a.n)
	}
	T := len(a.trk)
	starts := a.n - L + 1
	total := float64(starts)
	for i := 0; i < L; i++ {
		total *= float64(T)
		if total > 1e15 {
			break
		}
	}
	exactBudget := float64(samples)
	if total <= exactBudget || L == 1 {
		// Exact enumeration.
		unique, count := 0, 0
		tracks := make([]int, L)
		var walk func(pos, start int)
		walk = func(pos, start int) {
			if pos == L {
				count++
				if a.IsUnique(start, tracks) {
					unique++
				}
				return
			}
			for t := 0; t < T; t++ {
				tracks[pos] = t
				walk(pos+1, start)
			}
		}
		for s := 0; s < starts; s++ {
			walk(0, s)
		}
		if count == 0 {
			return 0, fmt.Errorf("uniq: no sequences")
		}
		return float64(unique) / float64(count), nil
	}
	if rng == nil {
		rng = stats.NewRand(1)
	}
	unique := 0
	tracks := make([]int, L)
	for i := 0; i < samples; i++ {
		s := rng.Intn(starts)
		for m := range tracks {
			tracks[m] = rng.Intn(T)
		}
		if a.IsUnique(s, tracks) {
			unique++
		}
	}
	return float64(unique) / float64(samples), nil
}

// VideoUniqueness bundles the per-video statistics Table 3 reports.
type VideoUniqueness struct {
	PASR   float64
	Unique map[int]float64 // sequence length -> unique fraction
}

// AnalyzeVideo computes PASR and unique fractions for the given sequence
// lengths under bound k.
func AnalyzeVideo(man *media.Manifest, k float64, lengths []int, samples int, seed int64) (*VideoUniqueness, error) {
	a, err := New(man, k)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRand(seed)
	out := &VideoUniqueness{PASR: man.MedianPASR(), Unique: map[int]float64{}}
	for _, L := range lengths {
		if L > a.n {
			continue
		}
		f, err := a.UniqueFraction(L, samples, rng)
		if err != nil {
			return nil, err
		}
		out.Unique[L] = f
	}
	return out, nil
}
