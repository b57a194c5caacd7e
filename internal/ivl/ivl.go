// Package ivl implements a set of disjoint half-open int64 intervals.
//
// It backs TCP reassembly, QUIC stream reassembly, and the estimator's
// retransmission de-duplication (bytes already seen at a given stream offset
// are not counted twice).
package ivl

import "sort"

// Set is a set of disjoint, sorted, half-open intervals [start, end).
// The zero value is an empty set.
type Set struct {
	iv []span
}

type span struct{ start, end int64 }

// Add inserts [start, end) and returns the number of bytes that were not
// previously covered. Adding an empty or inverted interval is a no-op.
func (s *Set) Add(start, end int64) int64 {
	if end <= start {
		return 0
	}
	// Find first span with span.end >= start (possible merge target).
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].end >= start })
	added := end - start
	newStart, newEnd := start, end
	j := i
	for j < len(s.iv) && s.iv[j].start <= end {
		// Overlapping or adjacent: subtract the already-covered overlap.
		o := overlap(start, end, s.iv[j].start, s.iv[j].end)
		added -= o
		if s.iv[j].start < newStart {
			newStart = s.iv[j].start
		}
		if s.iv[j].end > newEnd {
			newEnd = s.iv[j].end
		}
		j++
	}
	if i == j {
		// No merge: insert.
		s.iv = append(s.iv, span{})
		copy(s.iv[i+1:], s.iv[i:])
		s.iv[i] = span{newStart, newEnd}
		return added
	}
	s.iv[i] = span{newStart, newEnd}
	s.iv = append(s.iv[:i+1], s.iv[j:]...)
	return added
}

func overlap(a1, a2, b1, b2 int64) int64 {
	lo, hi := max64(a1, b1), min64(a2, b2)
	if hi > lo {
		return hi - lo
	}
	return 0
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Covered returns the number of bytes of [start, end) already in the set.
func (s *Set) Covered(start, end int64) int64 {
	if end <= start {
		return 0
	}
	var total int64
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].end > start })
	for ; i < len(s.iv) && s.iv[i].start < end; i++ {
		total += overlap(start, end, s.iv[i].start, s.iv[i].end)
	}
	return total
}

// ContiguousFrom returns the end of the contiguous run starting at off, or
// off itself if off is not covered. For a TCP receiver tracking rcvNxt this
// yields the new rcvNxt after out-of-order segments fill a hole.
func (s *Set) ContiguousFrom(off int64) int64 {
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].end > off })
	if i < len(s.iv) && s.iv[i].start <= off {
		return s.iv[i].end
	}
	return off
}

// Total returns the total number of covered bytes.
func (s *Set) Total() int64 {
	var t int64
	for _, v := range s.iv {
		t += v.end - v.start
	}
	return t
}

// Extent returns the start of the first span and the end of the last, or
// 0, 0 for an empty set.
func (s *Set) Extent() (start, end int64) {
	if len(s.iv) == 0 {
		return 0, 0
	}
	return s.iv[0].start, s.iv[len(s.iv)-1].end
}

// Spans returns the number of disjoint spans (diagnostics).
func (s *Set) Spans() int { return len(s.iv) }

// SpansAbove returns up to max disjoint [start,end) spans that lie (at
// least partly) above off, clipped to start >= off. This backs the SACK
// blocks a TCP receiver advertises above its cumulative ACK point.
func (s *Set) SpansAbove(off int64, max int) [][2]int64 {
	var out [][2]int64
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].end > off })
	for ; i < len(s.iv) && len(out) < max; i++ {
		start := s.iv[i].start
		if start < off {
			start = off
		}
		if s.iv[i].end > start {
			out = append(out, [2]int64{start, s.iv[i].end})
		}
	}
	return out
}

// GapBefore returns the length of the uncovered range that ends exactly at
// off — that is, when off starts a span and another span lies below it —
// and 0 otherwise. It equals the length of the Gaps(first, last) entry
// ending at off, where first and last bound the whole set.
func (s *Set) GapBefore(off int64) int64 {
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].start >= off })
	if i == 0 || i == len(s.iv) || s.iv[i].start != off {
		return 0
	}
	return off - s.iv[i-1].end
}

// Gaps returns the uncovered ranges within [from, to).
func (s *Set) Gaps(from, to int64) [][2]int64 {
	var out [][2]int64
	cur := from
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].end > from })
	for ; i < len(s.iv) && s.iv[i].start < to; i++ {
		if s.iv[i].start > cur {
			out = append(out, [2]int64{cur, s.iv[i].start})
		}
		if s.iv[i].end > cur {
			cur = s.iv[i].end
		}
	}
	if cur < to {
		out = append(out, [2]int64{cur, to})
	}
	return out
}
