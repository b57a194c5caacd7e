package ivl

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddBasic(t *testing.T) {
	var s Set
	if got := s.Add(0, 10); got != 10 {
		t.Fatalf("Add(0,10) = %d, want 10", got)
	}
	if got := s.Add(0, 10); got != 0 {
		t.Fatalf("duplicate Add = %d, want 0", got)
	}
	if got := s.Add(5, 15); got != 5 {
		t.Fatalf("overlapping Add = %d, want 5", got)
	}
	if s.Total() != 15 {
		t.Fatalf("Total = %d, want 15", s.Total())
	}
	if s.Spans() != 1 {
		t.Fatalf("Spans = %d, want 1", s.Spans())
	}
}

func TestAddMerging(t *testing.T) {
	var s Set
	s.Add(0, 5)
	s.Add(10, 15)
	s.Add(20, 25)
	if s.Spans() != 3 {
		t.Fatalf("Spans = %d, want 3", s.Spans())
	}
	// Bridge all three.
	if got := s.Add(5, 20); got != 10 {
		t.Fatalf("bridging Add = %d, want 10", got)
	}
	if s.Spans() != 1 || s.Total() != 25 {
		t.Fatalf("after bridge: spans=%d total=%d", s.Spans(), s.Total())
	}
}

func TestAddAdjacent(t *testing.T) {
	var s Set
	s.Add(0, 5)
	s.Add(5, 10) // adjacent, should merge
	if s.Spans() != 1 || s.Total() != 10 {
		t.Fatalf("adjacent merge: spans=%d total=%d", s.Spans(), s.Total())
	}
}

func TestEmptyAdd(t *testing.T) {
	var s Set
	if got := s.Add(5, 5); got != 0 {
		t.Fatalf("empty Add = %d", got)
	}
	if got := s.Add(10, 5); got != 0 {
		t.Fatalf("inverted Add = %d", got)
	}
}

func TestContiguousFrom(t *testing.T) {
	var s Set
	s.Add(0, 10)
	s.Add(15, 20)
	if got := s.ContiguousFrom(0); got != 10 {
		t.Fatalf("ContiguousFrom(0) = %d, want 10", got)
	}
	if got := s.ContiguousFrom(10); got != 10 {
		t.Fatalf("ContiguousFrom(10) = %d, want 10 (hole)", got)
	}
	s.Add(10, 15)
	if got := s.ContiguousFrom(0); got != 20 {
		t.Fatalf("after fill ContiguousFrom(0) = %d, want 20", got)
	}
}

func TestCovered(t *testing.T) {
	var s Set
	s.Add(10, 20)
	s.Add(30, 40)
	cases := []struct{ a, b, want int64 }{
		{0, 10, 0}, {10, 20, 10}, {15, 35, 10}, {0, 100, 20}, {25, 28, 0},
	}
	for _, c := range cases {
		if got := s.Covered(c.a, c.b); got != c.want {
			t.Errorf("Covered(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Set agrees with a naive boolean-array model.
func TestSetMatchesModel(t *testing.T) {
	f := func(ops [][2]uint8) bool {
		var s Set
		model := make([]bool, 300)
		for _, op := range ops {
			a, b := int64(op[0]), int64(op[0])+int64(op[1]%40)
			gotAdded := s.Add(a, b)
			var wantAdded int64
			for i := a; i < b; i++ {
				if !model[i] {
					model[i] = true
					wantAdded++
				}
			}
			if gotAdded != wantAdded {
				return false
			}
		}
		var wantTotal int64
		for _, v := range model {
			if v {
				wantTotal++
			}
		}
		if s.Total() != wantTotal {
			return false
		}
		// Spot-check Covered and ContiguousFrom against the model.
		for _, w := range [][2]int64{{0, 300}, {10, 50}, {100, 200}} {
			var want int64
			for i := w[0]; i < w[1]; i++ {
				if model[i] {
					want++
				}
			}
			if s.Covered(w[0], w[1]) != want {
				return false
			}
		}
		for _, start := range []int64{0, 17, 130} {
			want := start
			for want < 300 && model[want] {
				want++
			}
			if s.ContiguousFrom(start) != want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// GapBefore(off) is the Gaps(first, last) entry ending at off, for every
// off; 0 where no entry ends.
func TestGapBeforeMatchesGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		var s Set
		for k := rng.Intn(12); k >= 0; k-- {
			lo := rng.Int63n(200)
			s.Add(lo, lo+1+rng.Int63n(20))
		}
		first, last := s.Extent()
		var holes int64
		for _, g := range s.Gaps(first, last) {
			holes += g[1] - g[0]
		}
		if holes != last-first-s.Total() {
			t.Fatalf("round %d: Extent [%d,%d) minus Total %d != holes %d", round, first, last, s.Total(), holes)
		}
		want := map[int64]int64{}
		for _, g := range s.Gaps(first, last) {
			want[g[1]] = g[1] - g[0]
		}
		for off := int64(-5); off < 230; off++ {
			if got := s.GapBefore(off); got != want[off] {
				t.Fatalf("round %d: GapBefore(%d) = %d, want %d (spans %v)", round, off, got, want[off], s.iv)
			}
		}
	}
}

func TestExtentOfEmptySet(t *testing.T) {
	var s Set
	if lo, hi := s.Extent(); lo != 0 || hi != 0 {
		t.Fatalf("empty Extent = [%d,%d), want [0,0)", lo, hi)
	}
	s.Add(-4, 2)
	s.Add(10, 12)
	if lo, hi := s.Extent(); lo != -4 || hi != 12 {
		t.Fatalf("Extent = [%d,%d), want [-4,12)", lo, hi)
	}
}
