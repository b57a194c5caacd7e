package media

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func testEncode(t *testing.T, pasr float64, audio int) *Manifest {
	t.Helper()
	m, err := Encode(EncodeConfig{
		Name:        "test",
		Seed:        7,
		DurationSec: 600,
		ChunkDur:    5,
		TargetPASR:  pasr,
		AudioTracks: audio,
	})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return m
}

func TestEncodeBasics(t *testing.T) {
	m := testEncode(t, 1.5, 1)
	if got := m.NumVideoChunks(); got != 120 {
		t.Fatalf("NumVideoChunks = %d, want 120", got)
	}
	if len(m.VideoTracks()) != len(DefaultLadder) {
		t.Fatalf("video tracks = %d, want %d", len(m.VideoTracks()), len(DefaultLadder))
	}
	if len(m.AudioTracks()) != 1 {
		t.Fatalf("audio tracks = %d, want 1", len(m.AudioTracks()))
	}
	if !m.HasSeparateAudio() {
		t.Fatal("HasSeparateAudio = false")
	}
	if m.Duration() != 600 {
		t.Fatalf("Duration = %g, want 600", m.Duration())
	}
}

func TestEncodeHitsTargetPASR(t *testing.T) {
	for _, target := range []float64{1.1, 1.3, 1.5, 2.0, 2.6} {
		m := testEncode(t, target, 0)
		for _, ti := range m.VideoTracks() {
			got := m.Tracks[ti].PASR()
			// TrackJitter adds a little variance on top of the shared
			// signal, so allow a proportional tolerance.
			if math.Abs(got-target) > 0.1*target {
				t.Errorf("target PASR %.2f: track %d PASR = %.3f", target, ti, got)
			}
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := testEncode(t, 1.4, 1)
	b := testEncode(t, 1.4, 1)
	for ti := range a.Tracks {
		for ci := range a.Tracks[ti].Sizes {
			if a.Tracks[ti].Sizes[ci] != b.Tracks[ti].Sizes[ci] {
				t.Fatalf("encode not deterministic at track %d chunk %d", ti, ci)
			}
		}
	}
}

func TestEncodeTrackMeansMatchBitrates(t *testing.T) {
	m := testEncode(t, 1.5, 0)
	for i, ti := range m.VideoTracks() {
		tr := &m.Tracks[ti]
		wantMean := float64(DefaultLadder[i].Bitrate) / 8 * 5
		got := tr.MeanSize()
		if math.Abs(got-wantMean)/wantMean > 0.05 {
			t.Errorf("track %d mean size %.0f, want ~%.0f", ti, got, wantMean)
		}
	}
}

func TestAudioIsCBR(t *testing.T) {
	m := testEncode(t, 1.5, 2)
	for _, ai := range m.AudioTracks() {
		tr := &m.Tracks[ai]
		for _, s := range tr.Sizes {
			if s != tr.Sizes[0] {
				t.Fatalf("audio track %d not CBR: %d vs %d", ai, s, tr.Sizes[0])
			}
		}
		if got := tr.PASR(); math.Abs(got-1) > 1e-9 {
			t.Errorf("audio PASR = %g, want 1", got)
		}
	}
}

func TestValidateCatchesBadManifests(t *testing.T) {
	good := testEncode(t, 1.5, 1)
	cases := map[string]func(m *Manifest){
		"zero chunk dur":      func(m *Manifest) { m.ChunkDur = 0 },
		"no tracks":           func(m *Manifest) { m.Tracks = nil },
		"zero size chunk":     func(m *Manifest) { m.Tracks[0].Sizes[3] = 0 },
		"uneven video tracks": func(m *Manifest) { m.Tracks[1].Sizes = m.Tracks[1].Sizes[:5] },
		"audio only": func(m *Manifest) {
			m.Tracks = m.Tracks[len(m.Tracks)-1:]
		},
	}
	for name, corrupt := range cases {
		cp := Manifest{Name: good.Name, Host: good.Host, ChunkDur: good.ChunkDur}
		cp.Tracks = make([]Track, len(good.Tracks))
		copy(cp.Tracks, good.Tracks)
		for i := range cp.Tracks {
			cp.Tracks[i].Sizes = append([]int64(nil), good.Tracks[i].Sizes...)
		}
		corrupt(&cp)
		if err := cp.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", name)
		}
	}
}

func TestSizeIndexRange(t *testing.T) {
	m := testEncode(t, 1.5, 1)
	idx := NewSizeIndex(m, Video)
	if idx.Len() != 6*120 {
		t.Fatalf("index len = %d, want 720", idx.Len())
	}
	// Every chunk must be findable via its own size.
	for _, ti := range m.VideoTracks() {
		for ci, s := range m.Tracks[ti].Sizes {
			refs := idx.Range(s, s, nil)
			found := false
			for _, r := range refs {
				if r.Track == ti && r.Index == ci {
					found = true
				}
			}
			if !found {
				t.Fatalf("chunk (%d,%d) size %d not found by exact range", ti, ci, s)
			}
		}
	}
}

// VideoIndex is NewSizeIndex built once: equal to a fresh index on every
// test manifest, and one shared pointer across concurrent first callers.
func TestVideoIndexCached(t *testing.T) {
	for _, audio := range []int{0, 1} {
		m := testEncode(t, 1.5, audio)
		var wg sync.WaitGroup
		got := make([]*SizeIndex, 8)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = m.VideoIndex()
			}(i)
		}
		wg.Wait()
		for i := range got {
			if got[i] != got[0] {
				t.Fatalf("audio %d: caller %d got a different index", audio, i)
			}
		}
		if want := NewSizeIndex(m, Video); !reflect.DeepEqual(got[0], want) {
			t.Fatalf("audio %d: cached index differs from NewSizeIndex", audio)
		}
	}
}

// Property: Range(lo,hi) returns exactly the chunks whose size is in
// [lo,hi].
func TestSizeIndexRangeProperty(t *testing.T) {
	m := testEncode(t, 1.8, 0)
	idx := NewSizeIndex(m, Video)
	f := func(a, b uint32) bool {
		lo, hi := int64(a%3_000_000), int64(b%3_000_000)
		if lo > hi {
			lo, hi = hi, lo
		}
		got := idx.Range(lo, hi, nil)
		want := 0
		for _, ti := range m.VideoTracks() {
			for _, s := range m.Tracks[ti].Sizes {
				if s >= lo && s <= hi {
					want++
				}
			}
		}
		if len(got) != want {
			return false
		}
		for _, r := range got {
			s := m.Size(r)
			if s < lo || s > hi {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCandidateRange(t *testing.T) {
	lo, hi := CandidateRange(1000, 0.05)
	if hi != 1000 {
		t.Fatalf("hi = %d, want 1000", hi)
	}
	est := 1000.0
	wantLo := int64(math.Ceil(est / 1.05))
	if lo != wantLo {
		t.Fatalf("lo = %d, want %d", lo, wantLo)
	}
	// Property (1): any S in [lo,hi] satisfies S <= est <= (1+k)S.
	for s := lo; s <= hi; s += 7 {
		if !(s <= 1000 && float64(1000) <= 1.05*float64(s)+1e-6) {
			t.Fatalf("size %d violates Property 1 bounds", s)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := testEncode(t, 1.5, 1)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.ChunkDur != m.ChunkDur || len(got.Tracks) != len(m.Tracks) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for ti := range m.Tracks {
		for ci := range m.Tracks[ti].Sizes {
			if got.Tracks[ti].Sizes[ci] != m.Tracks[ti].Sizes[ci] {
				t.Fatalf("size mismatch after round trip at (%d,%d)", ti, ci)
			}
		}
	}
}

func TestServiceProfilesCalibration(t *testing.T) {
	for _, svc := range Services {
		vids, err := svc.SampleVideos(1, 40, 900)
		if err != nil {
			t.Fatalf("%s: %v", svc.Name, err)
		}
		var pasrs []float64
		for _, v := range vids {
			pasrs = append(pasrs, v.MedianPASR())
		}
		med := medianOf(pasrs)
		if math.Abs(med-svc.PASRMedian) > 0.35*svc.PASRMedian {
			t.Errorf("%s: sampled PASR median %.2f, want ~%.2f", svc.Name, med, svc.PASRMedian)
		}
		if svc.SeparateAudio && !vids[0].HasSeparateAudio() {
			t.Errorf("%s: expected separate audio", svc.Name)
		}
	}
}

func medianOf(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := range cp {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	return cp[len(cp)/2]
}

func TestServiceByName(t *testing.T) {
	if _, err := ServiceByName("Hulu"); err != nil {
		t.Fatal(err)
	}
	if _, err := ServiceByName("nope"); err == nil {
		t.Fatal("unknown service did not error")
	}
}

func TestEncodeRejectsBadConfig(t *testing.T) {
	if _, err := Encode(EncodeConfig{TargetPASR: 0.5}); err == nil {
		t.Fatal("TargetPASR < 1 accepted")
	}
	if _, err := Encode(EncodeConfig{DurationSec: 1, ChunkDur: 5, TargetPASR: 1.5}); err == nil {
		t.Fatal("too-short asset accepted")
	}
}
