// Package media models ABR video assets: tracks, chunks and manifests.
//
// It also contains a synthetic VBR encoder (see encode.go) that substitutes
// for the paper's FFmpeg three-pass encodings, and per-service encoding
// profiles (profiles.go) that substitute for the six commercial services
// measured in Table 3 of the paper.
package media

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"csi/internal/stats"
)

// Type distinguishes audio from video tracks. Services that multiplex audio
// into the video chunks ("combined" designs) have no audio tracks at all.
type Type int

const (
	Video Type = iota
	Audio
)

func (t Type) String() string {
	switch t {
	case Video:
		return "video"
	case Audio:
		return "audio"
	default:
		return fmt.Sprintf("media.Type(%d)", int(t))
	}
}

// ChunkRef identifies a chunk within a manifest: the track it belongs to and
// its playback index (position in the video). This is exactly the identity
// CSI infers from encrypted traffic.
type ChunkRef struct {
	Track int // index into Manifest.Tracks
	Index int // playback index, 0-based
}

// Track is one encoding rung: a fixed-quality version of the asset split
// into chunks. Video tracks are VBR (per-chunk sizes vary); audio tracks are
// CBR (all chunks the same size), matching the common practice the paper
// observes in §5.2.
type Track struct {
	ID      int     `json:"id"`
	Kind    Type    `json:"kind"`
	Bitrate int64   `json:"bitrate"` // nominal encoding bitrate, bits/s
	Width   int     `json:"width,omitempty"`
	Height  int     `json:"height,omitempty"`
	Sizes   []int64 `json:"sizes"` // bytes per chunk, indexed by playback index
}

// NumChunks returns the number of chunks in the track.
func (t *Track) NumChunks() int { return len(t.Sizes) }

// TotalBytes returns the sum of all chunk sizes.
func (t *Track) TotalBytes() int64 {
	var s int64
	for _, v := range t.Sizes {
		s += v
	}
	return s
}

// MeanSize returns the average chunk size in bytes.
func (t *Track) MeanSize() float64 {
	if len(t.Sizes) == 0 {
		return 0
	}
	return float64(t.TotalBytes()) / float64(len(t.Sizes))
}

// PASR returns the peak-to-average size ratio of the track: the ratio
// between the 95th-percentile chunk size and the mean chunk size (§3.3).
// CBR tracks have PASR ~1.
func (t *Track) PASR() float64 {
	if len(t.Sizes) == 0 {
		return 0
	}
	xs := make([]float64, len(t.Sizes))
	for i, v := range t.Sizes {
		xs[i] = float64(v)
	}
	m := stats.Mean(xs)
	if m == 0 {
		return 0
	}
	return stats.Percentile(xs, 95) / m
}

// Manifest describes one ABR asset: the full ladder of tracks and the
// per-chunk sizes CSI collects in advance of a test (§4.1).
type Manifest struct {
	Name     string  `json:"name"`
	Host     string  `json:"host"`      // media server hostname (SNI)
	ChunkDur float64 `json:"chunk_dur"` // seconds of content per chunk
	Tracks   []Track `json:"tracks"`

	// videoIdx memoizes VideoIndex. A manifest is mutated only while it is
	// built (encoded, parsed or decoded), so the index is built once, on
	// first use, and shared read-only by every later inference.
	videoIdx struct {
		once sync.Once
		idx  *SizeIndex
	}
}

// Validate checks structural invariants: at least one video track, equal
// chunk counts within each media type, positive sizes.
func (m *Manifest) Validate() error {
	if m.ChunkDur <= 0 {
		return fmt.Errorf("media: manifest %q: chunk duration must be positive", m.Name)
	}
	nv, na := -1, -1
	sawVideo := false
	for i := range m.Tracks {
		t := &m.Tracks[i]
		if t.NumChunks() == 0 {
			return fmt.Errorf("media: manifest %q: track %d has no chunks", m.Name, i)
		}
		for j, s := range t.Sizes {
			if s <= 0 {
				return fmt.Errorf("media: manifest %q: track %d chunk %d has size %d", m.Name, i, j, s)
			}
		}
		switch t.Kind {
		case Video:
			sawVideo = true
			if nv == -1 {
				nv = t.NumChunks()
			} else if t.NumChunks() != nv {
				return fmt.Errorf("media: manifest %q: video tracks have differing chunk counts", m.Name)
			}
		case Audio:
			if na == -1 {
				na = t.NumChunks()
			} else if t.NumChunks() != na {
				return fmt.Errorf("media: manifest %q: audio tracks have differing chunk counts", m.Name)
			}
		default:
			return fmt.Errorf("media: manifest %q: track %d has invalid kind", m.Name, i)
		}
	}
	if !sawVideo {
		return fmt.Errorf("media: manifest %q: no video tracks", m.Name)
	}
	return nil
}

// VideoTracks returns the indexes of video tracks, in ladder order
// (ascending bitrate as produced by the encoder).
func (m *Manifest) VideoTracks() []int {
	var out []int
	for i := range m.Tracks {
		if m.Tracks[i].Kind == Video {
			out = append(out, i)
		}
	}
	return out
}

// AudioTracks returns the indexes of audio tracks.
func (m *Manifest) AudioTracks() []int {
	var out []int
	for i := range m.Tracks {
		if m.Tracks[i].Kind == Audio {
			out = append(out, i)
		}
	}
	return out
}

// HasSeparateAudio reports whether the asset uses separate audio tracks
// (the "S" designs of Table 2).
func (m *Manifest) HasSeparateAudio() bool { return len(m.AudioTracks()) > 0 }

// NumVideoChunks returns the chunk count of the video tracks.
func (m *Manifest) NumVideoChunks() int {
	for i := range m.Tracks {
		if m.Tracks[i].Kind == Video {
			return m.Tracks[i].NumChunks()
		}
	}
	return 0
}

// NumAudioChunks returns the chunk count of the audio tracks (0 if none).
func (m *Manifest) NumAudioChunks() int {
	for i := range m.Tracks {
		if m.Tracks[i].Kind == Audio {
			return m.Tracks[i].NumChunks()
		}
	}
	return 0
}

// Duration returns the asset duration in seconds (from the video tracks).
func (m *Manifest) Duration() float64 {
	return float64(m.NumVideoChunks()) * m.ChunkDur
}

// Size returns the size in bytes of the given chunk.
func (m *Manifest) Size(ref ChunkRef) int64 {
	return m.Tracks[ref.Track].Sizes[ref.Index]
}

// MedianPASR returns the median PASR across video tracks; this is the
// per-video PASR statistic used in Table 3 and Figure 5.
func (m *Manifest) MedianPASR() float64 {
	var xs []float64
	for _, ti := range m.VideoTracks() {
		xs = append(xs, m.Tracks[ti].PASR())
	}
	return stats.Median(xs)
}

// SizeIndex is a sorted index over all chunks of one media type, supporting
// the range queries of CSI's candidate search (Step 2.1): all chunks whose
// true size S satisfies S <= est <= (1+k)S.
type SizeIndex struct {
	sizes []int64
	refs  []ChunkRef
}

// NewSizeIndex builds an index over all tracks of the given kind.
func NewSizeIndex(m *Manifest, kind Type) *SizeIndex {
	idx := &SizeIndex{}
	for ti := range m.Tracks {
		t := &m.Tracks[ti]
		if t.Kind != kind {
			continue
		}
		for ci, s := range t.Sizes {
			idx.sizes = append(idx.sizes, s)
			idx.refs = append(idx.refs, ChunkRef{Track: ti, Index: ci})
		}
	}
	order := make([]int, len(idx.sizes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if idx.sizes[order[a]] != idx.sizes[order[b]] {
			return idx.sizes[order[a]] < idx.sizes[order[b]]
		}
		ra, rb := idx.refs[order[a]], idx.refs[order[b]]
		if ra.Track != rb.Track {
			return ra.Track < rb.Track
		}
		return ra.Index < rb.Index
	})
	ss := make([]int64, len(order))
	rr := make([]ChunkRef, len(order))
	for i, o := range order {
		ss[i] = idx.sizes[o]
		rr[i] = idx.refs[o]
	}
	idx.sizes, idx.refs = ss, rr
	return idx
}

// VideoIndex returns the manifest's video SizeIndex, built on first use and
// shared afterwards; callers must not modify the manifest once they use it.
func (m *Manifest) VideoIndex() *SizeIndex {
	m.videoIdx.once.Do(func() { m.videoIdx.idx = NewSizeIndex(m, Video) })
	return m.videoIdx.idx
}

// Len returns the number of chunks in the index.
func (idx *SizeIndex) Len() int { return len(idx.sizes) }

// Range appends to dst all chunks with size in [lo, hi] and returns the
// extended slice.
func (idx *SizeIndex) Range(lo, hi int64, dst []ChunkRef) []ChunkRef {
	i := sort.Search(len(idx.sizes), func(i int) bool { return idx.sizes[i] >= lo })
	for ; i < len(idx.sizes) && idx.sizes[i] <= hi; i++ {
		dst = append(dst, idx.refs[i])
	}
	return dst
}

// CandidateRange returns the [lo, hi] true-size interval compatible with an
// estimated size est under maximum relative over-estimation k
// (Property 1 of the paper: S <= est <= (1+k)S).
func CandidateRange(est int64, k float64) (lo, hi int64) {
	lo = int64(math.Ceil(float64(est) / (1 + k))) // S >= est/(1+k)
	hi = est                                      // S <= est
	return lo, hi
}
