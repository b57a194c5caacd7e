package stream

import (
	"bytes"
	"encoding/binary"
	"testing"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/media"
	"csi/internal/packet"
)

// The monitor feeds on a frame stream from an untrusted capture tap — a
// malformed, truncated or adversarially interleaved stream must come back
// as decode errors and partial results, never a panic or a hung monitor.

// fuzzManifest is a tiny hand-built ladder: media.Encode is too slow for a
// fuzz executor, and the inference only needs *some* chunk sizes to chew on.
func fuzzManifest() *media.Manifest {
	return &media.Manifest{
		Name: "fuzz", Host: "media.example.com", ChunkDur: 5,
		Tracks: []media.Track{
			{ID: 0, Kind: media.Video, Bitrate: 1_000_000,
				Sizes: []int64{600_000, 640_000, 580_000, 610_000, 650_000, 590_000}},
			{ID: 1, Kind: media.Video, Bitrate: 3_000_000,
				Sizes: []int64{1_800_000, 1_900_000, 1_750_000, 1_820_000, 1_950_000, 1_780_000}},
		},
	}
}

func fuzzSeedFrames(tb testing.TB) []byte {
	tb.Helper()
	tr := capture.NewTrace()
	tap := tr.Tap()
	for i := 0; i < 6; i++ {
		tap(packet.View{
			Time: float64(i) * 0.5, ConnID: 1, Dir: packet.Up, Size: int64(100 + i),
			SNI: "media.example.com", ServerIP: "10.0.0.1",
		}, 0)
	}
	var buf bytes.Buffer
	if err := WriteFrames(&buf, Pack(map[string]*capture.Trace{"a": tr, "b": tr})); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzWALRecord drives the WAL salvage scanner with arbitrary segment
// bytes: it must never panic, never read past the buffer, and whatever it
// salvages must re-encode to exactly the valid prefix it reported — the
// round trip that recovery's replay depends on. Seeds cover the shapes the
// crash matrix produces for real: torn writes, bit flips, zero-length
// records and oversized length prefixes.
func FuzzWALRecord(f *testing.F) {
	rec := func(seq uint64, payload string) []byte { return encodeWALRecord(seq, []byte(payload)) }
	valid := append(append(rec(1, `{"flow":"a"}`), rec(2, `{"flow":"b"}`)...), rec(3, `{"close":true}`)...)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])     // torn write
	f.Add(valid[:walHeaderBytes-2]) // torn inside the first header
	flipped := bytes.Clone(valid)
	flipped[walHeaderBytes+3] ^= 0x40 // bit flip in a payload
	f.Add(flipped)
	f.Add(append(bytes.Clone(valid), make([]byte, walHeaderBytes)...)) // zero-length record
	oversized := make([]byte, walHeaderBytes)
	binary.LittleEndian.PutUint32(oversized, walMaxRecordBytes+7) // implausible length prefix
	f.Add(append(bytes.Clone(valid), oversized...))
	gap := append(rec(1, "x"), rec(5, "y")...) // sequence gap
	f.Add(gap)

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []walRecord
		n, last, validLen, torn, reason := scanSegment(data, 0, func(seq uint64, payload []byte) bool {
			recs = append(recs, walRecord{seq: seq, payload: payload})
			return true
		})
		if n != len(recs) || (n > 0 && last != recs[n-1].seq) {
			t.Fatalf("scan reports %d records through seq %d, visited %d", n, last, len(recs))
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [0, %d]", validLen, len(data))
		}
		if torn && reason != "" {
			t.Fatalf("torn tail also classified as corruption (%q)", reason)
		}
		// Round trip: the salvaged records re-encode to exactly the bytes
		// the scanner called valid.
		var reenc []byte
		for i, r := range recs {
			if len(r.payload) == 0 || len(r.payload) > walMaxRecordBytes {
				t.Fatalf("salvaged record %d has out-of-range payload length %d", i, len(r.payload))
			}
			if i > 0 && r.seq != recs[i-1].seq+1 {
				t.Fatalf("salvaged records not contiguous: %d after %d", r.seq, recs[i-1].seq)
			}
			reenc = append(reenc, encodeWALRecord(r.seq, r.payload)...)
		}
		if !bytes.Equal(reenc, data[:validLen]) {
			t.Fatalf("salvaged records re-encode to %d bytes differing from the %d-byte valid prefix", len(reenc), validLen)
		}
	})
}

// FuzzStreamIngest drives the full ingest surface — FrameReader decoding and
// a tiny-budget Monitor (2-flow table, ~4 KiB per-flow memory budget, instant
// idle eviction) — with arbitrary bytes. Truncated packets, unknown fields,
// interleaved and colliding flow names, out-of-order timestamps and
// mid-handshake eviction must all land as errors or partial results.
func FuzzStreamIngest(f *testing.F) {
	valid := fuzzSeedFrames(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-line
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"flow":"x","close":true}` + "\n"))
	f.Add([]byte(`{"flow":"x","packet":{"time":-1,"conn":-7,"len":-3,"sni":"\u0000"}}` + "\n"))
	// Out-of-order timestamps and an eviction-forcing third flow.
	f.Add([]byte(`{"flow":"a","packet":{"time":9,"conn":1,"len":100}}
{"flow":"b","packet":{"time":1,"conn":1,"len":100}}
{"flow":"c","packet":{"time":1e308,"conn":2,"len":1}}
{"flow":"a","packet":{"time":0.5,"conn":1,"len":100,"sni":"media.example.com"}}
{"flow":"a","close":true}
{"flow":"a","packet":{"time":2,"conn":1,"len":50}}
`))
	f.Add([]byte("not json at all\n{\"flow\":\"y\",\"packet\":{\"time\":1}}\n"))

	man := fuzzManifest()
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		var frames []Frame
		for len(frames) < 256 {
			fm, err := fr.Next()
			if err != nil {
				if err.Error() == "" {
					t.Fatal("empty error message")
				}
				break
			}
			frames = append(frames, fm)
		}
		if len(frames) == 0 {
			return
		}
		mon := New(Options{
			Manifest:      man,
			Params:        core.Params{MediaHost: man.Host, Degrade: true},
			MaxFlows:      2,
			FlowMemBudget: 4 << 10,
			ShedPolicy:    ShedBlock,
			ResolveEvery:  4,
			WorkBudget:    5_000,
			IdleEvictSec:  1,
		})
		for _, fm := range frames {
			mon.Ingest(fm)
		}
		results := mon.Drain()
		// Every distinct flow name must surface exactly one result.
		want := map[string]bool{}
		for _, fm := range frames {
			want[fm.Flow] = true
		}
		got := map[string]bool{}
		for _, r := range results {
			if got[r.Flow] {
				t.Fatalf("duplicate result for flow %q", r.Flow)
			}
			got[r.Flow] = true
			if !want[r.Flow] {
				t.Fatalf("result for never-ingested flow %q", r.Flow)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("got %d results for %d flows", len(got), len(want))
		}
	})
}
