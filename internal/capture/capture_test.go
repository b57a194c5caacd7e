package capture

import (
	"bytes"
	"fmt"
	"maps"
	"math/bits"
	"path/filepath"
	"slices"
	"testing"

	"csi/internal/media"
	"csi/internal/packet"
)

func sampleRun() *Run {
	tr := NewTrace()
	tap := tr.Tap()
	tap(packet.View{Dir: packet.Up, ConnID: 1, Size: 100, SNI: "media.example.com", Proto: packet.TCP}, 0.1)
	tap(packet.View{Dir: packet.Down, ConnID: 1, Size: 1452, TCPSeq: 0, TCPPayload: 1400, TLSAppBytes: 1380, Proto: packet.TCP}, 0.2)
	tap(packet.View{Dir: packet.Up, ConnID: 2, Size: 90, SNI: "api.example.com", Proto: packet.TCP}, 0.3)
	return &Run{
		Trace:   tr,
		Truth:   []TruthRecord{{ReqTime: 0.1, DoneTime: 0.5, Ref: media.ChunkRef{Track: 1, Index: 0}, Kind: media.Video, Size: 1380}},
		Display: []DisplayRecord{{Start: 1, End: 6, Index: 0, Track: 1}},
		Stalls:  []StallRecord{{Start: 2, End: 3}},
	}
}

func TestTapRecordsSNIOncePerConn(t *testing.T) {
	tr := NewTrace()
	tap := tr.Tap()
	tap(packet.View{ConnID: 1, SNI: "a.example.com"}, 0)
	tap(packet.View{ConnID: 1, SNI: "evil.example.org"}, 1) // later SNI must not overwrite
	if got := tr.SNI[1]; got != "a.example.com" {
		t.Fatalf("SNI = %q", got)
	}
}

func TestConnIDsSuffixMatch(t *testing.T) {
	r := sampleRun()
	ids := r.Trace.ConnIDs("media.example.com")
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("ids = %v", ids)
	}
	both := r.Trace.ConnIDs("example.com")
	if len(both) != 2 {
		t.Fatalf("suffix match ids = %v", both)
	}
	if got := r.Trace.ConnIDs("nosuch.host"); len(got) != 0 {
		t.Fatalf("unexpected match %v", got)
	}
}

func TestConnIDsRequiresDotBoundary(t *testing.T) {
	tr := NewTrace()
	tap := tr.Tap()
	tap(packet.View{Dir: packet.Up, ConnID: 1, SNI: "notexample.com", Proto: packet.TCP}, 0.1)
	tap(packet.View{Dir: packet.Up, ConnID: 2, SNI: "example.com", Proto: packet.TCP}, 0.2)
	tap(packet.View{Dir: packet.Up, ConnID: 3, SNI: "cdn.example.com", Proto: packet.TCP}, 0.3)
	ids := tr.ConnIDs("example.com")
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("ids = %v, want [2 3] (notexample.com must not match)", ids)
	}
}

func TestFallbackConnIDsByVolume(t *testing.T) {
	tr := NewTrace()
	tap := tr.Tap()
	// Media conn 3: large downlink volume, but its handshake (SNI) was
	// missed and no DNS was seen.
	for i := 0; i < 400; i++ {
		tap(packet.View{Dir: packet.Down, ConnID: 3, Size: 1452, Proto: packet.TCP}, float64(i)*0.01)
	}
	// Decoy-sized conn 4: 120 KB, below the absolute floor.
	for i := 0; i < 80; i++ {
		tap(packet.View{Dir: packet.Down, ConnID: 4, Size: 1500, Proto: packet.TCP}, float64(i)*0.01)
	}
	// Conn 5 is big but its SNI names another host — must be excluded.
	tap(packet.View{Dir: packet.Up, ConnID: 5, SNI: "tracker.example.org", Proto: packet.TCP}, 0)
	for i := 0; i < 400; i++ {
		tap(packet.View{Dir: packet.Down, ConnID: 5, Size: 1452, Proto: packet.TCP}, float64(i)*0.01)
	}
	if ids := tr.ConnIDs("media.example.com"); len(ids) != 0 {
		t.Fatalf("SNI/DNS matching should find nothing, got %v", ids)
	}
	down := map[int]int64{}
	for _, v := range tr.Packets {
		if v.Dir == packet.Down {
			down[v.ConnID] += v.Size
		}
	}
	ids := tr.FallbackConnIDs(down, "media.example.com")
	if len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("fallback ids = %v, want [3]", ids)
	}
	// Connection 0 (unattributed packets) is never selected, and does not
	// set the busiest volume the 5% floor derives from.
	down[0] = 400 << 20
	if ids := tr.FallbackConnIDs(down, "media.example.com"); len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("fallback ids with a busy conn 0 = %v, want [3]", ids)
	}
}

func TestByConnPreservesOrder(t *testing.T) {
	r := sampleRun()
	m := r.Trace.ByConn()
	if len(m[1]) != 2 || len(m[2]) != 1 {
		t.Fatalf("by-conn sizes: %d, %d", len(m[1]), len(m[2]))
	}
	if m[1][0].Time > m[1][1].Time {
		t.Fatal("per-conn packets out of order")
	}
}

func TestRunJSONRoundTrip(t *testing.T) {
	r := sampleRun()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trace.Packets) != len(r.Trace.Packets) ||
		len(got.Truth) != 1 || len(got.Display) != 1 || len(got.Stalls) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Trace.SNI[1] != "media.example.com" {
		t.Fatalf("SNI lost: %v", got.Trace.SNI)
	}
	if got.Truth[0].Ref != r.Truth[0].Ref {
		t.Fatalf("truth ref mismatch")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	r := sampleRun()
	if err := r.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAny(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trace.Packets) != 3 {
		t.Fatalf("loaded %d packets", len(got.Trace.Packets))
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{]")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"truth":[]}`)); err == nil {
		t.Error("trace-less run accepted")
	}
}

func TestDNSFallbackWhenSNIMissing(t *testing.T) {
	tr := NewTrace()
	tap := tr.Tap()
	// DNS exchange announces the media host's IP.
	tap(packet.View{Dir: packet.Up, Proto: packet.UDP, DNSQuery: "media.example.com"}, 0.01)
	tap(packet.View{Dir: packet.Down, Proto: packet.UDP, DNSQuery: "media.example.com", DNSAnswerIP: "203.0.113.10"}, 0.02)
	// Connection 5 has no SNI (ESNI) but a matching server IP.
	tap(packet.View{Dir: packet.Up, Proto: packet.TCP, ConnID: 5, ServerIP: "203.0.113.10", TCPPayload: 300}, 0.1)
	// Connection 6 has neither SNI nor a known IP.
	tap(packet.View{Dir: packet.Up, Proto: packet.TCP, ConnID: 6, ServerIP: "198.51.100.1", TCPPayload: 300}, 0.1)
	ids := tr.ConnIDs("media.example.com")
	if len(ids) != 1 || ids[0] != 5 {
		t.Fatalf("DNS fallback ids = %v, want [5]", ids)
	}
}

func TestSNITakesPrecedenceOverDNS(t *testing.T) {
	tr := NewTrace()
	tap := tr.Tap()
	tap(packet.View{Dir: packet.Down, Proto: packet.UDP, DNSQuery: "media.example.com", DNSAnswerIP: "203.0.113.10"}, 0)
	// Conn 7 carries a DIFFERENT SNI but reuses the same front IP (CDN):
	// the SNI must win and exclude it.
	tap(packet.View{Dir: packet.Up, Proto: packet.TCP, ConnID: 7, ServerIP: "203.0.113.10", SNI: "other.example.org"}, 0.1)
	if ids := tr.ConnIDs("media.example.com"); len(ids) != 0 {
		t.Fatalf("SNI-mismatched conn leaked in via IP: %v", ids)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	r := sampleRun()
	var buf bytes.Buffer
	if err := r.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trace.Packets) != len(r.Trace.Packets) {
		t.Fatalf("packets = %d", len(got.Trace.Packets))
	}
	for i := range r.Trace.Packets {
		if got.Trace.Packets[i] != r.Trace.Packets[i] {
			t.Fatalf("packet %d mismatch:\n got %+v\nwant %+v", i, got.Trace.Packets[i], r.Trace.Packets[i])
		}
	}
	if got.Trace.SNI[1] != "media.example.com" {
		t.Fatalf("SNI lost: %v", got.Trace.SNI)
	}
	if len(got.Truth) != 1 || got.Truth[0] != r.Truth[0] {
		t.Fatalf("truth mismatch: %+v", got.Truth)
	}
	if len(got.Display) != 1 || got.Display[0] != r.Display[0] {
		t.Fatalf("display mismatch: %+v", got.Display)
	}
	if len(got.Stalls) != 1 || got.Stalls[0] != r.Stalls[0] {
		t.Fatalf("stalls mismatch: %+v", got.Stalls)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewBufferString("NOTRUN...")); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated stream.
	r := sampleRun()
	var buf bytes.Buffer
	if err := r.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadBinary(bytes.NewBuffer(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestLoadAnySniffsFormat(t *testing.T) {
	dir := t.TempDir()
	r := sampleRun()
	jp := filepath.Join(dir, "run.json")
	bp := filepath.Join(dir, "run.bin")
	if err := r.SaveJSON(jp); err != nil {
		t.Fatal(err)
	}
	if err := r.SaveBinary(bp); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{jp, bp} {
		got, err := LoadAny(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(got.Trace.Packets) != len(r.Trace.Packets) {
			t.Fatalf("%s: packets = %d", p, len(got.Trace.Packets))
		}
	}
}

// TestByConnAppendDoesNotAlias: ByConn reflects every packet tapped so
// far, and appending to a slice it returned disturbs neither the trace nor
// a later split.
func TestByConnAppendDoesNotAlias(t *testing.T) {
	tr := NewTrace()
	tap := tr.Tap()
	tap(packet.View{Dir: packet.Down, ConnID: 1, Size: 111}, 0)
	tap(packet.View{Dir: packet.Down, ConnID: 2, Size: 222}, 1)
	m := tr.ByConn()
	_ = append(m[1], packet.View{ConnID: 1, Size: 999}) // stray append
	if got := tr.ByConn()[2][0].Size; got != 222 {
		t.Fatalf("stray append clobbered neighboring connection: size %d, want 222", got)
	}

	tap(packet.View{Dir: packet.Down, ConnID: 1, Size: 112}, 2)
	tap(packet.View{Dir: packet.Down, ConnID: 2, Size: 223}, 3)
	m2 := tr.ByConn()
	if len(m2[1]) != 2 || m2[1][1].Size != 112 {
		t.Fatalf("split stale after Tap: conn 1 = %+v", m2[1])
	}
	_ = append(m2[1], packet.View{ConnID: 1, Size: 888}) // stray append
	tap(packet.View{Dir: packet.Down, ConnID: 1, Size: 113}, 4)
	if got := tr.ByConn()[1][2].Size; got != 113 {
		t.Fatalf("stray append leaked into a later split: size %d, want 113", got)
	}
	if got := tr.ByConn()[2][1].Size; got != 223 {
		t.Fatalf("later split lost a neighboring connection's packet: size %d, want 223", got)
	}
}

// tapPacket is the i-th packet of a synthetic capture that exercises every
// Tap side table: SNI on some connections' first packets, DNS answers and
// server addresses, repeated and conflicting values included.
func tapPacket(i int) packet.View {
	v := packet.View{Time: float64(i) / 100, Dir: packet.Dir(i % 2), ConnID: i % 7, Size: int64(60 + i%1400)}
	switch i % 11 {
	case 0:
		v.SNI = fmt.Sprintf("h%d.example.com", i%5)
	case 3:
		v.DNSQuery, v.DNSAnswerIP = fmt.Sprintf("q%d.example.com", i%3), fmt.Sprintf("10.0.0.%d", i%4)
	case 5:
		v.ServerIP = fmt.Sprintf("10.0.1.%d", i%6)
	}
	return v
}

// TestTapMatchesAppend checks that Tap's own slice growth leaves exactly
// what appending each packet and filling the side tables by hand would.
func TestTapMatchesAppend(t *testing.T) {
	for _, n := range []int{0, 1, 1023, 1024, 1025, 5000} {
		tr := NewTrace()
		tap := tr.Tap()
		want := NewTrace()
		for i := 0; i < n; i++ {
			v := tapPacket(i)
			tap(v, v.Time)
			want.Packets = append(want.Packets, v)
			if _, ok := want.SNI[v.ConnID]; !ok && v.SNI != "" {
				want.SNI[v.ConnID] = v.SNI
			}
			if v.DNSQuery != "" && v.DNSAnswerIP != "" {
				want.DNS[v.DNSAnswerIP] = v.DNSQuery
			}
			if _, ok := want.ServerIP[v.ConnID]; !ok && v.ServerIP != "" {
				want.ServerIP[v.ConnID] = v.ServerIP
			}
		}
		if !slices.Equal(tr.Packets, want.Packets) || !maps.Equal(tr.SNI, want.SNI) ||
			!maps.Equal(tr.DNS, want.DNS) || !maps.Equal(tr.ServerIP, want.ServerIP) {
			t.Fatalf("n=%d: Tap left %d packets, SNI %v, DNS %v, ServerIP %v; want %d packets, SNI %v, DNS %v, ServerIP %v",
				n, len(tr.Packets), tr.SNI, tr.DNS, tr.ServerIP, len(want.Packets), want.SNI, want.DNS, want.ServerIP)
		}
	}
}

// TestTapGrowthAllocs pins geometric growth: tapping n packets into a
// fresh trace reallocates Packets O(log n) times, so each packet is copied
// a bounded number of times however long the capture runs.
func TestTapGrowthAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	v := packet.View{Dir: packet.Down, ConnID: 1, Size: 1500}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			tap := NewTrace().Tap()
			for i := 0; i < n; i++ {
				tap(v, 0)
			}
		})
	}
	base := allocs(1) // the trace, its maps, the closure and the first block
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		// Doubling from 1024 reaches n after log2(n/1024) more blocks.
		limit := base + float64(bits.Len(uint(n/1024)))
		if got := allocs(n); got > limit {
			t.Fatalf("tapping %d packets allocated %.0f times, want at most %.0f", n, got, limit)
		}
	}
}
