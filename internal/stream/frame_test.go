package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"csi/internal/capture"
	"csi/internal/obs"
	"csi/internal/packet"
	"csi/internal/session"
	"csi/internal/testleak"
)

// The FrameReader's diagnostics are part of the durability story: when a
// recording is damaged, the error must say exactly where (line, byte
// offset), and a crash-truncated tail must be distinguishable from
// corruption so recovery can tolerate the former while batch loading
// rejects both.

// TestPackOrder pins Pack's interleaving: frames in timestamp order, equal
// timestamps broken by flow name and then by per-flow order, each close
// marker directly after its flow's last packet, and the markers of empty
// traces last, in name order.
func TestPackOrder(t *testing.T) {
	trace := func(times ...float64) *capture.Trace {
		tr := &capture.Trace{}
		for i, at := range times {
			tr.Packets = append(tr.Packets, packet.View{Time: at, Size: int64(i)})
		}
		return tr
	}
	frames := Pack(map[string]*capture.Trace{
		"b":     trace(1, 2, 2, 4),
		"a":     trace(2, 3),
		"c":     trace(2),
		"empty": trace(),
		"dry":   trace(),
	})
	var got []string
	for _, f := range frames {
		if f.Close {
			got = append(got, f.Flow+"/close")
		} else {
			got = append(got, fmt.Sprintf("%s%d@%g", f.Flow, f.Packet.Size, f.Packet.Time))
		}
	}
	want := []string{
		"b0@1",
		"a0@2", "b1@2", "b2@2", "c0@2", "c/close",
		"a1@3", "a/close",
		"b3@4", "b/close",
		"dry/close", "empty/close",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Pack order:\n got %v\nwant %v", got, want)
	}
	if cap(frames) != len(frames) {
		t.Fatalf("Pack output has cap %d for %d frames, want an exact presize", cap(frames), len(frames))
	}
}

func TestFrameReaderDecodeErrorPosition(t *testing.T) {
	in := `{"flow":"a","packet":{"time":1,"conn":1,"len":10}}
{"flow":"b","close":true}
not json at all
{"flow":"c","close":true}
`
	fr := NewFrameReader(strings.NewReader(in))
	for i := 0; i < 2; i++ {
		if _, err := fr.Next(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	_, err := fr.Next()
	if err == nil {
		t.Fatal("decode of garbage line succeeded")
	}
	wantOffset := int64(len(`{"flow":"a","packet":{"time":1,"conn":1,"len":10}}` + "\n" + `{"flow":"b","close":true}` + "\n"))
	if fr.Line() != 3 || fr.Offset() != wantOffset {
		t.Fatalf("damage reported at line %d offset %d, want line 3 offset %d", fr.Line(), fr.Offset(), wantOffset)
	}
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "byte offset 77") {
		t.Fatalf("error lacks position: %v", err)
	}
	if errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("mid-stream corruption classified as truncated tail: %v", err)
	}
	// Errors are sticky: the valid frame after the damage is unreachable.
	if _, err2 := fr.Next(); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("error not sticky: %v", err2)
	}
}

func TestFrameReaderTruncatedTail(t *testing.T) {
	in := `{"flow":"a","packet":{"time":1,"conn":1,"len":10}}
{"flow":"a","clo`
	fr := NewFrameReader(strings.NewReader(in))
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := fr.Next()
	if !errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("truncated final line not ErrTruncatedTail: %v", err)
	}
	if fr.Line() != 2 {
		t.Fatalf("truncation reported at line %d, want 2", fr.Line())
	}
	// Batch loading still fails loudly on the same stream.
	if _, err := ReadFrames(strings.NewReader(in)); !errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("ReadFrames tolerated a truncated tail: %v", err)
	}
}

func TestFrameReaderFinalLineWithoutNewline(t *testing.T) {
	// A complete record missing only its newline is a clean end of stream,
	// not a truncated tail: the crash happened after the payload landed.
	in := `{"flow":"a","packet":{"time":1,"conn":1,"len":10}}
{"flow":"a","close":true}`
	frames, err := ReadFrames(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 || !frames[1].Close {
		t.Fatalf("got %d frames, want 2 ending in close", len(frames))
	}
}

func TestFrameReaderSkipsBlankLines(t *testing.T) {
	in := "\n{\"flow\":\"a\",\"close\":true}\n\n   \n{\"flow\":\"b\",\"close\":true}\n\n"
	fr := NewFrameReader(strings.NewReader(in))
	f1, err := fr.Next()
	if err != nil || f1.Flow != "a" {
		t.Fatalf("first frame %+v, %v", f1, err)
	}
	if fr.Line() != 2 {
		t.Fatalf("first frame on line %d, want 2", fr.Line())
	}
	f2, err := fr.Next()
	if err != nil || f2.Flow != "b" {
		t.Fatalf("second frame %+v, %v", f2, err)
	}
	if fr.Line() != 5 {
		t.Fatalf("second frame on line %d, want 5", fr.Line())
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of blank-padded stream: %v", err)
	}
}

func TestFrameReaderEmptyStream(t *testing.T) {
	fr := NewFrameReader(strings.NewReader(""))
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("EOF not sticky: %v", err)
	}
}

// frameLine returns a valid close-frame line of exactly n bytes, newline
// included, whose flow name is fill repeated.
func frameLine(n int, fill byte) string {
	const pre, post = `{"flow":"`, `","close":true}` + "\n"
	return pre + strings.Repeat(string(fill), n-len(pre)-len(post)) + post
}

// A producer that never sends a newline must not grow the reader without
// bound: a line past maxFrameLine is rejected at its start position, like
// any malformed line, and is never mistaken for a crash-truncated tail.
func TestFrameReaderLineTooLong(t *testing.T) {
	first := `{"flow":"a","close":true}` + "\n"
	long := strings.TrimSuffix(frameLine(maxFrameLine+2, 'x'), "\n") // maxFrameLine+1 bytes
	for name, in := range map[string]string{
		"mid-stream": first + long + "\n" + first,
		"at EOF":     first + long,
	} {
		fr := NewFrameReader(strings.NewReader(in))
		if _, err := fr.Next(); err != nil {
			t.Fatalf("%s: first frame: %v", name, err)
		}
		_, err := fr.Next()
		if !errors.Is(err, errLineTooLong) || errors.Is(err, ErrTruncatedTail) {
			t.Fatalf("%s: over-long line: %v", name, err)
		}
		if fr.Line() != 2 || fr.Offset() != int64(len(first)) {
			t.Fatalf("%s: reported at line %d offset %d, want line 2 offset %d", name, fr.Line(), fr.Offset(), len(first))
		}
		if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "byte offset 26") {
			t.Fatalf("%s: error lacks position: %v", name, err)
		}
	}
}

// Any line the reader accepts must fit one WAL record once re-encoded: a
// frame at the bound made of characters json.Marshal escapes 6× still
// appends to a durable monitor's WAL instead of switching durability off.
func TestFrameAtBoundFitsWAL(t *testing.T) {
	testleak.Check(t)
	fr := NewFrameReader(strings.NewReader(frameLine(maxFrameLine, '<')))
	f, err := fr.Next()
	if err != nil {
		t.Fatalf("frame at the bound rejected: %v", err)
	}
	tr := obs.New(nil, nil)
	d, err := OpenDurability(t.TempDir(), DurabilityOptions{Obs: tr})
	if err != nil {
		t.Fatal(err)
	}
	rec := Recover(d, replayOpts(testManifest(t, session.SH), false))
	rec.Monitor.Ingest(f)
	rec.Monitor.Drain()
	reg := tr.Metrics()
	if n := reg.Counter("stream.wal_errors").Value(); n != 0 {
		t.Fatalf("stream.wal_errors = %d: %+v", n, d.Status())
	}
	if n := reg.Counter("stream.wal_appends").Value(); n != 1 {
		t.Fatalf("stream.wal_appends = %d, want 1", n)
	}
}

// TestFrameReaderReusesOnlyCanonicalStrings pins the reader's string reuse
// against a previous frame the json fallback decoded: the escape `"a\\b"`
// decodes to a\b, and a next line whose raw bytes are `"a\b"` holds the
// escape \b, not a match. Each frame must equal json.Unmarshal's.
func TestFrameReaderReusesOnlyCanonicalStrings(t *testing.T) {
	rest := strings.TrimPrefix(canonicalSeed, `{"flow":"a"`)
	lines := []string{
		`{"flow":"a\\b"` + rest,
		`{"flow":"a\b"` + rest,
		`{"flow":"a\b"` + rest,
		canonicalSeed,
		canonicalSeed,
	}
	frames, err := ReadFrames(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range lines {
		var want Frame
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatal(err)
		}
		if frames[i] != want {
			t.Fatalf("line %d: got flow %q, want %q", i+1, frames[i].Flow, want.Flow)
		}
	}
}
