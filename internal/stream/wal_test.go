package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// encodeWALRecord renders one durable record, as wal.append writes it.
func encodeWALRecord(seq uint64, payload []byte) []byte {
	rec := make([]byte, walHeaderBytes+len(payload))
	copy(rec[walHeaderBytes:], payload)
	sealWALRecord(rec, seq)
	return rec
}

func walSegsOnDisk(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"+walSegSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// walRecord is one salvaged WAL record, its payload copied out of the
// segment bytes.
type walRecord struct {
	seq     uint64
	payload []byte
}

// scanRecords runs scanSegment from any first sequence and collects the
// records of the valid prefix.
func scanRecords(data []byte) (recs []walRecord, validLen int64, torn bool, reason string) {
	_, _, validLen, torn, reason = scanSegment(data, 0, func(seq uint64, payload []byte) bool {
		recs = append(recs, walRecord{seq: seq, payload: bytes.Clone(payload)})
		return true
	})
	return recs, validLen, torn, reason
}

// openWALDir opens the WAL in dir and reads back every salvaged record.
func openWALDir(t *testing.T, dir string, segBytes int64) (*wal, []walRecord, bool, *WALCorruptError) {
	t.Helper()
	w, torn, corrupt, err := openWAL(dir, walSegsOnDisk(t, dir), segBytes)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	var recs []walRecord
	if err := w.replay(0, func(seq uint64, payload []byte) bool {
		recs = append(recs, walRecord{seq: seq, payload: bytes.Clone(payload)})
		return true
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return w, recs, torn, corrupt
}

// appendSeqs appends records from through through and writes them out:
// append only stages a record, and the callers read the segment back.
func appendSeqs(t *testing.T, w *wal, from, through uint64) {
	t.Helper()
	for seq := from; seq <= through; seq++ {
		if _, err := w.append(seq, encodeWALRecord(seq, []byte(fmt.Sprintf(`{"seq":%d}`, seq)))); err != nil {
			t.Fatalf("append seq %d: %v", seq, err)
		}
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
}

func checkSeqs(t *testing.T, recs []walRecord, from, through uint64) {
	t.Helper()
	if got, want := len(recs), int(through-from+1); got != want {
		t.Fatalf("salvaged %d records, want %d", got, want)
	}
	for i, rec := range recs {
		if want := from + uint64(i); rec.seq != want {
			t.Fatalf("record %d has seq %d, want %d", i, rec.seq, want)
		}
		if want := fmt.Sprintf(`{"seq":%d}`, rec.seq); string(rec.payload) != want {
			t.Fatalf("record %d payload %q, want %q", i, rec.payload, want)
		}
	}
}

// TestWALRoundTripRotation pins the append/scan cycle across segment
// rotations and a reopen-then-append restart.
func TestWALRoundTripRotation(t *testing.T) {
	dir := t.TempDir()
	w, recs, torn, corrupt := openWALDir(t, dir, 128)
	if len(recs) != 0 || torn || corrupt != nil {
		t.Fatalf("fresh dir not empty: %d records torn=%v corrupt=%v", len(recs), torn, corrupt)
	}
	appendSeqs(t, w, 1, 40)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if segs := walSegsOnDisk(t, dir); len(segs) < 2 {
		t.Fatalf("expected rotation at 128-byte segments, got %d segment(s)", len(segs))
	}

	w, recs, torn, corrupt = openWALDir(t, dir, 128)
	if torn || corrupt != nil {
		t.Fatalf("clean reopen reported damage: torn=%v corrupt=%v", torn, corrupt)
	}
	checkSeqs(t, recs, 1, 40)
	if w.lastSeq != 40 {
		t.Fatalf("lastSeq %d after reopen, want 40", w.lastSeq)
	}
	appendSeqs(t, w, 41, 50)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	_, recs, torn, corrupt = openWALDir(t, dir, 128)
	if torn || corrupt != nil {
		t.Fatalf("second reopen reported damage: torn=%v corrupt=%v", torn, corrupt)
	}
	checkSeqs(t, recs, 1, 50)
}

// TestWALTornTailTolerated pins the crash-mid-append shape: an incomplete
// record at the tail of the final segment is silently dropped, the prefix
// replays, and the file is truncated so appending resumes cleanly.
func TestWALTornTailTolerated(t *testing.T) {
	for _, cut := range []int{1, walHeaderBytes - 1, walHeaderBytes + 3} {
		t.Run(fmt.Sprintf("keep%dBytes", cut), func(t *testing.T) {
			dir := t.TempDir()
			w, _, _, _ := openWALDir(t, dir, defaultSegmentBytes)
			appendSeqs(t, w, 1, 5)
			// Hand-build a record for seq 6 and write only its first bytes.
			full := make([]byte, walHeaderBytes+10)
			binary.LittleEndian.PutUint32(full[0:], 10)
			binary.LittleEndian.PutUint64(full[8:], 6)
			if _, err := w.f.Write(full[:cut]); err != nil {
				t.Fatal(err)
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}

			tailPath := walSegsOnDisk(t, dir)[0]
			before, _ := os.Stat(tailPath)
			w, recs, torn, corrupt := openWALDir(t, dir, defaultSegmentBytes)
			if !torn {
				t.Fatal("torn tail not reported")
			}
			if corrupt != nil {
				t.Fatalf("torn tail misclassified as corruption: %v", corrupt)
			}
			checkSeqs(t, recs, 1, 5)
			after, _ := os.Stat(tailPath)
			if after.Size() >= before.Size() {
				t.Fatalf("torn bytes not truncated: %d -> %d", before.Size(), after.Size())
			}
			appendSeqs(t, w, 6, 8)
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			_, recs, torn, corrupt = openWALDir(t, dir, defaultSegmentBytes)
			if torn || corrupt != nil {
				t.Fatalf("post-salvage reopen damaged: torn=%v corrupt=%v", torn, corrupt)
			}
			checkSeqs(t, recs, 1, 8)
		})
	}
}

// TestWALMidLogCorruption pins the structured-error path: damage that is
// not a final-segment torn tail surfaces a *WALCorruptError, the valid
// prefix is salvaged, and everything past the damage is dropped on disk.
func TestWALMidLogCorruption(t *testing.T) {
	corruptAt := func(t *testing.T, path string, off int64) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := []byte{0}
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		buf[0] ^= 0xff
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("bitFlipInFirstOfTwoSegments", func(t *testing.T) {
		dir := t.TempDir()
		w, _, _, _ := openWALDir(t, dir, 128)
		appendSeqs(t, w, 1, 40)
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		segs := walSegsOnDisk(t, dir)
		if len(segs) < 3 {
			t.Fatalf("need >= 3 segments, got %d", len(segs))
		}
		// Flip a payload byte of the second record in the first segment:
		// record 1 survives, the log is dead from record 2 on.
		rec1Len := int64(walHeaderBytes + len(`{"seq":1}`))
		corruptAt(t, segs[0], rec1Len+walHeaderBytes+2)

		w, recs, torn, corrupt := openWALDir(t, dir, 128)
		if corrupt == nil {
			t.Fatal("mid-log corruption not reported")
		}
		if corrupt.Reason != "checksum mismatch" || corrupt.Offset != rec1Len || corrupt.LastGoodSeq != 1 {
			t.Fatalf("corrupt = %+v", corrupt)
		}
		if torn {
			t.Fatal("corruption also reported as torn")
		}
		checkSeqs(t, recs, 1, 1)
		if remaining := walSegsOnDisk(t, dir); len(remaining) != 1 {
			t.Fatalf("segments past corruption not dropped: %v", remaining)
		}
		// The WAL must stay appendable after salvage.
		appendSeqs(t, w, 2, 3)
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		_, recs, _, corrupt = openWALDir(t, dir, 128)
		if corrupt != nil {
			t.Fatalf("post-salvage reopen corrupt: %v", corrupt)
		}
		checkSeqs(t, recs, 1, 3)
	})

	t.Run("tornRecordWithLaterSegmentBehind", func(t *testing.T) {
		dir := t.TempDir()
		w, _, _, _ := openWALDir(t, dir, 128)
		appendSeqs(t, w, 1, 40)
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		segs := walSegsOnDisk(t, dir)
		if len(segs) < 2 {
			t.Fatalf("need >= 2 segments, got %d", len(segs))
		}
		// Cut the FIRST segment mid-record: torn shape, but data exists
		// behind it, so it is corruption, not a tolerable tail.
		info, _ := os.Stat(segs[0])
		if err := os.Truncate(segs[0], info.Size()-3); err != nil {
			t.Fatal(err)
		}
		_, _, torn, corrupt := openWALDir(t, dir, 128)
		if corrupt == nil || corrupt.Reason != "torn record" {
			t.Fatalf("torn-with-followers not reported as corruption: %+v", corrupt)
		}
		if torn {
			t.Fatal("also reported as tolerable torn tail")
		}
	})

	t.Run("zeroLengthRecord", func(t *testing.T) {
		dir := t.TempDir()
		w, _, _, _ := openWALDir(t, dir, defaultSegmentBytes)
		appendSeqs(t, w, 1, 3)
		if _, err := w.f.Write(make([]byte, walHeaderBytes)); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		_, recs, _, corrupt := openWALDir(t, dir, defaultSegmentBytes)
		if corrupt == nil || corrupt.Reason != "zero-length record" {
			t.Fatalf("zero-length record not reported: %+v", corrupt)
		}
		checkSeqs(t, recs, 1, 3)
	})

	t.Run("implausibleLength", func(t *testing.T) {
		dir := t.TempDir()
		w, _, _, _ := openWALDir(t, dir, defaultSegmentBytes)
		appendSeqs(t, w, 1, 3)
		bad := make([]byte, walHeaderBytes)
		binary.LittleEndian.PutUint32(bad[0:], walMaxRecordBytes+1)
		if _, err := w.f.Write(bad); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		_, recs, _, corrupt := openWALDir(t, dir, defaultSegmentBytes)
		if corrupt == nil {
			t.Fatal("implausible length not reported")
		}
		checkSeqs(t, recs, 1, 3)
	})
}

// TestWALTruncateThrough pins snapshot-driven prefix dropping: segments
// fully covered by seq go away, newer ones stay, and the WAL remains
// appendable whether or not the open tail was dropped.
func TestWALTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	w, _, _, _ := openWALDir(t, dir, 128)
	appendSeqs(t, w, 1, 40)
	midSeq := w.segs[len(w.segs)-1].first - 1 // everything before the tail segment
	if err := w.truncateThrough(midSeq); err != nil {
		t.Fatal(err)
	}
	if len(w.segs) != 1 {
		t.Fatalf("expected only the tail segment to survive, got %d", len(w.segs))
	}
	_, recs, _, corrupt := openWALDir(t, dir, 128)
	if corrupt != nil {
		t.Fatalf("reopen after partial truncate corrupt: %v", corrupt)
	}
	checkSeqs(t, recs, midSeq+1, 40)

	if err := w.truncateThrough(40); err != nil {
		t.Fatal(err)
	}
	if remaining := walSegsOnDisk(t, dir); len(remaining) != 0 {
		t.Fatalf("full truncate left segments: %v", remaining)
	}
	appendSeqs(t, w, 41, 42)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _, corrupt = openWALDir(t, dir, 128)
	if corrupt != nil {
		t.Fatalf("append after full truncate corrupt: %v", corrupt)
	}
	checkSeqs(t, recs, 41, 42)
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in     string
		policy string
		every  int
		ok     bool
	}{
		{"always", SyncAlways, 0, true},
		{"never", SyncNever, 0, true},
		{"interval", SyncInterval, defaultSyncEvery, true},
		{"interval:7", SyncInterval, 7, true},
		{"interval:0", "", 0, false},
		{"interval:x", "", 0, false},
		{"sometimes", "", 0, false},
		{"", "", 0, false},
	}
	for _, c := range cases {
		policy, every, err := ParseSyncPolicy(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseSyncPolicy(%q) err = %v, want ok=%v", c.in, err, c.ok)
		}
		if policy != c.policy || every != c.every {
			t.Fatalf("ParseSyncPolicy(%q) = (%q, %d), want (%q, %d)", c.in, policy, every, c.policy, c.every)
		}
	}
}
