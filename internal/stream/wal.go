package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"csi/internal/obs"
)

// The frame write-ahead log (DESIGN.md §13). Every frame the control
// goroutine accepts is appended here *before* it mutates the flow table —
// a control-loop batch at a time, the batch's records staged and written
// with one write call before its first frame is applied — so a crash at any
// instant loses no applied state: recovery restores the last snapshot,
// re-taps its live flows' packets from the WAL (the only copy of them) and
// replays the WAL suffix, which regenerates the exact state — and therefore
// the exact output bytes — of an uninterrupted run.
//
// On-disk format: segments named wal-<firstSeq, 20 digits>.seg, rotated by
// size. Each record is
//
//	u32le payload length | u32le CRC32-IEEE(seq || payload) | u64le seq | payload
//
// where the payload is the frame's canonical JSON (the wire format). The
// reader is a salvage scanner: a torn record at the tail of the *final*
// segment is the expected shape of a crash mid-write and is tolerated
// (ErrTruncatedTail semantics); a checksum mismatch, implausible length,
// sequence gap, or torn record with later data behind it is mid-log
// corruption — the valid prefix is salvaged and the damage is surfaced as a
// structured *WALCorruptError, never a panic.

// WAL fsync policies (DurabilityOptions.SyncPolicy).
const (
	// SyncAlways fsyncs after every appended record: a record is durable
	// against OS crash/power loss before it mutates any state.
	SyncAlways = "always"
	// SyncInterval fsyncs every SyncEvery records (and at rotation/close):
	// bounded loss window against OS crash, one fsync per SyncEvery
	// records. Process kills lose no applied frame under any policy —
	// written records survive in the page cache, and a batch is written
	// before any of its frames is applied.
	SyncInterval = "interval"
	// SyncNever leaves syncing to the OS between records (rotation, close
	// and every snapshot still sync: finished segments are sealed, and a
	// snapshot never points at WAL frames less durable than itself).
	SyncNever = "never"
)

// ParseSyncPolicy parses the -wal-sync flag grammar: "always", "never",
// "interval" (every defaultSyncEvery frames), or "interval:N". The interval
// is counted in frames, not seconds, so durable replay stays clock-free.
func ParseSyncPolicy(s string) (policy string, every int, err error) {
	switch {
	case s == SyncAlways, s == SyncNever:
		return s, 0, nil
	case s == SyncInterval:
		return SyncInterval, defaultSyncEvery, nil
	case strings.HasPrefix(s, SyncInterval+":"):
		n, aerr := strconv.Atoi(strings.TrimPrefix(s, SyncInterval+":"))
		if aerr != nil || n < 1 {
			return "", 0, fmt.Errorf("stream: bad sync interval %q (want interval:N, N >= 1)", s)
		}
		return SyncInterval, n, nil
	default:
		return "", 0, fmt.Errorf("stream: unknown WAL sync policy %q (want always, interval[:N] or never)", s)
	}
}

const (
	walHeaderBytes    = 16
	walMaxRecordBytes = 16 << 20 // length-prefix plausibility bound
	walSegSuffix      = ".seg"
	walSegPrefix      = "wal-"

	defaultSegmentBytes = 8 << 20
	defaultSyncEvery    = 256
)

// WALCorruptError reports mid-log corruption: the WAL is readable up to
// LastGoodSeq and unreadable after Offset in Segment. Recovery salvages the
// prefix; everything past the damage is gone (and, in replay, re-fed from
// the input).
type WALCorruptError struct {
	Segment     string
	Offset      int64
	Reason      string
	LastGoodSeq uint64
}

func (e *WALCorruptError) Error() string {
	return fmt.Sprintf("stream: wal corrupt in %s at byte %d (%s); salvaged through seq %d",
		filepath.Base(e.Segment), e.Offset, e.Reason, e.LastGoodSeq)
}

type walSeg struct {
	path  string
	first uint64 // 0 until the first record lands
	last  uint64
	size  int64
}

// wal is the append state over a directory of segments. All methods run on
// the monitor's control goroutine (or before it starts); the type itself is
// not concurrency-safe.
type wal struct {
	dir      string
	segBytes int64
	segs     []walSeg
	f        *os.File // open tail segment, nil until the first append
	size     int64    // bytes in the open segment, staged records included
	lastSeq  uint64
	closed   bool
	// staged holds the sealed records appended since the last write, bound
	// for the open segment; flush writes them with one write call.
	staged []byte
	writes *obs.Counter // stream.wal_writes; nil outside a Durability
}

// seqName names a state file: prefix, a sequence zero-padded to 20 digits
// (room for every uint64, so name order is sequence order), suffix. WAL
// segments are named after their first record, snapshots after their Seq.
func seqName(prefix string, seq uint64, suffix string) string {
	return fmt.Sprintf("%s%020d%s", prefix, seq, suffix)
}

// isSeqName reports whether name is a seqName with this prefix and suffix.
func isSeqName(name, prefix, suffix string) bool {
	digits, okPrefix := strings.CutPrefix(name, prefix)
	digits, okSuffix := strings.CutSuffix(digits, suffix)
	_, err := strconv.ParseUint(digits, 10, 64)
	return okPrefix && okSuffix && len(digits) == 20 && err == nil
}

// scanSegment walks one segment's bytes, calling visit (when non-nil) on
// each record of the valid prefix in order; the payload aliases data, and
// visit returning false stops the walk there. It returns the number of
// records and the last sequence of the valid prefix, the prefix's byte
// length, whether the scan stopped on a torn (incomplete) record, and — for
// any other stop — the corruption reason. nextSeq is the expected sequence
// of the first record (0 = accept any) and is threaded across segments to
// detect gaps; within the prefix sequences are consecutive.
func scanSegment(data []byte, nextSeq uint64, visit func(seq uint64, payload []byte) bool) (n int, last uint64, validLen int64, torn bool, reason string) {
	off := 0
	for off < len(data) {
		if len(data)-off < walHeaderBytes {
			return n, last, int64(off), true, ""
		}
		ln := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		seq := binary.LittleEndian.Uint64(data[off+8:])
		if ln == 0 {
			return n, last, int64(off), false, "zero-length record"
		}
		if ln > walMaxRecordBytes {
			return n, last, int64(off), false, fmt.Sprintf("implausible record length %d", ln)
		}
		end := off + walHeaderBytes + int(ln)
		if end > len(data) {
			return n, last, int64(off), true, ""
		}
		if crc32.ChecksumIEEE(data[off+8:end]) != sum {
			return n, last, int64(off), false, "checksum mismatch"
		}
		if nextSeq != 0 && seq != nextSeq {
			return n, last, int64(off), false, fmt.Sprintf("sequence gap (record %d follows %d)", seq, nextSeq-1)
		}
		n, last, nextSeq = n+1, seq, seq+1
		payload := data[off+walHeaderBytes : end]
		off = end
		if visit != nil && !visit(seq, payload) {
			break
		}
	}
	return n, last, int64(off), false, ""
}

// openWAL scans the given segment files (already name-sorted by the
// caller) one at a time, salvages the valid record prefix, truncates the
// on-disk tail to exactly that prefix, and returns the WAL positioned for
// appending after it; the records themselves are read back with replay. A
// torn tail in the final segment is tolerated silently (torn=true); a
// mid-log stop is returned as a *WALCorruptError after salvage. Both leave
// the WAL fully usable.
func openWAL(dir string, segPaths []string, segBytes int64) (w *wal, torn bool, corrupt *WALCorruptError, err error) {
	w = &wal{dir: dir, segBytes: segBytes}
	var nextSeq uint64
	for i, path := range segPaths {
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, false, nil, fmt.Errorf("stream: reading wal segment: %w", rerr)
		}
		n, last, validLen, segTorn, reason := scanSegment(data, nextSeq, nil)
		final := i == len(segPaths)-1
		damaged := reason != "" || (segTorn && !final)

		if n == 0 && !damaged && !segTorn {
			// Empty segment (crash between rotation and the first record):
			// drop it so it cannot shadow a future rotation.
			if rmErr := os.Remove(path); rmErr != nil {
				return nil, false, nil, fmt.Errorf("stream: dropping empty wal segment: %w", rmErr)
			}
			continue
		}
		if n > 0 {
			w.segs = append(w.segs, walSeg{path: path, first: last + 1 - uint64(n), last: last, size: validLen})
			w.lastSeq = last
			nextSeq = last + 1
		}
		if damaged || (segTorn && final) {
			if reason == "" {
				reason = "torn record"
			}
			if validLen < int64(len(data)) {
				if terr := truncateSalvage(path, validLen); terr != nil {
					return nil, false, nil, terr
				}
			}
			for _, later := range segPaths[i+1:] {
				if rmErr := os.Remove(later); rmErr != nil {
					return nil, false, nil, fmt.Errorf("stream: dropping wal segment past corruption: %w", rmErr)
				}
			}
			if damaged {
				corrupt = &WALCorruptError{Segment: path, Offset: validLen, Reason: reason, LastGoodSeq: w.lastSeq}
			} else {
				torn = true
			}
			break
		}
	}
	// Reopen the surviving tail segment for appending.
	if n := len(w.segs); n > 0 {
		tail := w.segs[n-1]
		f, oerr := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if oerr != nil {
			return nil, false, nil, fmt.Errorf("stream: reopening wal tail: %w", oerr)
		}
		w.f = f
		w.size = tail.size
	}
	return w, torn, corrupt, nil
}

// replay reads the WAL back from sequence from on, one segment at a time,
// calling visit on each record in order until it returns false. The payload
// aliases the segment's bytes, which are dropped before the next segment is
// read, so at most one segment is resident. Only valid after openWAL, which
// cut every segment back to its valid prefix.
func (w *wal) replay(from uint64, visit func(seq uint64, payload []byte) bool) error {
	for _, seg := range w.segs {
		if seg.last < from {
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("stream: reading wal segment: %w", err)
		}
		more := true
		scanSegment(data, 0, func(seq uint64, payload []byte) bool {
			more = seq < from || visit(seq, payload)
			return more
		})
		if !more {
			return nil
		}
	}
	return nil
}

// truncateSalvage cuts a damaged segment back to its valid prefix (deleting
// it outright when nothing valid remains).
func truncateSalvage(path string, validLen int64) error {
	if validLen == 0 {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("stream: dropping empty wal segment: %w", err)
		}
		return nil
	}
	if err := os.Truncate(path, validLen); err != nil {
		return fmt.Errorf("stream: truncating wal tail: %w", err)
	}
	return nil
}

// sealWALRecord fills in the header of rec, a record whose payload follows
// walHeaderBytes reserved bytes: length, then the CRC over seq and payload.
func sealWALRecord(rec []byte, seq uint64) {
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(rec)-walHeaderBytes))
	binary.LittleEndian.PutUint64(rec[8:], seq)
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[8:]))
}

// maxKeptStaged caps the staged buffer a WAL keeps between writes: a full
// batch of real frames stages under 100 KiB, and a batch of oversized
// frames should not stay resident.
const maxKeptStaged = 1 << 20

// append seals one record and stages it behind the records appended since
// the last write: rec is the payload behind walHeaderBytes reserved bytes,
// whose header is filled in place (so the caller can build records in one
// reused buffer). Nothing reaches the segment until flush, which sync,
// rotate, truncateThrough and close call first. Rotation happens before
// the record is staged, so a record never spans segments. Returns the
// record's size in bytes.
func (w *wal) append(seq uint64, rec []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("stream: append to closed wal")
	}
	if n := len(rec) - walHeaderBytes; n <= 0 || n > walMaxRecordBytes {
		return 0, fmt.Errorf("stream: wal payload of %d bytes out of range", n)
	}
	if w.f == nil || (w.size > 0 && w.size+int64(len(rec)) > w.segBytes) {
		if err := w.rotate(seq); err != nil {
			return 0, err
		}
	}
	sealWALRecord(rec, seq)
	w.staged = append(w.staged, rec...)
	w.size += int64(len(rec))
	w.lastSeq = seq
	seg := &w.segs[len(w.segs)-1]
	if seg.first == 0 {
		seg.first = seq
	}
	seg.last = seq
	seg.size = w.size
	return len(rec), nil
}

// flush writes the staged records to the open segment with one write call.
func (w *wal) flush() error {
	if len(w.staged) == 0 {
		return nil
	}
	_, err := w.f.Write(w.staged)
	w.writes.Inc()
	w.staged = w.staged[:0]
	if cap(w.staged) > maxKeptStaged {
		w.staged = nil
	}
	if err != nil {
		return fmt.Errorf("stream: wal write through seq %d: %w", w.lastSeq, err)
	}
	return nil
}

// rotate seals the open segment (synced — a finished segment is always
// durable) and starts a new one named after the next record.
func (w *wal) rotate(firstSeq uint64) error {
	if w.f != nil {
		if err := w.flush(); err != nil {
			return err
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("stream: syncing sealed wal segment: %w", err)
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("stream: closing sealed wal segment: %w", err)
		}
		w.f = nil
	}
	path := filepath.Join(w.dir, seqName(walSegPrefix, firstSeq, walSegSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("stream: creating wal segment: %w", err)
	}
	w.f = f
	w.size = 0
	w.segs = append(w.segs, walSeg{path: path})
	return nil
}

// sync writes the staged records and fsyncs the open segment.
func (w *wal) sync() error {
	if w.f == nil {
		return nil
	}
	if err := w.flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("stream: wal fsync: %w", err)
	}
	return nil
}

// truncateThrough removes every segment whose records all lie at or below
// seq — the prefix no durable snapshot needs any more. The open tail
// segment is closed and removed too when fully covered (the next append
// starts a fresh segment). Staged records are written first.
func (w *wal) truncateThrough(seq uint64) error {
	if err := w.flush(); err != nil {
		return err
	}
	kept := w.segs[:0]
	for i := range w.segs {
		seg := w.segs[i]
		if seg.last > seq {
			kept = append(kept, seg)
			continue
		}
		if w.f != nil && i == len(w.segs)-1 {
			if err := w.f.Close(); err != nil {
				return fmt.Errorf("stream: closing covered wal segment: %w", err)
			}
			w.f = nil
			w.size = 0
		}
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("stream: removing covered wal segment: %w", err)
		}
	}
	w.segs = kept
	return nil
}

// close seals the WAL: a final write and sync (crash-consistency of the
// last records) and close. Idempotent.
func (w *wal) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	if err := w.flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("stream: syncing wal at close: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("stream: closing wal: %w", err)
	}
	w.f = nil
	return nil
}

// totalBytes is the on-disk footprint across live segments.
func (w *wal) totalBytes() int64 {
	var n int64
	for _, seg := range w.segs {
		n += seg.size
	}
	return n
}
