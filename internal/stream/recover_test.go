package stream

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"csi/internal/capture"
	"csi/internal/media"
	"csi/internal/obs"
	"csi/internal/packet"
	"csi/internal/session"
	"csi/internal/stream/crashpoint"
	"csi/internal/testleak"
)

// durTestFrames builds a small two-flow recording with close markers (so
// commits happen mid-stream, not only at drain).
func durTestFrames(t *testing.T, man *media.Manifest) []Frame {
	t.Helper()
	return Pack(map[string]*capture.Trace{
		"alpha": testSession(t, man, session.SH, 51, 35),
		"beta":  testSession(t, man, session.SH, 52, 25),
	})
}

func feedFrom(mon *Monitor, frames []Frame, resume uint64) {
	for i := int(resume); i < len(frames); i++ {
		mon.Ingest(frames[i])
	}
}

// TestDurableGracefulDrainSkipsReplay pins the SIGTERM satellite: a durable
// run that drains cleanly leaves a final snapshot and an empty WAL, so the
// restart resumes past the whole recording, re-solves nothing, and still
// serializes byte-identically.
func TestDurableGracefulDrainSkipsReplay(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	frames := durTestFrames(t, man)
	dir := t.TempDir()

	opts := replayOpts(man, false)
	d, err := OpenDurability(dir, DurabilityOptions{SnapshotEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	rec := Recover(d, opts)
	if rec.Resume != 0 || rec.Replayed != 0 || len(rec.Warnings) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	feedFrom(rec.Monitor, frames, rec.Resume)
	want := marshalResults(t, rec.Monitor.Drain())

	if segs, _ := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"+walSegSuffix)); len(segs) != 0 {
		t.Fatalf("graceful drain left WAL segments: %v", segs)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix)); len(snaps) == 0 {
		t.Fatal("graceful drain left no snapshot")
	}

	opts2 := replayOpts(man, false)
	opts2.Obs = obs.New(nil, nil)
	d2, err := OpenDurability(dir, DurabilityOptions{SnapshotEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	rec2 := Recover(d2, opts2)
	if rec2.Resume != uint64(len(frames)) {
		t.Fatalf("Resume = %d, want %d (whole recording)", rec2.Resume, len(frames))
	}
	if rec2.Replayed != 0 {
		t.Fatalf("clean restart replayed %d WAL frames, want 0", rec2.Replayed)
	}
	feedFrom(rec2.Monitor, frames, rec2.Resume) // no-op: resume covers everything
	got := marshalResults(t, rec2.Monitor.Drain())
	if !bytes.Equal(got, want) {
		t.Fatalf("restart output diverged:\nrestart:\n%s\nfirst run:\n%s", got, want)
	}
	if solves := opts2.Obs.Metrics().Counter("stream.solves_total").Value(); solves != 0 {
		t.Fatalf("clean restart ran %d solves, want 0", solves)
	}
}

// TestRecoverWALTail pins WAL-only recovery (a crash before any snapshot):
// the salvaged records replay, the input resumes past them, and the drained
// output is byte-identical to the uninterrupted batch reference.
func TestRecoverWALTail(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	frames := durTestFrames(t, man)
	k := len(frames) / 2
	dir := t.TempDir()

	d, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d.logBatch(1, frames[:k])
	// No close: the process "dies" here with the WAL as its only legacy.

	opts := replayOpts(man, false)
	d2, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Warnings()) != 0 {
		t.Fatalf("clean WAL produced warnings: %v", d2.Warnings())
	}
	rec := Recover(d2, opts)
	if rec.Resume != uint64(k) || rec.Replayed != k {
		t.Fatalf("Resume=%d Replayed=%d, want %d/%d", rec.Resume, rec.Replayed, k, k)
	}
	feedFrom(rec.Monitor, frames, rec.Resume)
	got := marshalResults(t, rec.Monitor.Drain())
	want := marshalResults(t, Batch(frames, replayOpts(man, false)))
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered output diverged from batch:\nrecovered:\n%s\nbatch:\n%s", got, want)
	}
}

// TestWALGroupCommit pins the WAL's write unit: the control loop logs each
// batch it takes from the ring with one write, split only where a policy
// fsync falls, and each fsync follows the same record as it would with one
// write per frame. The ring is filled before the control loop starts, so
// every batch is a full frameBatch.
func TestWALGroupCommit(t *testing.T) {
	testleak.Check(t)
	const n = 4 * frameBatch
	every := func(k uint64) (seqs []uint64) {
		for seq := k; seq <= n; seq += k {
			seqs = append(seqs, seq)
		}
		return seqs
	}
	for _, c := range []struct {
		sync    string
		writes  int64
		fsyncAt []uint64
	}{
		{"never", 4, nil},
		{"interval:256", 4, every(256)},
		// Batches 1..256, 257..512, 513..768 and 769..1024 split after
		// 2, 3, 2 and 3 fsyncs.
		{"interval:100", 4 + 10, every(100)},
		{"always", n, every(1)},
	} {
		t.Run(c.sync, func(t *testing.T) {
			policy, syncEvery, err := ParseSyncPolicy(c.sync)
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.New(nil, nil)
			d, err := OpenDurability(t.TempDir(), DurabilityOptions{
				SyncPolicy: policy, SyncEvery: syncEvery, SnapshotEvery: 1 << 20, Obs: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			var fsyncAt []uint64
			testHookFsync = func(seq uint64) { fsyncAt = append(fsyncAt, seq) }
			defer func() { testHookFsync = nil }()
			opts := ingestOpts(ShedBlock, tr)
			opts.Durable = d
			mon := newMonitor(opts)
			for i := 0; i < n; i++ {
				if !mon.Ingest(ingestFrame("a", i)) {
					t.Fatalf("frame %d refused before the control loop started", i)
				}
			}
			if got := mon.ringLen(); got != n {
				t.Fatalf("ring holds %d frames before the control loop started, want %d", got, n)
			}
			mon.start()
			mon.Drain()

			reg := tr.Metrics()
			appends, writes := reg.Counter("stream.wal_appends").Value(), reg.Counter("stream.wal_writes").Value()
			if appends != n || writes != c.writes {
				t.Fatalf("%d appends in %d writes, want %d in %d", appends, writes, n, c.writes)
			}
			if !reflect.DeepEqual(fsyncAt, c.fsyncAt) {
				t.Fatalf("policy fsyncs after records %v, want %v", fsyncAt, c.fsyncAt)
			}
		})
	}
}

// TestRecoverCorruptWALSalvages pins the mid-log corruption path end to
// end: a bit flip inside the WAL surfaces a structured warning, the valid
// prefix replays, and re-feeding the lost suffix converges to the same
// bytes as the uninterrupted run.
func TestRecoverCorruptWALSalvages(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	frames := durTestFrames(t, man)
	k := len(frames) / 2
	dir := t.TempDir()

	d, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways, segmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	d.logBatch(1, frames[:k])
	segs, _ := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"+walSegSuffix))
	if len(segs) < 2 {
		t.Fatalf("need >= 2 segments for a mid-log flip, got %d", len(segs))
	}
	mid := segs[len(segs)/2]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways, segmentBytes: 4096})
	if err != nil {
		t.Fatalf("corrupt WAL must salvage, not fail: %v", err)
	}
	var sawCorrupt bool
	for _, w := range d2.Warnings() {
		if w.Code == "wal_corrupt" {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatalf("no wal_corrupt warning; got %v", d2.Warnings())
	}
	rec := Recover(d2, replayOpts(man, false))
	if rec.Resume >= uint64(k) {
		t.Fatalf("Resume=%d past the corruption (flip landed before record %d)", rec.Resume, k)
	}
	feedFrom(rec.Monitor, frames, rec.Resume)
	got := marshalResults(t, rec.Monitor.Drain())
	want := marshalResults(t, Batch(frames, replayOpts(man, false)))
	if !bytes.Equal(got, want) {
		t.Fatalf("salvaged output diverged from batch:\nsalvaged:\n%s\nbatch:\n%s", got, want)
	}
}

// TestRecoverTornWALTailWarns pins the crash-mid-append shape through
// OpenDurability: a partial record at the tail is dropped with a
// wal_truncated_tail warning and the prefix replays.
func TestRecoverTornWALTailWarns(t *testing.T) {
	man := testManifest(t, session.SH)
	frames := durTestFrames(t, man)
	dir := t.TempDir()
	d, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	d.logBatch(1, frames[:3])
	if _, err := d.w.f.Write([]byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Warnings()) != 1 || d2.Warnings()[0].Code != "wal_truncated_tail" {
		t.Fatalf("warnings = %v, want one wal_truncated_tail", d2.Warnings())
	}
	if d2.baseSeq != 3 {
		t.Fatalf("baseSeq = %d, want 3", d2.baseSeq)
	}
}

// TestRecoverUndecodableWALRecord pins the rule for a CRC-clean record that
// does not decode as a frame: past the snapshot it ends the salvaged tail
// (wal_corrupt, durability off, the input resumes before it); inside the
// range a snapshot's live flows re-tap from, recovery refuses.
func TestRecoverUndecodableWALRecord(t *testing.T) {
	man := testManifest(t, session.SH)
	frames := durTestFrames(t, man)
	const bad = 6 // sequence of the undecodable record
	writeWAL := func(t *testing.T, dir string) {
		d, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways, segmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 10; seq++ {
			if seq == bad {
				if _, err := d.w.append(seq, append(make([]byte, walHeaderBytes), `{"flow":7}`...)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			d.logBatch(seq, frames[seq-1:seq])
		}
		d.close()
	}

	t.Run("past the snapshot", func(t *testing.T) {
		dir := t.TempDir()
		writeWAL(t, dir)
		d, err := OpenDurability(dir, DurabilityOptions{})
		if err != nil {
			t.Fatalf("an undecodable tail record must salvage, not fail: %v", err)
		}
		defer d.close()
		if w := d.Warnings(); len(w) != 1 || w[0].Code != "wal_corrupt" || !strings.Contains(w[0].Detail, "undecodable") {
			t.Fatalf("warnings = %v, want one wal_corrupt for the undecodable record", w)
		}
		if d.baseSeq != bad-1 || len(d.frames) != bad-1 || !d.Status().(DurabilityStatus).Failed {
			t.Fatalf("baseSeq %d, %d frames, status %+v; want the %d frames before the bad record and durability off",
				d.baseSeq, len(d.frames), d.Status(), bad-1)
		}
	})

	t.Run("inside the re-tap range", func(t *testing.T) {
		dir := t.TempDir()
		writeWAL(t, dir)
		buf, err := encodeSnapshot(&Snapshot{Version: snapshotVersion, Seq: 8, Flows: []FlowSnap{{Name: frames[0].Flow, FirstSeq: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := writeSnapshotFile(dir, 8, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDurability(dir, DurabilityOptions{}); err == nil || !strings.Contains(err.Error(), "needed to rebuild the snapshot") {
			t.Fatalf("err = %v, want a refusal naming the snapshot the record rebuilds", err)
		}
	})
}

// TestSnapshotCorruptFallback pins the snapshot chain: a damaged newest
// snapshot falls back to its predecessor with a structured warning; with
// every snapshot damaged, recovery proceeds from nothing.
func TestSnapshotCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{2, 4} {
		buf, err := encodeSnapshot(&Snapshot{Version: snapshotVersion, Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := writeSnapshotFile(dir, seq, buf); err != nil {
			t.Fatal(err)
		}
	}
	smash := func(seq uint64) {
		path := filepath.Join(dir, seqName(snapPrefix, seq, snapSuffix))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	smash(4)
	d, err := OpenDurability(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.snap == nil || d.snap.Seq != 2 {
		t.Fatalf("fallback snapshot = %+v, want seq 2", d.snap)
	}
	if len(d.Warnings()) != 1 || d.Warnings()[0].Code != "snapshot_corrupt" {
		t.Fatalf("warnings = %v, want one snapshot_corrupt", d.Warnings())
	}

	smash(2)
	d, err = OpenDurability(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.snap != nil {
		t.Fatalf("both snapshots corrupt but one loaded: %+v", d.snap)
	}
	if len(d.Warnings()) != 2 {
		t.Fatalf("warnings = %v, want two snapshot_corrupt", d.Warnings())
	}
}

// TestSnapshotRoundTrip pins the snapshot codec itself.
func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{
		Version: snapshotVersion, Seq: 17, FinalSeq: 2, VNow: 44.5,
		Closed: []string{"a", "b"},
		Flows: []FlowSnap{{Name: "c", FirstSeq: 9}, {Name: "d", FirstSeq: 12},
			{Name: "e", FirstSeq: 2, LastSeq: 15, Carried: []packet.View{{Time: 1.5, Size: 1200, SNI: "e.example"}}}},
	}
	buf, err := encodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:8]) != "CSISNAP2" {
		t.Fatalf("magic = %q, want CSISNAP2", buf[:8])
	}
	got, err := decodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 || got.Seq != s.Seq || got.FinalSeq != s.FinalSeq || got.VNow != s.VNow ||
		len(got.Closed) != 2 || !reflect.DeepEqual(got.Flows, s.Flows) {
		t.Fatalf("round trip = %+v", got)
	}
	if from := got.keepFrom(); from != 9 {
		t.Fatalf("keepFrom = %d, want 9 (the oldest WAL-anchored flow's first frame)", from)
	}
	if from := (&Snapshot{Seq: 17}).keepFrom(); from != 18 {
		t.Fatalf("keepFrom without live flows = %d, want Seq+1", from)
	}
	for _, cut := range []int{5, 19, len(buf) - 1} {
		if _, err := decodeSnapshot(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes not detected", cut)
		}
	}
	buf[25] ^= 0xff
	if _, err := decodeSnapshot(buf); err == nil {
		t.Fatal("payload bit flip not detected")
	}
}

// TestSnapshotV1Refused pins that a snapshot in the old format (which
// embedded packets the WAL no longer keeps) stops recovery with an error
// naming both versions, instead of being skipped as corrupt: falling back
// past it would re-emit every result it carries.
func TestSnapshotV1Refused(t *testing.T) {
	dir := t.TempDir()
	buf, err := encodeSnapshot(&Snapshot{Version: snapshotVersion, Seq: 5})
	if err != nil {
		t.Fatal(err)
	}
	buf[7] = '1'
	if _, err := writeSnapshotFile(dir, 5, buf); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurability(dir, DurabilityOptions{})
	if err == nil {
		d.close()
		t.Fatal("v1 snapshot accepted")
	}
	if !errors.Is(err, errSnapshotVersion) || !strings.Contains(err.Error(), "version 1") ||
		!strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), seqName(snapPrefix, 5, snapSuffix)) {
		t.Fatalf("err = %v, want a version error naming versions 1 and 2 and the file", err)
	}
}

// staggeredFrames builds a three-flow recording whose flows start 12 s
// apart, so the earliest flow commits while the others are live.
func staggeredFrames(t *testing.T, man *media.Manifest) []Frame {
	t.Helper()
	runs := map[string]*capture.Trace{}
	for i, name := range []string{"early", "middle", "late"} {
		tr := testSession(t, man, session.SH, int64(62+i), 30)
		for j := range tr.Packets {
			tr.Packets[j].Time += float64(12 * i)
		}
		runs[name] = tr
	}
	return Pack(runs)
}

// waitSettled blocks until a durable monitor fed n frames has logged all of
// them and owes no snapshot: the state directory then stays as it is until
// more frames arrive.
func waitSettled(t *testing.T, d *Durability, n uint64) {
	t.Helper()
	for i := 0; i < 12000; i++ {
		st := d.Status().(DurabilityStatus)
		if st.LastSnapshotSeq+uint64(st.SnapshotAgeFrames) == n && st.SnapshotAgeFrames < d.opts.SnapshotEvery {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("durable monitor did not settle at %d frames: %+v", n, d.Status())
}

// copyDir copies the regular files of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// snapsOnDisk returns a state directory's snapshot paths, oldest first.
func snapsOnDisk(t *testing.T, dir string) []string {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

func readSnapshot(t *testing.T, path string) *Snapshot {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recoverAndFinish recovers a state directory, re-feeds the recording past
// Resume and returns the drained output.
func recoverAndFinish(t *testing.T, dir string, man *media.Manifest, frames []Frame) ([]byte, *Recovered) {
	t.Helper()
	d, err := OpenDurability(dir, DurabilityOptions{segmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rec := Recover(d, replayOpts(man, false))
	feedFrom(rec.Monitor, frames, rec.Resume)
	return marshalResults(t, rec.Monitor.Drain()), rec
}

// TestSnapshotRetentionAndAnchoring pins the cursor snapshot: the WAL keeps
// exactly the frames from the oldest live flow's first one, recovery
// re-taps them to the batch bytes, an older snapshot the WAL still covers
// is a valid fallback, and one it no longer covers is skipped as
// unanchored before the loud no-snapshot refusal.
func TestSnapshotRetentionAndAnchoring(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	frames := staggeredFrames(t, man)
	want := marshalResults(t, Batch(frames, replayOpts(man, false)))
	closeAt := -1
	for i, f := range frames {
		if f.Flow == "early" && f.Close {
			closeAt = i
		}
	}
	const every = 512
	if closeAt < 3*every || closeAt+3*every >= len(frames) {
		t.Fatalf("early closes at frame %d of %d; the fixture needs room around it", closeAt, len(frames))
	}

	dir := t.TempDir()
	d, err := OpenDurability(dir, DurabilityOptions{segmentBytes: 64 << 10, SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	committed := make(chan string, 3)
	opts := replayOpts(man, false)
	opts.OnResult = func(r Result) { committed <- r.Flow }
	rec := Recover(d, opts)
	mon := rec.Monitor

	// While "early" is live, snapshots anchor at frame 1; keep one.
	feedFrom(mon, frames[:3*every], 0)
	waitSettled(t, d, 3*every)
	snaps := snapsOnDisk(t, dir)
	unanchoredPath := snaps[len(snaps)-1]
	unanchored, err := os.ReadFile(unanchoredPath)
	if err != nil {
		t.Fatal(err)
	}
	if s := readSnapshot(t, unanchoredPath); s.keepFrom() != 1 {
		t.Fatalf("snapshot while early is live keeps from %d, want 1", s.keepFrom())
	}

	// Past early's commit, two more snapshots land with middle and late
	// live; the WAL before middle's first frame goes.
	feedFrom(mon, frames[:closeAt+1], 3*every)
	if flow := <-committed; flow != "early" {
		t.Fatalf("first commit %q, want early", flow)
	}
	// Keep the state right after the first snapshot past the commit: the
	// newest snapshot keeps from middle's first frame, the older one still
	// from frame 1, so the WAL must still start at frame 1.
	pos := closeAt + 1
	var acrossCommit string
	for acrossCommit == "" {
		waitSettled(t, d, uint64(pos))
		snaps := snapsOnDisk(t, dir)
		if s := readSnapshot(t, snaps[len(snaps)-1]); s.Seq > uint64(closeAt+1) && s.keepFrom() > 1 {
			if older := readSnapshot(t, snaps[len(snaps)-2]); older.keepFrom() != 1 {
				t.Fatalf("older snapshot at %d keeps from %d, want 1", older.Seq, older.keepFrom())
			}
			acrossCommit = copyDir(t, dir)
			break
		}
		feedFrom(mon, frames[:pos+every], uint64(pos))
		pos += every
	}
	k := closeAt + 1 + 3*every
	feedFrom(mon, frames[:k], uint64(pos))
	waitSettled(t, d, uint64(k))
	image := copyDir(t, dir)
	feedFrom(mon, frames, uint64(k))
	if got := marshalResults(t, mon.Drain()); !bytes.Equal(got, want) {
		t.Fatalf("uninterrupted durable run diverged from batch:\n%s\nbatch:\n%s", got, want)
	}

	snaps = snapsOnDisk(t, image)
	if len(snaps) != snapKeep {
		t.Fatalf("%d snapshots on disk, want %d", len(snaps), snapKeep)
	}
	newest, older := readSnapshot(t, snaps[1]), readSnapshot(t, snaps[0])
	var middleFirst uint64
	for i, f := range frames {
		if f.Flow == "middle" {
			middleFirst = uint64(i + 1)
			break
		}
	}
	for _, s := range []*Snapshot{newest, older} {
		if len(s.Flows) != 2 || s.keepFrom() != middleFirst || s.Seq <= uint64(closeAt+1) {
			t.Fatalf("snapshot at %d: flows %+v keepFrom %d, want middle and late from frame %d, taken after early's commit",
				s.Seq, s.Flows, s.keepFrom(), middleFirst)
		}
	}
	var first uint64
	for _, seg := range walSegsOnDisk(t, image) {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, _, reason := scanRecords(data)
		if reason != "" || len(recs) == 0 {
			t.Fatalf("%s: %d records, %q", seg, len(recs), reason)
		}
		if recs[len(recs)-1].seq < middleFirst {
			t.Fatalf("%s holds only frames %d..%d, all before the oldest live flow's first frame %d",
				filepath.Base(seg), recs[0].seq, recs[len(recs)-1].seq, middleFirst)
		}
		if first == 0 {
			first = recs[0].seq
		}
	}
	if first <= 1 || first > middleFirst {
		t.Fatalf("wal starts at frame %d, want past 1 and at most %d", first, middleFirst)
	}

	t.Run("recover", func(t *testing.T) {
		got, rec := recoverAndFinish(t, copyDir(t, image), man, frames)
		if !bytes.Equal(got, want) {
			t.Fatalf("recovered output diverged from batch:\n%s\nbatch:\n%s", got, want)
		}
		if rec.Resume != uint64(k) || len(rec.Warnings) != 0 {
			t.Fatalf("Resume %d, warnings %v; want %d and none", rec.Resume, rec.Warnings, k)
		}
	})
	smashNewest := func(t *testing.T, dir string) {
		t.Helper()
		path := filepath.Join(dir, filepath.Base(snaps[1]))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("anchored fallback", func(t *testing.T) {
		dir := copyDir(t, image)
		smashNewest(t, dir)
		got, rec := recoverAndFinish(t, dir, man, frames)
		if !bytes.Equal(got, want) {
			t.Fatalf("fallback output diverged from batch:\n%s\nbatch:\n%s", got, want)
		}
		if len(rec.Warnings) != 1 || rec.Warnings[0].Code != "snapshot_corrupt" {
			t.Fatalf("warnings = %v, want one snapshot_corrupt", rec.Warnings)
		}
	})
	t.Run("anchored fallback across a commit", func(t *testing.T) {
		dir := copyDir(t, acrossCommit)
		snaps := snapsOnDisk(t, dir)
		if segs := walSegsOnDisk(t, dir); len(segs) == 0 || filepath.Base(segs[0]) != seqName(walSegPrefix, 1, walSegSuffix) {
			t.Fatalf("%d wal segments, want the first one to start at frame 1", len(segs))
		}
		data, err := os.ReadFile(snaps[len(snaps)-1])
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(snaps[len(snaps)-1], data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, rec := recoverAndFinish(t, dir, man, frames)
		if !bytes.Equal(got, want) {
			t.Fatalf("fallback output diverged from batch:\n%s\nbatch:\n%s", got, want)
		}
		if len(rec.Warnings) != 1 || rec.Warnings[0].Code != "snapshot_corrupt" {
			t.Fatalf("warnings = %v, want one snapshot_corrupt", rec.Warnings)
		}
	})
	t.Run("unanchored refusal", func(t *testing.T) {
		dir := copyDir(t, image)
		smashNewest(t, dir)
		if err := os.Remove(filepath.Join(dir, filepath.Base(snaps[0]))); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(unanchoredPath)), unanchored, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurability(dir, DurabilityOptions{segmentBytes: 64 << 10})
		if err == nil {
			d.close()
			t.Fatal("recovery accepted a wal no snapshot anchors")
		}
		msg := err.Error()
		if !strings.Contains(msg, "no usable snapshot") || !strings.Contains(msg, "snapshot_unanchored") ||
			strings.Index(msg, "snapshot_corrupt") > strings.Index(msg, "snapshot_unanchored") {
			t.Fatalf("err = %v, want the refusal listing snapshot_corrupt then snapshot_unanchored", err)
		}
	})
}

// TestSnapshotCarriesStaleFlow pins the WAL retention bound: a flow that
// goes silent without a close stays live until the drain, and once a flow
// is older than anchorLag snapshot intervals the snapshot carries its
// packets, so the WAL on disk and the frames recovery decodes stay within
// the bound however long the stream runs — and recovery, from the newest
// snapshot or its fallback, still reproduces the batch bytes.
func TestSnapshotCarriesStaleFlow(t *testing.T) {
	testleak.Check(t)
	man := testManifest(t, session.SH)
	const staleLen = 40
	var frames []Frame
	var staleSeen int
	var staleLast uint64
	for _, f := range staggeredFrames(t, man) {
		if f.Flow == "early" {
			if staleSeen == staleLen {
				continue // early goes silent: no more packets, no close
			}
			staleSeen++
			staleLast = uint64(len(frames) + 1)
		}
		frames = append(frames, f)
	}
	var lateFirst uint64
	for i, f := range frames {
		if f.Flow == "late" {
			lateFirst = uint64(i + 1)
			break
		}
	}
	want := marshalResults(t, Batch(frames, replayOpts(man, false)))
	// Stop where early and middle are past the lag and late is not: the
	// newest snapshot then carries two flows and anchors one.
	const every = 128
	bound := (anchorLag + 4) * every
	k := int(lateFirst) + anchorLag*every/2
	if k <= bound || k >= len(frames) {
		t.Fatalf("fixture: %d frames, late starts at %d; the bound %d needs a longer prefix", len(frames), lateFirst, bound)
	}

	dir := t.TempDir()
	opts := DurabilityOptions{segmentBytes: 16 << 10, SnapshotEvery: every}
	d, err := OpenDurability(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mon := Recover(d, replayOpts(man, false)).Monitor
	feedFrom(mon, frames[:k], 0)
	waitSettled(t, d, uint64(k))
	image := copyDir(t, dir)
	feedFrom(mon, frames, uint64(k))
	if got := marshalResults(t, mon.Drain()); !bytes.Equal(got, want) {
		t.Fatalf("uninterrupted durable run diverged from batch:\n%s\nbatch:\n%s", got, want)
	}

	walFrames := 0
	for _, seg := range walSegsOnDisk(t, image) {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, _, _ := scanRecords(data)
		walFrames += len(recs)
	}
	t.Logf("%d frames fed, wal holds %d (bound %d)", k, walFrames, bound)
	if walFrames > bound {
		t.Fatalf("wal holds %d frames after %d, want at most %d", walFrames, k, bound)
	}

	snaps := snapsOnDisk(t, image)
	newest := readSnapshot(t, snaps[len(snaps)-1])
	if fl := newest.Flows; len(fl) != 3 || fl[0].Name != "early" || fl[1].Name != "late" || fl[2].Name != "middle" ||
		len(fl[0].Carried) != staleLen || fl[0].FirstSeq != 1 || fl[0].LastSeq != staleLast ||
		fl[1].Carried != nil || fl[1].FirstSeq != lateFirst || len(fl[2].Carried) == 0 {
		var got []string
		for _, fl := range newest.Flows {
			got = append(got, fmt.Sprintf("%s frames %d..%d, %d carried", fl.Name, fl.FirstSeq, fl.LastSeq, len(fl.Carried)))
		}
		t.Fatalf("newest snapshot flows: %v; want early carried (%d packets, frames 1..%d), late anchored at %d, middle carried",
			got, staleLen, staleLast, lateFirst)
	}

	recoverFrom := func(t *testing.T, dir string) ([]byte, *Recovered) {
		t.Helper()
		d, err := OpenDurability(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.frames) > bound {
			t.Fatalf("recovery decoded %d wal frames, want at most %d", len(d.frames), bound)
		}
		rec := Recover(d, replayOpts(man, false))
		feedFrom(rec.Monitor, frames, rec.Resume)
		return marshalResults(t, rec.Monitor.Drain()), rec
	}
	t.Run("recover", func(t *testing.T) {
		got, rec := recoverFrom(t, copyDir(t, image))
		if !bytes.Equal(got, want) {
			t.Fatalf("recovered output diverged from batch:\n%s\nbatch:\n%s", got, want)
		}
		if rec.Resume != uint64(k) || len(rec.Warnings) != 0 {
			t.Fatalf("Resume %d, warnings %v; want %d and none", rec.Resume, rec.Warnings, k)
		}
	})
	t.Run("fallback", func(t *testing.T) {
		dir := copyDir(t, image)
		path := filepath.Join(dir, filepath.Base(snaps[len(snaps)-1]))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, rec := recoverFrom(t, dir)
		if !bytes.Equal(got, want) {
			t.Fatalf("fallback output diverged from batch:\n%s\nbatch:\n%s", got, want)
		}
		if len(rec.Warnings) != 1 || rec.Warnings[0].Code != "snapshot_corrupt" {
			t.Fatalf("warnings = %v, want one snapshot_corrupt", rec.Warnings)
		}
	})
}

// --- subprocess crash matrix -------------------------------------------

const (
	envCrashHelper = "STREAM_CRASH_HELPER"
	envCrashSpec   = "STREAM_CRASHPOINT"
	envStateDir    = "STREAM_STATE_DIR"
	envManifest    = "STREAM_MANIFEST"
	envFrames      = "STREAM_FRAMES"
	envOut         = "STREAM_OUT"
)

// TestCrashHelper is the re-exec target of TestCrashMatrix: a miniature
// durable replay daemon (open state dir, recover, feed the recording past
// Resume, drain, write results). Armed via STREAM_CRASHPOINT it dies with
// crashpoint.ExitCode at the configured boundary.
func TestCrashHelper(t *testing.T) {
	if os.Getenv(envCrashHelper) == "" {
		t.Skip("crash-matrix helper (driven by TestCrashMatrix)")
	}
	if err := crashpoint.Arm(os.Getenv(envCrashSpec)); err != nil {
		t.Fatal(err)
	}
	man, err := media.LoadManifestFile(os.Getenv(envManifest), "")
	if err != nil {
		t.Fatal(err)
	}
	ff, err := os.Open(os.Getenv(envFrames))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := ReadFrames(ff)
	ff.Close()
	if err != nil {
		t.Fatal(err)
	}
	// SnapshotEvery is not a multiple of frameBatch, so snapshots land
	// inside a batch, whose later frames are logged but not yet applied:
	// a snapshot ahead of the WAL would be unanchored after the crash.
	d, err := OpenDurability(os.Getenv(envStateDir), DurabilityOptions{
		SyncPolicy: SyncInterval, SyncEvery: 64, SnapshotEvery: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv(envCrashSpec) == "" && (d.snap == nil || len(d.snap.Flows) == 0) {
		// The recovery run: the crash came after a snapshot carrying a
		// live flow was published, so restore must re-tap it from the WAL.
		t.Fatalf("recovered snapshot %+v carries no live flow", d.snap)
	}
	rec := Recover(d, replayOpts(man, false))
	feedFrom(rec.Monitor, frames, rec.Resume)
	results := rec.Monitor.Drain()
	out, err := os.Create(os.Getenv(envOut))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteResults(out, results); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMatrix is the tentpole gate in miniature: for every crashpoint
// in the inventory, kill a durable replay at that boundary, recover against
// the same state directory, and require output byte-identical to an
// uninterrupted run over the same frames.
func TestCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 2 subprocesses per crashpoint")
	}
	man := testManifest(t, session.SH)
	// Without alpha's close marker alpha stays live until the drain, so
	// every snapshot carries a live flow, up to the drain.pre_snapshot point.
	var frames []Frame
	for _, f := range durTestFrames(t, man) {
		if !(f.Flow == "alpha" && f.Close) {
			frames = append(frames, f)
		}
	}
	golden := marshalResults(t, replayThrough(t, frames, replayOpts(man, false)))

	fixtures := t.TempDir()
	manifestPath := filepath.Join(fixtures, "man.json")
	if err := man.SaveJSON(manifestPath); err != nil {
		t.Fatal(err)
	}
	framesPath := filepath.Join(fixtures, "frames.jsonl")
	ff, err := os.Create(framesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrames(ff, frames); err != nil {
		t.Fatal(err)
	}
	if err := ff.Close(); err != nil {
		t.Fatal(err)
	}

	// Mid-stream hits for the per-frame points; the second snapshot write,
	// so one snapshot is already published; first hit for the rest. The
	// per-batch point fires at least len(frames)/frameBatch times, so half
	// that always fires; batches run full once the feed outpaces the
	// control loop, so it lands near the middle of the stream.
	hits := map[string]int{
		"wal.pre_append":      len(frames) / 2,
		"wal.post_append":     len(frames) / 2,
		"wal.post_write":      len(frames) / (2 * frameBatch),
		"snapshot.pre_rename": 2,
	}

	runHelper := func(t *testing.T, stateDir, outPath, spec string) (int, string) {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrashHelper$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			envCrashHelper+"=1", envCrashSpec+"="+spec,
			envStateDir+"="+stateDir, envManifest+"="+manifestPath,
			envFrames+"="+framesPath, envOut+"="+outPath,
		)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = &buf
		err := cmd.Run()
		code := 0
		if err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("running helper: %v", err)
			}
			code = ee.ExitCode()
		}
		return code, buf.String()
	}

	for _, pt := range crashpoint.Points {
		t.Run(pt, func(t *testing.T) {
			stateDir := t.TempDir()
			outPath := filepath.Join(stateDir, "out.jsonl")
			spec := pt
			if n := hits[pt]; n > 1 {
				spec = fmt.Sprintf("%s@%d", pt, n)
			}
			code, log := runHelper(t, stateDir, outPath, spec)
			if code != crashpoint.ExitCode {
				t.Fatalf("crash run exited %d, want %d\n%s", code, crashpoint.ExitCode, log)
			}
			code, log = runHelper(t, stateDir, outPath, "")
			if code != 0 {
				t.Fatalf("recovery run exited %d\n%s", code, log)
			}
			got, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Fatalf("recovered output diverged from uninterrupted run:\nrecovered:\n%s\ngolden:\n%s", got, golden)
			}
		})
	}
}
