package stream

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"csi/internal/capture"
	"csi/internal/media"
	"csi/internal/obs"
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
	for i := 0; i < k; i++ {
		d.appendFrame(uint64(i+1), &frames[i])
	}
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

	d, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		d.appendFrame(uint64(i+1), &frames[i])
	}
	segs, _ := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"+walSegSuffix))
	sortSegPaths(segs)
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

	d2, err := OpenDurability(dir, DurabilityOptions{SyncPolicy: SyncAlways, SegmentBytes: 4096})
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
	for i := 0; i < 3; i++ {
		d.appendFrame(uint64(i+1), &frames[i])
	}
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

// TestSnapshotCorruptFallback pins the snapshot chain: a damaged newest
// snapshot falls back to its predecessor with a structured warning; with
// every snapshot damaged, recovery proceeds from nothing.
func TestSnapshotCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{2, 4} {
		buf, err := encodeSnapshot(nil, &Snapshot{Version: snapshotVersion, Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := writeSnapshotFile(dir, seq, buf); err != nil {
			t.Fatal(err)
		}
	}
	smash := func(seq uint64) {
		path := filepath.Join(dir, snapName(seq))
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
		Flows:  []FlowSnap{{Name: "c", LastSeq: 16}},
	}
	buf, err := encodeSnapshot(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != s.Seq || got.FinalSeq != s.FinalSeq || got.VNow != s.VNow ||
		len(got.Closed) != 2 || len(got.Flows) != 1 || got.Flows[0].Name != "c" {
		t.Fatalf("round trip = %+v", got)
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
	d, err := OpenDurability(os.Getenv(envStateDir), DurabilityOptions{
		SyncPolicy: SyncInterval, SyncEvery: 64, SnapshotEvery: 512,
	})
	if err != nil {
		t.Fatal(err)
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
	frames := durTestFrames(t, man)
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

	// Mid-stream hits for the per-frame points; first hit for the rest.
	hits := map[string]int{
		"wal.pre_append":  len(frames) / 2,
		"wal.post_append": len(frames) / 2,
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
