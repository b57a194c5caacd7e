package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"csi/internal/core"
	"csi/internal/obs"
	"csi/internal/stream/crashpoint"
)

// crashpointHere marks a durability boundary for the crash-injection
// harness; disarmed it is one atomic load.
func crashpointHere(name string) { crashpoint.Here(name) }

// DurabilityOptions configures a state directory (csi-monitord -state-dir).
type DurabilityOptions struct {
	// SyncPolicy is SyncAlways, SyncInterval (default) or SyncNever.
	SyncPolicy string
	// SyncEvery is the fsync cadence in frames under SyncInterval
	// (default 256).
	SyncEvery int
	// SnapshotEvery attempts a snapshot after this many WAL'd frames
	// (default 4096); the snapshot lands at the next quiescent point.
	SnapshotEvery int
	// Obs receives the durability counters and gauges (stream.wal_*,
	// stream.snapshot*, stream.recoveries_total); nil disables.
	Obs *obs.Tracer

	// segmentBytes rotates WAL segments at this size (default 8 MiB); only
	// tests shrink it, to force rotation.
	segmentBytes int64
}

func (o DurabilityOptions) withDefaults() DurabilityOptions {
	if o.SyncPolicy == "" {
		o.SyncPolicy = SyncInterval
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = defaultSyncEvery
	}
	if o.segmentBytes <= 0 {
		o.segmentBytes = defaultSegmentBytes
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 4096
	}
	return o
}

// Durability is a monitor's crash-safety layer over one state directory:
// the frame WAL plus periodic snapshots (DESIGN.md §13). OpenDurability
// recovers whatever a previous process left behind; Recover seeds a monitor
// from it; the monitor then calls logBatch before applying each batch of
// new frames and writeSnapshot at quiescent points.
//
// All append/snapshot methods run on the monitor's control goroutine;
// Status is safe from any goroutine (the live /statusz plane).
type Durability struct {
	dir  string
	opts DurabilityOptions
	w    *wal
	keep uint64 // newest snapshot's keepFrom (1 without one), the fallback's WAL floor once a newer one lands

	// rec is the encode buffer for one WAL record (header, then the
	// frame's JSON), reused across appends (control goroutine only).
	rec []byte

	// Recovered state, consumed by Recover.
	snap      *Snapshot
	frames    []Frame // decoded WAL from keep: the snapshot's re-tap frames, then the replay tail
	baseSeq   uint64  // frames durable at open: max(snapshot seq, WAL last seq)
	restored  int     // results carried in the snapshot
	recovered bool    // open found prior durable state to recover
	warns     []core.Warning

	// mu guards the fields below (written by the control goroutine, read
	// by Status from the live plane).
	mu          sync.Mutex
	snaps       []string // live snapshot paths, oldest first
	sinceSync   int      // frames appended since the last fsync
	sinceSnap   int      // frames appended since the last snapshot
	lastSnapSeq uint64
	walBytes    int64
	failed      bool
	lastErr     string

	cWALBytes   *obs.Counter
	cWALAppends *obs.Counter
	cWALWrites  *obs.Counter
	cWALFsyncs  *obs.Counter
	cWALErrors  *obs.Counter
	cSnapshots  *obs.Counter
	cRecoveries *obs.Counter
	gSnapAge    *obs.Gauge
	gWALLag     *obs.Gauge
}

// OpenDurability opens (creating if needed) a state directory and recovers
// its contents: the newest usable snapshot (verified, and anchored: the WAL
// still holds the frames its live flows re-tap), the salvageable WAL from
// that snapshot's keepFrom on, and structured warnings for any damage
// survived along the way.
// This is the durability layer's only directory enumeration; wal.go and
// snapshot.go operate on the paths discovered here.
func OpenDurability(dir string, o DurabilityOptions) (*Durability, error) {
	o = o.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stream: creating state dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("stream: listing state dir: %w", err)
	}
	var segPaths, snapPaths []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// Leftover of an interrupted snapshot write: never renamed, so
			// never authoritative.
			_ = os.Remove(filepath.Join(dir, name))
		case isSeqName(name, walSegPrefix, walSegSuffix):
			segPaths = append(segPaths, filepath.Join(dir, name))
		case isSeqName(name, snapPrefix, snapSuffix):
			snapPaths = append(snapPaths, filepath.Join(dir, name))
		}
	}
	// os.ReadDir lists by name, which for seqName files is sequence order.

	reg := o.Obs.Metrics()
	d := &Durability{
		dir: dir, opts: o, snaps: snapPaths,
		cWALBytes:   reg.Counter("stream.wal_bytes"),
		cWALAppends: reg.Counter("stream.wal_appends"),
		cWALWrites:  reg.Counter("stream.wal_writes"),
		cWALFsyncs:  reg.Counter("stream.wal_fsyncs"),
		cWALErrors:  reg.Counter("stream.wal_errors"),
		cSnapshots:  reg.Counter("stream.snapshots_total"),
		cRecoveries: reg.Counter("stream.recoveries_total"),
		gSnapAge:    reg.Gauge("stream.snapshot_age_frames"),
		gWALLag:     reg.Gauge("stream.wal_lag_frames"),
	}

	w, torn, corrupt, err := openWAL(dir, segPaths, o.segmentBytes)
	if err != nil {
		return nil, err
	}
	d.w = w
	w.writes = d.cWALWrites
	refuse := func(err error) (*Durability, error) {
		_ = w.close()
		return nil, err
	}
	if corrupt != nil {
		d.warns = append(d.warns, core.Warning{Code: "wal_corrupt", Detail: corrupt.Error()})
	} else if torn {
		d.warns = append(d.warns, core.Warning{Code: "wal_truncated_tail",
			Detail: "incomplete record at the wal tail dropped (crash mid-append); the valid prefix replays"})
	}

	// The salvaged WAL holds consecutive records first..last; choosing the
	// snapshot needs only that range, so no record is read before the
	// chosen snapshot says where recovery starts.
	walHeld := len(w.segs) > 0
	first, last := uint64(1), uint64(0)
	if walHeld {
		first, last = w.segs[0].first, w.lastSeq
	}
	snap, snapWarns, err := loadLatestSnapshot(snapPaths, first, last)
	d.warns = append(d.warns, snapWarns...)
	if err != nil {
		return refuse(err)
	}
	var snapSeq uint64
	d.keep = 1
	if snap != nil {
		snapSeq = snap.Seq
		d.keep = snap.keepFrom()
		d.restored = len(snap.Results)
	}

	// Recovery reads the records from the snapshot's keepFrom on: the live
	// flows' re-tap frames through snapSeq (present: the snapshot is
	// anchored), then the replay tail. They must start at keepFrom.
	var nTail int
	if walHeld && last >= d.keep {
		nTail = int(last - max(first, d.keep) + 1)
	}
	if nTail > 0 && first > d.keep {
		if snap == nil {
			// No snapshot to anchor a WAL that starts past frame 1: the
			// prefix is unrecoverable and silently wrong output is worse
			// than refusing.
			err := fmt.Errorf("stream: wal starts at seq %d with no usable snapshot covering the prefix", first)
			for _, warn := range d.warns {
				err = fmt.Errorf("%w; %s: %s", err, warn.Code, warn.Detail)
			}
			return refuse(err)
		}
		// Disjoint tail past a snapshot with no live flows (cannot arise
		// from a crash; only external damage): the snapshot is
		// authoritative, the tail is unusable.
		d.warns = append(d.warns, core.Warning{Code: "wal_gap",
			Detail: fmt.Sprintf("wal resumes at seq %d but snapshot covers through %d; dropping %d unanchored records", first, snapSeq, nTail)})
		if err := w.truncateThrough(w.lastSeq); err != nil {
			return refuse(err)
		}
		w.lastSeq = snapSeq
		nTail = 0
	}

	d.snap = snap
	d.baseSeq = max(snapSeq, w.lastSeq)
	// Decode before any monitor starts, so baseSeq is final before a
	// goroutine reads it. Each frame is decoded over the previous one, so
	// a flow name or address repeated frame after frame is shared.
	var f Frame
	var canon bool
	var badSeq uint64
	var badErr error
	d.frames = make([]Frame, 0, nTail)
	if err := w.replay(d.keep, func(seq uint64, payload []byte) bool {
		if canon, badErr = decodeFrame(payload, &f, canon); badErr != nil {
			badSeq = seq
			return false
		}
		d.frames = append(d.frames, f)
		return true
	}); err != nil {
		return refuse(err)
	}
	if badErr != nil {
		// CRC-clean but unparseable: corruption the checksum cannot see.
		// Inside the re-tap range the snapshot's flows cannot be rebuilt;
		// past it, salvage stops here, the records behind it are
		// unanchored, and the on-disk log is no longer consistent with
		// what replays — degrade to non-durable.
		if badSeq <= snapSeq {
			return refuse(fmt.Errorf("stream: wal record seq %d undecodable (%v) but needed to rebuild the snapshot at seq %d", badSeq, badErr, snapSeq))
		}
		d.warns = append(d.warns, core.Warning{Code: "wal_corrupt",
			Detail: fmt.Sprintf("wal record seq %d undecodable (%v); dropping the rest of the tail", badSeq, badErr)})
		d.baseSeq = badSeq - 1
		d.fail(fmt.Errorf("stream: wal record seq %d undecodable", badSeq))
	}
	d.lastSnapSeq = snapSeq
	d.walBytes = w.totalBytes()
	d.sinceSnap = nTail - int(snapSeq+1-d.keep)
	if snap != nil || walHeld || torn || corrupt != nil {
		d.recovered = true
		d.cRecoveries.Inc()
	}
	d.cWALBytes.Add(d.walBytes)
	d.gSnapAge.Set(float64(d.sinceSnap))
	d.gWALLag.Set(0)
	return d, nil
}

// RestoredResults reports how many committed results the recovered snapshot
// carries — the daemon uses it to suppress re-emission of results already
// written before the crash.
func (d *Durability) RestoredResults() int { return d.restored }

// Warnings reports the damage survived during recovery (corrupt snapshots
// fallen past, torn or corrupt WAL tails salvaged).
func (d *Durability) Warnings() []core.Warning { return d.warns }

// fail degrades the layer to non-durable: the monitor keeps running (losing
// ingest over a full disk would turn a durability feature into an outage)
// but the condition is counted, surfaced on /statusz, and recovery from
// this directory is no longer promised.
func (d *Durability) fail(err error) {
	d.cWALErrors.Inc()
	d.mu.Lock()
	d.failed = true
	d.lastErr = err.Error()
	d.mu.Unlock()
}

// maxKeptRecordBuf caps the WAL record buffer a Durability keeps between
// appends: a real frame needs ~300 bytes, and one oversized frame (up to
// ~6 MiB escaped) should not stay resident.
const maxKeptRecordBuf = 64 << 10

// testHookFsync, when set, receives the sequence of the record each policy
// fsync follows. Never set outside tests.
var testHookFsync func(seq uint64)

// logBatch writes frames, which carry sequences first, first+1, ..., to the
// WAL before the monitor applies any of them: it seals every record into the
// WAL's staged buffer and writes the buffer with one call. The write splits
// only where a record triggers a policy fsync (the records through it are
// written and synced before the next is staged, so each fsync follows the
// same record as with one write per frame) and where a segment rotates.
// Frames at or below baseSeq are the recovery tail — already in the WAL or
// covered by the snapshot — and are skipped. Control goroutine only.
func (d *Durability) logBatch(first uint64, frames []Frame) {
	// failed and sinceSync are written only on the control goroutine, so
	// it reads them without d.mu; the lock orders its writes against Status.
	if d.failed {
		return
	}
	sinceSync, logged, nbytes := d.sinceSync, 0, 0
	var err error
	for i := range frames {
		seq := first + uint64(i)
		if seq <= d.baseSeq {
			continue
		}
		crashpointHere("wal.pre_append")
		var rec []byte
		if rec, err = appendFrame(append(d.rec[:0], make([]byte, walHeaderBytes)...), &frames[i]); err != nil {
			err = fmt.Errorf("stream: encoding wal frame: %w", err)
			break
		}
		if cap(rec) <= maxKeptRecordBuf {
			d.rec = rec
		}
		var n int
		if n, err = d.w.append(seq, rec); err != nil {
			break
		}
		logged++
		nbytes += n
		sinceSync++
		if d.opts.SyncPolicy == SyncAlways || (d.opts.SyncPolicy == SyncInterval && sinceSync >= d.opts.SyncEvery) {
			if err = d.w.sync(); err != nil {
				break
			}
			d.cWALFsyncs.Inc()
			sinceSync = 0
			if testHookFsync != nil {
				testHookFsync(seq)
			}
		}
		crashpointHere("wal.post_append")
	}
	if err == nil && logged > 0 {
		err = d.w.flush()
	}
	if err != nil {
		d.fail(err)
		return
	}
	if logged == 0 {
		return
	}
	crashpointHere("wal.post_write")
	d.cWALBytes.Add(int64(nbytes))
	d.cWALAppends.Add(int64(logged))
	d.mu.Lock()
	d.walBytes += int64(nbytes)
	d.sinceSync = sinceSync
	d.sinceSnap += logged
	d.gWALLag.Set(float64(d.sinceSync))
	d.gSnapAge.Set(float64(d.sinceSnap))
	d.mu.Unlock()
}

// snapshotDue reports whether enough frames were applied since the last
// snapshot, seq being the last applied; the monitor then snapshots at its
// next quiescent point. It counts applied frames, not logged ones: a
// snapshot taken inside a batch covers only the frames applied so far, and
// the rest of the batch must not make the next one due at once.
func (d *Durability) snapshotDue(seq uint64) bool {
	// Written only on the control goroutine, which calls this: no lock.
	return !d.failed && seq-d.lastSnapSeq >= uint64(d.opts.SnapshotEvery)
}

// writeSnapshot persists a snapshot, prunes old ones past snapKeep, and
// truncates the WAL prefix no retained snapshot needs any more: everything
// before the older keepFrom of this snapshot and its predecessor, so the
// predecessor stays an anchored fallback. A drain's final snapshot holds
// the whole state and drops the entire WAL. Control goroutine only.
func (d *Durability) writeSnapshot(s *Snapshot, final bool) {
	d.mu.Lock()
	failed := d.failed
	d.mu.Unlock()
	if failed {
		return
	}
	// The snapshot points into the WAL: make the frames it re-taps at
	// least as durable as the snapshot itself.
	if err := d.w.sync(); err != nil {
		d.fail(err)
		return
	}
	d.cWALFsyncs.Inc()
	buf, err := encodeSnapshot(s)
	if err != nil {
		d.fail(err)
		return
	}
	path, err := writeSnapshotFile(d.dir, s.Seq, buf)
	if err != nil {
		d.fail(err)
		return
	}
	d.mu.Lock()
	d.snaps = append(d.snaps, path)
	var prune []string
	for len(d.snaps) > snapKeep {
		prune = append(prune, d.snaps[0])
		d.snaps = d.snaps[1:]
	}
	d.mu.Unlock()
	for _, p := range prune {
		// Best effort: a lingering old snapshot is shadowed by name order.
		_ = os.Remove(p)
	}
	through := min(d.keep, s.keepFrom()) - 1
	if final {
		through = s.Seq
	}
	if err := d.w.truncateThrough(through); err != nil {
		d.fail(err)
		return
	}
	d.cSnapshots.Inc()
	d.keep = s.keepFrom()
	d.mu.Lock()
	d.lastSnapSeq = s.Seq
	// Frames logged but not yet applied (the rest of the batch the
	// snapshot was taken in, or recovery tail frames) are past the
	// snapshot: they still count toward the next one. The sync above
	// covered them, so no frame is owed an fsync.
	d.sinceSnap = int(max(d.baseSeq, d.w.lastSeq) - s.Seq)
	d.sinceSync = 0
	d.walBytes = d.w.totalBytes()
	d.gSnapAge.Set(float64(d.sinceSnap))
	d.gWALLag.Set(0)
	d.mu.Unlock()
}

// close seals the WAL (final fsync). Control goroutine only; idempotent.
func (d *Durability) close() {
	if err := d.w.close(); err != nil {
		d.fail(err)
	}
}

// DurabilityStatus is the /statusz durability section.
type DurabilityStatus struct {
	Dir               string `json:"dir"`
	SyncPolicy        string `json:"sync_policy"`
	SyncEvery         int    `json:"sync_every,omitempty"`
	WALBytes          int64  `json:"wal_bytes"`
	WALLagFrames      int    `json:"wal_lag_frames"`
	SnapshotAgeFrames int    `json:"snapshot_age_frames"`
	LastSnapshotSeq   uint64 `json:"last_snapshot_seq"`
	// Recoveries counts this process's recoveries from prior durable
	// state: 0 on a fresh start, 1 when the open salvaged anything (the
	// lifetime total across restarts is stream.recoveries_total scraped
	// externally).
	Recoveries       int    `json:"recoveries"`
	RestoredResults  int    `json:"restored_results,omitempty"`
	RecoveryWarnings int    `json:"recovery_warnings,omitempty"`
	Failed           bool   `json:"failed,omitempty"`
	LastError        string `json:"last_error,omitempty"`
}

// Status snapshots the durability state for the live /statusz page. Safe
// from any goroutine; reads no wall clock (ages are frame-based).
func (d *Durability) Status() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	recoveries := 0
	if d.recovered {
		recoveries = 1
	}
	return DurabilityStatus{
		Dir:               d.dir,
		SyncPolicy:        d.opts.SyncPolicy,
		SyncEvery:         d.opts.SyncEvery,
		WALBytes:          d.walBytes,
		WALLagFrames:      d.sinceSync,
		SnapshotAgeFrames: d.sinceSnap,
		LastSnapshotSeq:   d.lastSnapSeq,
		Recoveries:        recoveries,
		RestoredResults:   d.restored,
		RecoveryWarnings:  len(d.warns),
		Failed:            d.failed,
		LastError:         d.lastErr,
	}
}

// Recovered is the outcome of seeding a monitor from a state directory.
type Recovered struct {
	// Monitor is live and has already re-applied the WAL tail.
	Monitor *Monitor
	// Resume is the number of input frames the durable state already
	// covers: a replay feed skips this many frames and continues.
	Resume uint64
	// Replayed is how many WAL tail frames were re-applied past the
	// snapshot.
	Replayed int
	// RestoredResults is how many committed results the snapshot carried.
	RestoredResults int
	// Warnings is the damage survived during recovery.
	Warnings []core.Warning
}

// Recover starts a monitor seeded from the state directory: the snapshot
// restores the committed results and the flow table, whose flows re-tap
// their WAL frames, then the WAL tail frames are re-applied through the
// normal ingest path (blocking — recovery never sheds), batch by batch as
// the control loop takes them. New frames append to the WAL as usual; tail
// frames do not (they are already in it).
func Recover(d *Durability, opts Options) *Recovered {
	opts.Durable = d
	m := newMonitor(opts)
	tail := d.frames
	if s := d.snap; s != nil {
		n := s.Seq + 1 - d.keep
		m.restoreSnapshot(s, tail[:n], d.keep)
		tail = tail[n:]
	}
	d.frames = nil
	m.start()
	for i := range tail {
		m.enqueue(&tail[i], true) // pre-drain, control loop live: always delivered
	}
	return &Recovered{
		Monitor:         m,
		Resume:          d.baseSeq,
		Replayed:        len(tail),
		RestoredResults: d.restored,
		Warnings:        d.warns,
	}
}
