package stream

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/packet"
)

// A Snapshot is the monitor's output-relevant state at a frame sequence
// boundary (DESIGN.md §13), minus everything the WAL can rebuild: restoring
// it and replaying the WAL from its keepFrom reproduces an uninterrupted run
// byte for byte. A live flow is stored as its name and the sequence of the
// frame that created it; restore re-taps that flow's WAL frames from there
// through Seq into a fresh capture.Trace, rebuilding the exact trace (and
// recomputing the derived counters) the live monitor held. A flow older
// than anchorLag carries its packets instead, so no flow, however long it
// lives or stays silent, pins the WAL. Solve-cadence state (provisional
// inferences, quarantine failure streaks) is deliberately
// absent: provisional solves never change final results, so recovery
// restarts them from scratch.
//
// Snapshots are only taken at quiescent points — no flow finalizing, no
// commit slot outstanding — so the finalization sequence, commit cursor and
// committed results collapse into one number plus the results themselves,
// and every frame of a live flow's name from its FirstSeq on is one of its
// accepted packets (a committed name is in Closed and never created again).
type Snapshot struct {
	Version  int        `json:"version"`
	Seq      uint64     `json:"seq"`       // last applied frame sequence
	FinalSeq uint64     `json:"final_seq"` // == commits emitted at a quiescent point
	VNow     float64    `json:"vnow"`      // virtual clock (max packet timestamp)
	Closed   []string   `json:"closed,omitempty"`
	Flows    []FlowSnap `json:"flows,omitempty"`
	Results  []Result   `json:"results,omitempty"`
}

// FlowSnap is one live flow's durable state: a cursor into the WAL or, for
// a flow older than anchorLag, its packets in arrival order and LRU key.
type FlowSnap struct {
	Name     string        `json:"name"`
	FirstSeq uint64        `json:"first_seq"` // sequence of the frame that created the flow
	LastSeq  uint64        `json:"last_seq,omitempty"`
	Carried  []packet.View `json:"carried,omitempty"`
}

// keepFrom is the first WAL sequence the snapshot needs: the oldest
// WAL-anchored live flow's first frame, or Seq+1 when there is none.
func (s *Snapshot) keepFrom() uint64 {
	from := s.Seq + 1
	for _, fl := range s.Flows {
		if fl.Carried == nil {
			from = min(from, fl.FirstSeq)
		}
	}
	return from
}

// anchorLag bounds WAL retention, in snapshot intervals: a flow created
// more than anchorLag*SnapshotEvery frames before a snapshot is carried in
// it, so the WAL (and what recovery decodes) never reaches back further.
const anchorLag = 64

const (
	snapshotVersion = 2
	snapPrefix      = "snap-"
	snapSuffix      = ".snap"
	snapKeep        = 2 // newest snapshots retained (corruption fallback)
)

// snapMagic seals the snapshot file header; its last byte is the format
// version, bumped with snapshotVersion.
var snapMagic = [8]byte{'C', 'S', 'I', 'S', 'N', 'A', 'P', '0' + snapshotVersion}

// errSnapshotVersion marks a snapshot written in another format version:
// recovery refuses it rather than skipping it as corrupt, since falling
// back past it would re-emit the results it carries.
var errSnapshotVersion = errors.New("snapshot format version mismatch")

// snapHeaderBytes is the file header: magic, u32le CRC32, u64le length.
const snapHeaderBytes = len(snapMagic) + 12

// encodeSnapshot renders the durable bytes: magic, CRC32 and length over
// the JSON payload.
func encodeSnapshot(s *Snapshot) ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("stream: encoding snapshot: %w", err)
	}
	buf := make([]byte, 0, snapHeaderBytes+len(payload))
	buf = append(buf, snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	return append(buf, payload...), nil
}

// decodeSnapshot verifies and parses a snapshot file's bytes.
func decodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < snapHeaderBytes {
		return nil, fmt.Errorf("stream: snapshot too short (%d bytes)", len(data))
	}
	if magic := [8]byte(data[:8]); magic != snapMagic {
		if [7]byte(magic[:7]) == [7]byte(snapMagic[:7]) {
			return nil, fmt.Errorf("stream: %w (file is version %c, this build reads only version %d)",
				errSnapshotVersion, magic[7], snapshotVersion)
		}
		return nil, fmt.Errorf("stream: bad snapshot magic")
	}
	sum := binary.LittleEndian.Uint32(data[8:])
	ln := binary.LittleEndian.Uint64(data[12:])
	payload := data[snapHeaderBytes:]
	if ln != uint64(len(payload)) {
		return nil, fmt.Errorf("stream: snapshot length mismatch (header %d, body %d)", ln, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("stream: snapshot checksum mismatch")
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("stream: decoding snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("stream: snapshot version %d (want %d)", s.Version, snapshotVersion)
	}
	return &s, nil
}

// writeSnapshotFile persists buf, the encoded snapshot at seq, atomically:
// temp file in the same directory, fsync, rename over the final name, fsync
// the directory. A crash before the rename leaves the previous snapshot
// authoritative; a crash after it leaves the new one — never a half-written
// file under the real name.
func writeSnapshotFile(dir string, seq uint64, buf []byte) (string, error) {
	path := filepath.Join(dir, seqName(snapPrefix, seq, snapSuffix))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("stream: creating snapshot temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("stream: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("stream: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("stream: closing snapshot temp: %w", err)
	}
	crashpointHere("snapshot.pre_rename")
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("stream: publishing snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	crashpointHere("snapshot.post_rename")
	return path, nil
}

// syncDir makes a rename durable against OS crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("stream: opening state dir for sync: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("stream: syncing state dir: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("stream: closing state dir: %w", cerr)
	}
	return nil
}

// loadLatestSnapshot tries the given snapshot paths newest-first and
// returns the first usable one: it verifies, and the salvaged WAL, whose
// records run from first through last (first > last when it is empty),
// holds every frame from its keepFrom through its Seq for restore to
// re-tap. Corrupt or unanchored candidates are skipped with a structured
// warning — an interrupted snapshot write must fall back to its
// predecessor, not kill recovery. A snapshot in another format version is
// an error instead: skipping it would re-emit the results it carries.
func loadLatestSnapshot(paths []string, first, last uint64) (*Snapshot, []core.Warning, error) {
	var warns []core.Warning
	for i := len(paths) - 1; i >= 0; i-- {
		name := filepath.Base(paths[i])
		data, err := os.ReadFile(paths[i])
		var s *Snapshot
		if err == nil {
			s, err = decodeSnapshot(data)
		}
		if errors.Is(err, errSnapshotVersion) {
			return nil, warns, fmt.Errorf("%w in %s; recover it with the build that wrote it, or start from an empty state dir", err, name)
		}
		if err != nil {
			warns = append(warns, core.Warning{Code: "snapshot_corrupt",
				Detail: fmt.Sprintf("%s unusable (%v); falling back", name, err)})
			continue
		}
		if from := s.keepFrom(); from <= s.Seq && (first > from || last < s.Seq) {
			warns = append(warns, core.Warning{Code: "snapshot_unanchored",
				Detail: fmt.Sprintf("%s needs wal frames %d through %d, which the wal no longer holds; falling back", name, from, s.Seq)})
			continue
		}
		return s, warns, nil
	}
	return nil, warns, nil
}

// quiescentLocked reports whether the monitor is at a snapshot-safe point:
// every finalization decision ever taken has already committed, so the
// entire finalization state is the results slice. Caller holds m.mu.
func (m *Monitor) quiescentLocked() bool {
	if len(m.uncommitted) > 0 || m.finalSeq != m.commitNext {
		return false
	}
	for _, fs := range m.flows {
		if fs.finalizing {
			return false
		}
	}
	return true
}

// snapshotLocked captures the monitor's durable state. Caller holds m.mu
// and has verified quiescence.
func (m *Monitor) snapshotLocked() *Snapshot {
	s := &Snapshot{
		Version:  snapshotVersion,
		Seq:      m.seq,
		FinalSeq: m.finalSeq,
		VNow:     m.vnow,
		Results:  m.results,
	}
	for name := range m.closed {
		s.Closed = append(s.Closed, name)
	}
	sort.Strings(s.Closed)
	lag := uint64(anchorLag * m.opts.Durable.opts.SnapshotEvery)
	for _, fs := range m.flows {
		fl := FlowSnap{Name: fs.name, FirstSeq: fs.firstSeq}
		if fs.firstSeq+lag <= m.seq {
			fl.LastSeq = fs.lastSeq
			fl.Carried = slices.Concat(fs.trace.Packets, fs.pending)
		}
		s.Flows = append(s.Flows, fl)
	}
	sort.Slice(s.Flows, func(i, j int) bool { return s.Flows[i].Name < s.Flows[j].Name })
	return s
}

// restoreSnapshot seeds a monitor whose goroutines have not started (so no
// locking) from a recovered snapshot and frames, the WAL frames from its
// keepFrom through its Seq (frames[i] has sequence from+i). Each live
// flow's packets — carried in the snapshot, or else its frames — go
// through accept in arrival order, as in live ingest, rebuilding the
// identical capture.Trace an uninterrupted run held; lastSeq, bytes,
// lastTime and the buffer gauge recompute to the values handleFrame
// accumulated originally. vnow stays at the snapshot's: no restored packet
// is later than it.
func (m *Monitor) restoreSnapshot(s *Snapshot, frames []Frame, from uint64) {
	m.seq = s.Seq
	m.vnow = s.VNow
	m.finalSeq = s.FinalSeq
	m.commitNext = s.FinalSeq
	m.results = append(m.results, s.Results...)
	for _, name := range s.Closed {
		m.closed[name] = true
	}
	for _, fsn := range s.Flows {
		tr := capture.NewTrace()
		fs := &flowState{name: fsn.Name, trace: tr, tap: tr.Tap(), step1: core.NewStep1(), firstSeq: fsn.FirstSeq, lastSeq: fsn.LastSeq}
		m.flows[fsn.Name] = fs
		m.liveFlows++
		for i := range fsn.Carried {
			m.accept(fs, &fsn.Carried[i])
		}
	}
	for i := range frames {
		seq := from + uint64(i)
		fs := m.flows[frames[i].Flow]
		if fs == nil || seq < fs.firstSeq || seq <= fs.lastSeq {
			continue // a frame of a flow committed before the snapshot, or carried in it (lastSeq set)
		}
		fs.lastSeq = seq
		m.accept(fs, &frames[i].Packet)
	}
	m.gActive.Set(float64(m.liveFlows))
}

// maybeSnapshot runs on the control loop after each event: when the
// durability layer is due and the monitor is quiescent, capture and persist
// a snapshot, then let the WAL drop the covered prefix. Never during drain
// — the final snapshot owns that. Snapshot *timing* is allowed to vary run
// to run (it depends on solve scheduling only through quiescence); the
// replayed output is a function of the frame sequence alone, so recovery
// from any snapshot position converges to identical bytes.
func (m *Monitor) maybeSnapshot() {
	d := m.opts.Durable
	if d == nil || !d.snapshotDue(m.seq) {
		return
	}
	m.mu.Lock()
	if m.draining || !m.quiescentLocked() {
		m.mu.Unlock()
		return
	}
	s := m.snapshotLocked()
	m.mu.Unlock()
	d.writeSnapshot(s, false)
}
