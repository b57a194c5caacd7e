package stream

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"csi/internal/capture"
	"csi/internal/core"
	"csi/internal/packet"
)

// A Snapshot is the monitor's complete output-relevant state at a frame
// sequence boundary (DESIGN.md §13): everything recovery needs so that
// restoring it and replaying the WAL suffix reproduces an uninterrupted
// run byte for byte. Per-flow state is stored as the flow's accepted
// packets in arrival order — restore re-taps them through a fresh
// capture.Trace, rebuilding the exact trace (and recomputing the derived
// counters) the live monitor held. Solve-cadence state (provisional
// inferences, estimate memos, quarantine failure streaks) is deliberately
// absent: provisional solves never change final results, so recovery
// restarts them from scratch.
//
// Snapshots are only taken at quiescent points — no flow finalizing, no
// commit slot outstanding — so the finalization sequence, commit cursor and
// committed results collapse into one number plus the results themselves.
type Snapshot struct {
	Version  int        `json:"version"`
	Seq      uint64     `json:"seq"`       // last applied frame sequence
	FinalSeq uint64     `json:"final_seq"` // == commits emitted at a quiescent point
	VNow     float64    `json:"vnow"`      // virtual clock (max packet timestamp)
	Closed   []string   `json:"closed,omitempty"`
	Flows    []FlowSnap `json:"flows,omitempty"`
	Results  []Result   `json:"results,omitempty"`
}

// FlowSnap is one live flow's durable state.
type FlowSnap struct {
	Name    string        `json:"name"`
	LastSeq uint64        `json:"last_seq"`
	Packets []packet.View `json:"packets"`
}

const (
	snapshotVersion = 1
	snapPrefix      = "snap-"
	snapSuffix      = ".snap"
	snapKeep        = 2 // newest snapshots retained (corruption fallback)
)

// snapMagic seals the snapshot file header; bump with snapshotVersion.
var snapMagic = [8]byte{'C', 'S', 'I', 'S', 'N', 'A', 'P', '1'}

// snapHeaderBytes is the file header: magic, u32le CRC32, u64le length.
const snapHeaderBytes = len(snapMagic) + 12

func snapName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix)
}

// snapSeqOf extracts the sequence a snapshot file name encodes.
func snapSeqOf(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// encodeSnapshot appends the durable bytes to buf: magic, CRC32 and length
// over the JSON payload.
func encodeSnapshot(buf []byte, s *Snapshot) ([]byte, error) {
	buf = append(buf, snapMagic[:]...)
	buf = append(buf, make([]byte, snapHeaderBytes-len(snapMagic))...)
	buf, err := appendSnapshot(buf, s)
	if err != nil {
		return buf, fmt.Errorf("stream: encoding snapshot: %w", err)
	}
	payload := buf[snapHeaderBytes:]
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(buf[12:], uint64(len(payload)))
	return buf, nil
}

// appendSnapshot appends json.Marshal(s)'s exact bytes, encoding packets
// with the frame codec (codec.go); only Results goes through
// encoding/json.
func appendSnapshot(b []byte, s *Snapshot) ([]byte, error) {
	start := len(b)
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, int64(s.Version), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, s.Seq, 10)
	b = append(b, `,"final_seq":`...)
	b = strconv.AppendUint(b, s.FinalSeq, 10)
	b = append(b, `,"vnow":`...)
	b, ok := appendFloat(b, s.VNow)
	if len(s.Closed) > 0 {
		b = append(b, `,"closed":[`...)
		for i, name := range s.Closed {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, name)
		}
		b = append(b, ']')
	}
	if len(s.Flows) > 0 {
		b = append(b, `,"flows":[`...)
		for i := 0; ok && i < len(s.Flows); i++ {
			fl := &s.Flows[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = appendString(b, fl.Name)
			b = append(b, `,"last_seq":`...)
			b = strconv.AppendUint(b, fl.LastSeq, 10)
			b = append(b, `,"packets":`...)
			if fl.Packets == nil {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for j := 0; ok && j < len(fl.Packets); j++ {
					if j > 0 {
						b = append(b, ',')
					}
					b, ok = appendView(b, &fl.Packets[j])
				}
				b = append(b, ']')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if ok && len(s.Results) > 0 {
		res, err := json.Marshal(s.Results)
		ok = err == nil
		b = append(b, `,"results":`...)
		b = append(b, res...)
	}
	if !ok {
		return marshalFallback(b[:start], s)
	}
	return append(b, '}'), nil
}

// decodeSnapshot verifies and parses a snapshot file's bytes.
func decodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < snapHeaderBytes {
		return nil, fmt.Errorf("stream: snapshot too short (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != snapMagic {
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
	path := filepath.Join(dir, snapName(seq))
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
// returns the first that verifies. Corrupt or unreadable candidates are
// skipped with a structured warning — an interrupted snapshot write must
// fall back to its predecessor, not kill recovery.
func loadLatestSnapshot(paths []string) (*Snapshot, []core.Warning) {
	var warns []core.Warning
	for i := len(paths) - 1; i >= 0; i-- {
		data, err := os.ReadFile(paths[i])
		if err == nil {
			var s *Snapshot
			if s, err = decodeSnapshot(data); err == nil {
				return s, warns
			}
		}
		warns = append(warns, core.Warning{Code: "snapshot_corrupt",
			Detail: fmt.Sprintf("%s unusable (%v); falling back", filepath.Base(paths[i]), err)})
	}
	return nil, warns
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
// and has verified quiescence; the returned snapshot aliases live packet
// slices, which is safe because only the calling control goroutine ever
// mutates them.
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
	names := make([]string, 0, len(m.flows))
	for name := range m.flows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fs := m.flows[name]
		pkts := make([]packet.View, 0, len(fs.trace.Packets)+len(fs.pending))
		pkts = append(pkts, fs.trace.Packets...)
		pkts = append(pkts, fs.pending...)
		s.Flows = append(s.Flows, FlowSnap{Name: fs.name, LastSeq: fs.lastSeq, Packets: pkts})
	}
	return s
}

// restoreSnapshot seeds a just-constructed monitor (goroutines not yet
// started, so no locking) from a recovered snapshot. Re-tapping each flow's
// packets rebuilds the identical capture.Trace an uninterrupted run held,
// and the derived counters (bytes, lastTime) recompute to the same values
// handleFrame accumulated originally.
func (m *Monitor) restoreSnapshot(s *Snapshot) {
	m.seq = s.Seq
	m.vnow = s.VNow
	m.finalSeq = s.FinalSeq
	m.commitNext = s.FinalSeq
	m.results = append(m.results, s.Results...)
	for _, name := range s.Closed {
		m.closed[name] = true
	}
	var buffered float64
	for i := range s.Flows {
		fsn := &s.Flows[i]
		tr := capture.NewTrace()
		fs := &flowState{name: fsn.Name, trace: tr, tap: tr.Tap(), memo: core.NewEstimateMemo(), lastSeq: fsn.LastSeq}
		for j := range fsn.Packets {
			v := fsn.Packets[j]
			fs.tap(v, v.Time)
			fs.packets++
			fs.bytes += frameBytes(&v)
			if v.Time > fs.lastTime {
				fs.lastTime = v.Time
			}
		}
		buffered += float64(fs.bytes)
		m.flows[fs.name] = fs
		m.liveFlows++
	}
	m.gActive.Set(float64(m.liveFlows))
	m.gBuffer.Set(buffered)
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
	if d == nil || !d.snapshotDue() {
		return
	}
	m.mu.Lock()
	if m.draining || !m.quiescentLocked() {
		m.mu.Unlock()
		return
	}
	s := m.snapshotLocked()
	m.mu.Unlock()
	d.writeSnapshot(s)
}
