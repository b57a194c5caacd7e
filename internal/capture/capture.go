// Package capture is the gateway's packet capture: it records the
// monitor-visible view of every packet crossing the emulated path, plus the
// side-band ground truth the evaluation compares against (which CSI itself
// never reads).
package capture

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"csi/internal/media"
	"csi/internal/packet"
)

// Trace is the captured packet sequence of one test run.
type Trace struct {
	Packets []packet.View `json:"packets"`
	// SNI maps connection id to the server name observed during that
	// connection's handshake.
	SNI map[int]string `json:"sni"`
	// DNS maps server IP to hostname, learned from cleartext DNS responses
	// (the §5.3.1 fallback when SNI is absent).
	DNS map[string]string `json:"dns,omitempty"`
	// ServerIP maps connection id to its server address.
	ServerIP map[int]string `json:"server_ip,omitempty"`

	// byConn memoizes ByConn. The split is a pure function of Packets, so
	// it is computed once and shared by every subsequent caller (today the
	// SQ grouping pass of core.Estimate; the no-MUX path routes
	// tr.Packets by ConnID itself and never builds this second copy).
	// byConnLen records the Packets length the memo reflects; packets
	// tapped after that advance the memo *incrementally* on the next ByConn
	// call, never a full rebuild.
	//
	// byConnBuf is the private per-connection storage and may carry spare
	// append capacity; byConn holds the full-capacity-clipped views handed
	// to callers (a stray caller append must reallocate, never spill into
	// buffered growth room or a neighboring connection).
	byConnMu  sync.Mutex
	byConnBuf map[int][]packet.View
	byConn    map[int][]packet.View
	byConnLen int
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{SNI: make(map[int]string), DNS: make(map[string]string), ServerIP: make(map[int]string)}
}

// Tap returns the function to install on links (both directions feed the
// same trace; event ordering keeps it time-sorted).
func (t *Trace) Tap() func(v packet.View, now float64) {
	return func(v packet.View, now float64) {
		if v.SNI != "" {
			if _, ok := t.SNI[v.ConnID]; !ok {
				t.SNI[v.ConnID] = v.SNI
			}
		}
		if v.DNSQuery != "" && v.DNSAnswerIP != "" {
			t.DNS[v.DNSAnswerIP] = v.DNSQuery
		}
		if v.ServerIP != "" {
			if _, ok := t.ServerIP[v.ConnID]; !ok {
				t.ServerIP[v.ConnID] = v.ServerIP
			}
		}
		if len(t.Packets) == cap(t.Packets) {
			// Double rather than take append's 1.25× growth for large
			// slices, which copies a long trace about five times over.
			grown := make([]packet.View, len(t.Packets), max(1024, 2*cap(t.Packets)))
			copy(grown, t.Packets)
			t.Packets = grown
		}
		t.Packets = append(t.Packets, v)
	}
}

// ConnIDs returns the ids of connections belonging to the given host
// (suffix match: "example.com" matches "media.example.com"), mirroring CSI
// Step 1.1. Connections without an observed SNI fall back to the hostname
// their server IP resolved to in captured DNS traffic.
func (t *Trace) ConnIDs(hostSuffix string) []int {
	match := func(host string) bool { return hostMatches(host, hostSuffix) }
	seen := map[int]bool{}
	var out []int
	for id, host := range t.SNI {
		if match(host) {
			out = append(out, id)
			seen[id] = true
		}
	}
	// DNS/IP fallback for SNI-less connections.
	for id, ip := range t.ServerIP {
		if seen[id] {
			continue
		}
		if _, hasSNI := t.SNI[id]; hasSNI {
			continue // SNI present but for a different host
		}
		if host, ok := t.DNS[ip]; ok && match(host) {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// hostMatches reports whether host equals hostSuffix or is a subdomain of
// it. The boundary dot is required: "notexample.com" must not match
// "example.com".
func hostMatches(host, hostSuffix string) bool {
	return host == hostSuffix || strings.HasSuffix(host, "."+hostSuffix)
}

// FallbackConnIDs guesses the media connections when neither SNI nor DNS
// identified any — e.g. the monitor attached mid-session and missed both
// handshakes. down holds each connection's downlink wire bytes (the sum of
// Size over its Down packets; the caller keeps it as packets arrive). It
// keeps every connection with a positive id whose downlink byte total
// reaches max(256 KB, 5% of the busiest connection), skipping connections
// whose observed SNI names a different host. Returns ids sorted ascending;
// empty when the trace has no plausible media flow.
func (t *Trace) FallbackConnIDs(down map[int]int64, hostSuffix string) []int {
	var top int64
	// Max reduction: order independent, so no maporder concern.
	for id, b := range down {
		if id > 0 && b > top {
			top = b
		}
	}
	floor := int64(256 << 10)
	if th := top / 20; th > floor {
		floor = th
	}
	var out []int
	for id, b := range down {
		if id <= 0 || b < floor {
			continue
		}
		if sni, ok := t.SNI[id]; ok && !hostMatches(sni, hostSuffix) {
			continue
		}
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// ByConn splits the trace per connection, preserving time order. The result
// is memoized on the trace: callers receive shared read-only slices and must
// not mutate them (or append, which would alias trace-internal storage — the
// slices are handed out at full capacity to make a stray append reallocate
// instead). Packets tapped since the previous call are folded in
// incrementally, so a caller alternating Tap batches with ByConn pays
// O(new packets), not O(trace). The memo holds a second copy of every
// packet (about 160 B each), so callers that can route Packets by ConnID
// themselves should. The same map object is updated in place across calls:
// re-fetch it after tapping rather than retaining a pre-growth copy.
func (t *Trace) ByConn() map[int][]packet.View {
	t.byConnMu.Lock()
	defer t.byConnMu.Unlock()
	if t.byConn != nil {
		if t.byConnLen < len(t.Packets) {
			t.appendByConn()
		}
		return t.byConn
	}
	// First build, two passes: count per connection, then slice one backing
	// array into per-connection windows (in first-appearance order) and fill
	// them. This allocates exactly len(Packets) views once, instead of the
	// doubling churn of per-connection append growth.
	counts := make(map[int]int)
	for i := range t.Packets {
		counts[t.Packets[i].ConnID]++
	}
	backing := make([]packet.View, len(t.Packets))
	buf := make(map[int][]packet.View, len(counts))
	m := make(map[int][]packet.View, len(counts))
	off := 0
	for i := range t.Packets {
		id := t.Packets[i].ConnID
		s, ok := buf[id]
		if !ok {
			n := counts[id]
			s = backing[off : off : off+n]
			off += n
		}
		s = append(s, t.Packets[i])
		buf[id] = s
		m[id] = s // contiguous windows are born at full capacity
	}
	t.byConnBuf = buf
	t.byConn = m
	t.byConnLen = len(t.Packets)
	return m
}

// appendByConn advances the memo over Packets[byConnLen:]. Growth goes into
// byConnBuf with ordinary amortized append capacity (the first append to a
// full-capacity contiguous window reallocates that connection's slice away
// from the shared backing, so neighbors are never disturbed); the view map
// is re-clipped to full capacity per touched connection. Caller holds
// byConnMu.
func (t *Trace) appendByConn() {
	for i := t.byConnLen; i < len(t.Packets); i++ {
		id := t.Packets[i].ConnID
		buf := append(t.byConnBuf[id], t.Packets[i])
		t.byConnBuf[id] = buf
		t.byConn[id] = buf[:len(buf):len(buf)]
	}
	t.byConnLen = len(t.Packets)
}

// TruthRecord is the ground-truth identity of one chunk request, logged by
// the instrumented player (the stand-in for the paper's instrumented
// ExoPlayer, §6.2). CSI never sees this; the evaluation does.
type TruthRecord struct {
	ReqTime  float64        `json:"req_time"`
	DoneTime float64        `json:"done_time"`
	Ref      media.ChunkRef `json:"ref"`
	Kind     media.Type     `json:"kind"`
	Size     int64          `json:"size"`
}

// DisplayRecord says which video chunk was shown on screen and when —
// the information the paper extracts from stats-for-nerds overlays or OCR
// (§4.2). It is optionally available to CSI to prune candidates.
type DisplayRecord struct {
	Start float64 `json:"start"` // wall time the chunk began displaying
	End   float64 `json:"end"`
	Index int     `json:"index"`
	Track int     `json:"track"`
}

// StallRecord is a playback interruption.
type StallRecord struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Run bundles everything one streaming test produces.
type Run struct {
	Trace   *Trace          `json:"trace"`
	Truth   []TruthRecord   `json:"truth"`
	Display []DisplayRecord `json:"display"`
	Stalls  []StallRecord   `json:"stalls"`
}

// WriteJSON serializes the run to w.
func (r *Run) WriteJSON(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(r); err != nil {
		return fmt.Errorf("capture: encoding run: %w", err)
	}
	return nil
}

// SaveJSON writes the run to the named file.
func (r *Run) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("capture: saving run: %w", err)
	}
	defer f.Close()
	if err := r.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadJSON parses a run from r.
func ReadJSON(rd io.Reader) (*Run, error) {
	var r Run
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("capture: decoding run: %w", err)
	}
	if r.Trace == nil {
		return nil, fmt.Errorf("capture: run has no trace")
	}
	if r.Trace.SNI == nil {
		r.Trace.SNI = make(map[int]string)
	}
	if r.Trace.DNS == nil {
		r.Trace.DNS = make(map[string]string)
	}
	if r.Trace.ServerIP == nil {
		r.Trace.ServerIP = make(map[int]string)
	}
	return &r, nil
}
