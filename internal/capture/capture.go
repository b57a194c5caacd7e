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

// ByConn splits the trace per connection, preserving time order. Each call
// builds a new split holding a copy of every packet; the inference routes
// Packets by ConnID itself and never calls it.
func (t *Trace) ByConn() map[int][]packet.View {
	m := make(map[int][]packet.View)
	for _, v := range t.Packets {
		m[v.ConnID] = append(m[v.ConnID], v)
	}
	return m
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
