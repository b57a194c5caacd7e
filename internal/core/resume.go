package core

// EstimateMemo makes Step 1 resumable over a growing trace: it caches the
// per-connection request extraction (and, on the SQ path, the per-connection
// traffic grouping) keyed by the connection's packet count. A re-Estimate of
// a flow that grew since the last solve rescans only the connections that
// actually received packets; idle connections replay their cached requests,
// warnings and guard charge instead of being walked again. Combined with the
// incremental capture.Trace.ByConn memo this turns repeated inference over a
// live flow from O(trace) per solve into O(new packets) for Step 1.
//
// Exactness. A memo hit is byte-equivalent to a fresh scan by construction:
//
//   - The per-connection scan is a pure function of that connection's packet
//     prefix and of Params fields that never change across the solves of one
//     flow (RequestMinQUICPayload, MinChunkBytes, the SP1/SP2 thresholds —
//     all fixed by withDefaults from per-flow constants). The key is the
//     packet count, and connections only ever grow, so an unchanged count
//     means unchanged input.
//   - Gap statistics (scanTCPGaps/scanQUICGaps) are whole-connection
//     aggregates consumed *during* the walk, which is why a grown connection
//     is rescanned from scratch rather than resumed mid-stream: resuming
//     would walk the prefix under stale gap ratios and diverge from a batch
//     inference over the same bytes.
//   - Stored requests are the raw scan output; the response-header discount
//     and gap-confidence pass in Estimate mutate the merged copies, never
//     the memo's slices.
//   - The guard charge of a memoized connection equals the charge of
//     scanning it (its packet count), re-charged on every hit, so a budgeted
//     run truncates at the same deterministic point whether the memo is
//     cold, warm, or absent.
//
// One asymmetry remains: the SQ grouping scan emits obs split-point events
// and counters as it walks, and a memo hit elides that walk. Metrics parity
// therefore holds only between runs of equal memo state; the streaming
// daemon keeps per-flow solves untraced, and every golden path runs without
// a memo. Results are unaffected either way.
//
// A memo belongs to one flow (one Trace and one Params shape) and is not
// safe for concurrent use; a nil Memo in Params disables resumption
// entirely and changes nothing.
type EstimateMemo struct {
	conns map[int]connMemo
}

// connMemo is one connection's cached scan.
type connMemo struct {
	pkts     int       // packet count the scan saw (the memo key's value part)
	mux      bool      // entry caches the SQ grouping, not request extraction
	reqs     []Request // raw per-conn requests (no-MUX path), pre-discount
	warns    []Warning // warnings the scan emitted, in emission order
	groups   []Group   // raw traffic groups (SQ path), pre-discount
	groupErr string    // non-empty: the grouping scan failed with this error
}

// NewEstimateMemo returns an empty memo.
func NewEstimateMemo() *EstimateMemo {
	return &EstimateMemo{conns: make(map[int]connMemo)}
}

// lookup returns the cached scan for conn at exactly pkts packets, or nil.
// The mux flag keys the two scan kinds apart so a flow analyzed under both
// modes (which no caller does today) could never cross-feed.
func (m *EstimateMemo) lookup(conn, pkts int, mux bool) *connMemo {
	if m == nil {
		return nil
	}
	e, ok := m.conns[conn]
	if !ok || e.pkts != pkts || e.mux != mux {
		return nil
	}
	return &e
}

// store records a completed scan for conn. The stored slices become
// memo-owned: callers hand over the raw scan output and Estimate appends
// value copies into its merged output instead of aliasing them.
func (m *EstimateMemo) store(conn int, e connMemo) {
	if m == nil {
		return
	}
	m.conns[conn] = e
}

// cloneGroups returns value copies of the cached groups so the discount and
// confidence pass in estimateMux cannot corrupt the memo. The inner ReqTimes
// slices are shared read-only: nothing downstream appends to or mutates
// them.
func cloneGroups(gs []Group) []Group {
	if gs == nil {
		return nil
	}
	out := make([]Group, len(gs))
	copy(out, gs)
	return out
}
