package core

import (
	"fmt"
	"sort"

	"csi/internal/capture"
	"csi/internal/ivl"
	"csi/internal/obs"
	"csi/internal/packet"
)

// Estimation is the output of Step 1.
type Estimation struct {
	Proto    packet.Proto
	Mux      bool
	Requests []Request // no-MUX: one per detected request, time-ordered
	Groups   []Group   // MUX: one per traffic group
	// Warnings collects the degradations Step 1 observed (carried into the
	// Inference by Identify). Empty on a clean capture.
	Warnings []Warning
}

// Estimate performs Step 1: SNI connection filtering, request detection and
// chunk (or group) size estimation from the encrypted packet trace.
func Estimate(tr *capture.Trace, p Params) (*Estimation, error) {
	return NewStep1().Estimate(tr, p)
}

// Estimate is the package-level Estimate with the per-connection scans
// resumed from s: it advances s over the packets tapped since its last call
// and returns what a fresh Estimate of tr returns.
func (s *Step1) Estimate(tr *capture.Trace, p Params) (*Estimation, error) {
	var warns []Warning
	s.scan(tr)
	ids := tr.ConnIDs(p.MediaHost)
	if len(ids) == 0 && p.Degrade {
		// SNI and DNS both missing (e.g. the monitor attached after every
		// handshake): fall back to selecting connections by volume.
		if ids = tr.FallbackConnIDs(s.downBytes(), p.MediaHost); len(ids) > 0 {
			warns = append(warns, Warning{Code: "sni_missing",
				Detail: fmt.Sprintf("no SNI/DNS match for %q; selected %d connection(s) by downlink volume", p.MediaHost, len(ids))})
		}
	}
	if len(ids) == 0 {
		if p.Degrade {
			warns = append(warns, Warning{Code: "no_connections",
				Detail: fmt.Sprintf("no connections attributable to %q", p.MediaHost)})
			emitWarnings(p, warns)
			return &Estimation{Proto: packet.TCP, Mux: p.Mux, Warnings: warns}, nil
		}
		return nil, fmt.Errorf("core: no connections matching SNI %q", p.MediaHost)
	}
	p0 := p // pre-defaults copy: a fallback retry re-votes the protocol
	proto := s.vote(ids)
	p = p0.withDefaults(proto)

	span := p.Obs.Begin("core", "estimate",
		obs.Int("conns", int64(len(ids))),
		obs.Str("proto", proto.String()))
	defer span.End()

	if p.Mux {
		return estimateMuxSession(tr, s, ids, proto, p, warns)
	}

	all := estimateConns(s, ids, p, &warns)
	if len(all) == 0 && p.Degrade && !p.Guard.Stopped() {
		// The SNI-matched connections produced nothing usable — e.g. cross
		// traffic carries the media SNI while the real media connection lost
		// its handshake to the capture window. Retry with volume-selected
		// connections not already tried.
		if fids := excludeIDs(tr.FallbackConnIDs(s.downBytes(), p.MediaHost), ids); len(fids) > 0 {
			warns = append(warns, Warning{Code: "sni_mismatch",
				Detail: fmt.Sprintf("SNI-matched connections yielded no chunk requests; retrying %d connection(s) selected by downlink volume", len(fids))})
			proto = s.vote(fids)
			p = p0.withDefaults(proto)
			all = estimateConns(s, fids, p, &warns)
		}
	}
	if len(all) == 0 {
		if p.Guard.Stopped() {
			// The guard stopped before any request was extracted: return
			// the empty partial estimation rather than a hard error — the
			// bounded-run contract is "partial result + warning", with or
			// without Degrade.
			warns = append(warns, guardWarning(p.Guard))
			emitWarnings(p, warns)
			return &Estimation{Proto: proto, Warnings: warns}, nil
		}
		if p.Degrade {
			warns = append(warns, Warning{Code: "no_requests", Detail: "no chunk requests detected"})
			emitWarnings(p, warns)
			return &Estimation{Proto: proto, Warnings: warns}, nil
		}
		return nil, fmt.Errorf("core: no chunk requests detected")
	}
	p.Obs.Metrics().Counter("core.requests_detected").Add(int64(len(all)))
	if p.Obs.Enabled() {
		p.Obs.Event("core", "requests_detected", obs.Int("n", int64(len(all))))
	}
	// Discount the HTTP response headers hidden in each response so header
	// bytes cannot push small chunks past the Property-1 bound.
	for i := range all {
		all[i].Est -= p.MinResponseHeaderBytes
		if all[i].Est < 0 {
			all[i].Est = 0
		}
	}
	var gapReqs, gapBytes int64
	for i := range all {
		if all[i].GapBytes > 0 {
			gapReqs++
			gapBytes += all[i].GapBytes
			all[i].Confidence = gapConfidence(all[i].Est, all[i].GapBytes)
		}
	}
	if gapReqs > 0 {
		p.Obs.Metrics().Counter("core.gap_repaired_requests").Add(gapReqs)
		p.Obs.Metrics().Counter("core.gap_repaired_bytes").Add(gapBytes)
		if p.Obs.Enabled() {
			p.Obs.Event("core", "gap_repair",
				obs.Int("requests", gapReqs), obs.Int("bytes", gapBytes))
		}
	}
	if p.Guard.Stopped() {
		// Some connections were never scanned: the requests above are a
		// truncated prefix of the session.
		warns = append(warns, guardWarning(p.Guard))
	}
	emitWarnings(p, warns)
	return &Estimation{Proto: proto, Requests: all, Warnings: warns}, nil
}

// excludeIDs returns the ids in candidates that are not in tried.
func excludeIDs(candidates, tried []int) []int {
	seen := make(map[int]bool, len(tried))
	for _, id := range tried {
		seen[id] = true
	}
	var out []int
	for _, id := range candidates {
		if !seen[id] {
			out = append(out, id)
		}
	}
	return out
}

// estimateConns advances the request walks of one set of connections,
// filtering connections that look like cross traffic, and returns the
// merged time-ordered requests.
func estimateConns(s *Step1, ids []int, p Params, warns *[]Warning) []Request {
	var all []Request
	for _, id := range ids {
		// Guard checkpoint: one charge per connection, proportional to the
		// packets a fresh walk covers. Stopping keeps the connections
		// already extracted as a partial result.
		if !p.Guard.Step(s.packets(id)) {
			break
		}
		c := s.conns[id]
		if c == nil {
			continue
		}
		if c.tcp != nil {
			if miss := c.tcp.gaps.upMissing(); miss > 0 {
				*warns = append(*warns, Warning{Code: "request_gap",
					Detail: fmt.Sprintf("conn %d: %d uplink bytes lost by the monitor; requests may have merged", id, miss)})
			}
		}
		reqs := s.advance(id, c, p)
		// Cross-traffic filter: a connection with several requests none of
		// which could be a chunk (every estimate below the smallest
		// plausible chunk) is another app talking to the same host — API
		// polling, beacons — not media. Keeping it would inject noise
		// requests into every candidate sequence.
		if p.MinChunkBytes > 0 && len(reqs) >= 2 && allBelow(reqs, p.MinChunkBytes) {
			*warns = append(*warns, Warning{Code: "cross_traffic",
				Detail: fmt.Sprintf("conn %d: dropped %d sub-chunk requests as cross traffic", id, len(reqs))})
			reqs = nil
		}
		all = append(all, reqs...)
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Time < all[b].Time })
	return all
}

// estimateMuxSession handles the SQ path of Estimate: pick the one QUIC
// media connection (tolerantly under Degrade) and group its traffic.
func estimateMuxSession(tr *capture.Trace, s *Step1, ids []int, proto packet.Proto, p Params, warns []Warning) (*Estimation, error) {
	mid := -1
	if !p.Degrade {
		if proto != packet.UDP {
			return nil, fmt.Errorf("core: Mux analysis requires QUIC traffic, got %v", proto)
		}
		if len(ids) != 1 {
			return nil, fmt.Errorf("core: Mux analysis expects one media connection, got %d", len(ids))
		}
		mid = ids[0]
	} else {
		// Cross traffic can add flows with the media SNI; the media
		// connection is the QUIC one carrying the most downlink bytes.
		busiestUDP := func(ids []int) (int, int) {
			var best int64 = -1
			id, n := -1, 0
			for _, cid := range ids {
				c := s.conns[cid]
				if c == nil || c.quic == nil {
					continue
				}
				n++
				if c.downSize > best {
					best, id = c.downSize, cid
				}
			}
			return id, n
		}
		var nUDP int
		mid, nUDP = busiestUDP(ids)
		if nUDP > 1 {
			warns = append(warns, Warning{Code: "mux_multi_conn",
				Detail: fmt.Sprintf("%d QUIC connections matched; analyzing the busiest (conn %d)", nUDP, mid)})
		}
		if mid < 0 {
			// The SNI match holds no QUIC connection at all — e.g. TCP cross
			// traffic carries the media SNI while the QUIC media connection
			// lost its handshake to the capture window. Fall back to volume
			// selection over the rest of the trace.
			if fids := excludeIDs(tr.FallbackConnIDs(s.downBytes(), p.MediaHost), ids); len(fids) > 0 {
				if fid, _ := busiestUDP(fids); fid >= 0 {
					mid = fid
					warns = append(warns, Warning{Code: "sni_mismatch",
						Detail: fmt.Sprintf("SNI-matched connections hold no QUIC traffic; analyzing conn %d selected by downlink volume", mid)})
				}
			}
		}
		if mid < 0 {
			warns = append(warns, Warning{Code: "mux_no_conn",
				Detail: "no QUIC media connection found"})
			emitWarnings(p, warns)
			return &Estimation{Proto: proto, Mux: true, Warnings: warns}, nil
		}
	}
	// Guard checkpoint: charge the packets of the one media connection
	// before the grouping scan.
	if !p.Guard.Step(s.packets(mid)) {
		warns = append(warns, guardWarning(p.Guard))
		emitWarnings(p, warns)
		return &Estimation{Proto: proto, Mux: true, Warnings: warns}, nil
	}
	groups, err := estimateMux(tr.ByConn()[mid], p, &s.conns[mid].quic.gaps)
	if err != nil {
		if p.Degrade {
			warns = append(warns, Warning{Code: "no_traffic_groups", Detail: err.Error()})
			emitWarnings(p, warns)
			return &Estimation{Proto: proto, Mux: true, Warnings: warns}, nil
		}
		return nil, err
	}
	emitWarnings(p, warns)
	return &Estimation{Proto: proto, Mux: true, Groups: groups, Warnings: warns}, nil
}

func allBelow(reqs []Request, limit int64) bool {
	for _, r := range reqs {
		if r.Est >= limit {
			return false
		}
	}
	return true
}

// gapConfidence scores a repaired estimate: the fraction of its bytes that
// were actually observed, clamped away from 0 and 1 so repaired chunks are
// always distinguishable from clean ones.
func gapConfidence(est, gap int64) float64 {
	if est <= 0 || gap >= est {
		return 0.05
	}
	c := float64(est-gap) / float64(est)
	if c > 0.95 {
		c = 0.95
	}
	if c < 0.05 {
		c = 0.05
	}
	return c
}

// emitWarnings instruments degradation warnings. Counters are created only
// when warnings exist so a clean run's metrics dump stays byte-identical.
func emitWarnings(p Params, warns []Warning) {
	if len(warns) == 0 {
		return
	}
	p.Obs.Metrics().Counter("core.warnings").Add(int64(len(warns)))
	if p.Obs.Enabled() {
		for _, w := range warns {
			p.Obs.Event("core", "warning", obs.Str("code", w.Code), obs.Str("detail", w.Detail))
		}
	}
}

// estimateMux implements Step 1.2 for SQ: detect split points, form traffic
// groups, and estimate each group's total size and request count (§5.3.2).
// ev is one monitor-visible media event: an uplink request or a downlink
// data packet.
type ev struct {
	t       float64
	up      bool
	payload int64
	gap     int64 // payload bytes reconstructed across a monitor gap
}

func estimateMux(pkts []packet.View, p Params, gaps *quicGaps) ([]Group, error) {
	// At most one event per packet: size the slice once instead of letting
	// append double through ~10 minutes of trace.
	evs := make([]ev, 0, len(pkts))
	var seenDown, seenUp ivl.Set
	for i := range pkts {
		v := &pkts[i]
		if v.Dir == packet.Up {
			if v.QUICLong {
				continue
			}
			if v.QUICPayload > p.RequestMinQUICPayload {
				if seenUp.Add(v.QUICPN, v.QUICPN+1) == 0 {
					continue // monitor-duplicated request packet
				}
				evs = append(evs, ev{t: v.Time, up: true})
			}
			continue
		}
		if seenDown.Add(v.QUICPN, v.QUICPN+1) == 0 {
			continue // monitor duplicate
		}
		var rep int64
		if miss := gaps.pns.GapBefore(v.QUICPN); miss > 0 {
			rep = repair(miss, gaps.meanData())
		}
		if v.QUICLong {
			if rep > 0 {
				evs = append(evs, ev{t: v.Time, payload: rep, gap: rep})
			}
			continue
		}
		evs = append(evs, ev{t: v.Time, up: false, payload: v.QUICPayload + rep, gap: rep})
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("core: no media traffic on QUIC connection")
	}

	// Split points. SP1: a downlink idle gap longer than the threshold.
	// SP2: two (or more) requests arriving back-to-back with no downlink
	// data in between — the player had nothing outstanding (§5.3.2).
	var cuts []int // evs index at which a new group starts
	lastDown := -1.0
	for i, e := range evs {
		if e.up {
			// SP2: a pair of simultaneous requests signals that nothing
			// was outstanding — but only when the downlink has actually
			// gone quiet. Retransmitted request packets also arrive as
			// near-simultaneous pairs, mid-burst; cutting there would
			// split a chunk's bytes across groups (§5.3.2's S1 caveat).
			quiet := lastDown < 0 || e.t-lastDown >= p.SP2QuietSec
			if !p.DisableSP2 && quiet && i+1 < len(evs) && evs[i+1].up && evs[i+1].t-e.t <= p.SP2WindowSec {
				cuts = append(cuts, i)
				p.Obs.Metrics().Counter("core.sp2_cuts").Inc()
				if p.Obs.Enabled() {
					p.Obs.Event("core", "sp2_cut",
						obs.Float("at", e.t),
						obs.Float("pair_gap", evs[i+1].t-e.t))
				}
			}
			continue
		}
		if lastDown >= 0 && e.t-lastDown >= p.IdleSplitSec {
			cuts = append(cuts, backUpToRequests(evs, i))
			p.Obs.Metrics().Counter("core.sp1_cuts").Inc()
			if p.Obs.Enabled() {
				p.Obs.Event("core", "sp1_cut",
					obs.Float("at", e.t),
					obs.Float("idle", e.t-lastDown))
			}
		}
		lastDown = e.t
	}
	groups := buildGroups(evs, cuts)

	// Recursively subdivide oversized groups at their widest internal
	// downlink gap: keeps the exhaustive per-group search tractable even
	// for long startup ramps.
	var out []Group
	for _, g := range groups {
		out = append(out, subdivide(g, evs, p)...)
	}
	var final []Group
	var gapGroups, gapBytes int64
	for _, g := range out {
		if len(g.ReqTimes) == 0 {
			continue // trailing pure-ACK noise
		}
		// Per-response HTTP header discount, as in the no-MUX path.
		g.Est -= int64(len(g.ReqTimes)) * p.MinResponseHeaderBytes
		if g.Est < 0 {
			g.Est = 0
		}
		if g.GapBytes > 0 {
			g.Confidence = gapConfidence(g.Est, g.GapBytes)
			gapGroups++
			gapBytes += g.GapBytes
		}
		final = append(final, g)
	}
	if gapGroups > 0 {
		p.Obs.Metrics().Counter("core.gap_repaired_groups").Add(gapGroups)
		p.Obs.Metrics().Counter("core.gap_repaired_bytes").Add(gapBytes)
		if p.Obs.Enabled() {
			p.Obs.Event("core", "gap_repair",
				obs.Int("groups", gapGroups), obs.Int("bytes", gapBytes))
		}
	}
	if len(final) == 0 {
		return nil, fmt.Errorf("core: no traffic groups with requests")
	}
	if p.Obs.Enabled() {
		p.Obs.Event("core", "groups_formed",
			obs.Int("groups", int64(len(final))),
			obs.Int("cuts", int64(len(cuts))))
		reqs := 0
		for _, g := range final {
			reqs += len(g.ReqTimes)
		}
		p.Obs.Metrics().Counter("core.requests_detected").Add(int64(reqs))
		p.Obs.Metrics().Counter("core.groups_formed").Add(int64(len(final)))
	}
	return final, nil
}

// backUpToRequests moves a cut earlier to include any requests that
// immediately precede the first downlink packet after an idle gap (the
// requests that *caused* the new burst belong to the new group).
func backUpToRequests(evs []ev, i int) int {
	j := i
	for j > 0 && evs[j-1].up {
		j--
	}
	return j
}

func buildGroups(evs []ev, cuts []int) []groupSpan {
	sort.Ints(cuts)
	var spans []groupSpan
	start := 0
	for _, c := range cuts {
		if c <= start {
			continue
		}
		spans = append(spans, groupSpan{from: start, to: c})
		start = c
	}
	if start < len(evs) {
		spans = append(spans, groupSpan{from: start, to: len(evs)})
	}
	return spans
}

type groupSpan struct{ from, to int }

func subdivide(gs groupSpan, evs []ev, p Params) []Group {
	nReq := 0
	for i := gs.from; i < gs.to; i++ {
		if evs[i].up {
			nReq++
		}
	}
	if nReq <= p.MaxGroupRequests || gs.to-gs.from < 4 {
		return []Group{materialize(gs, evs)}
	}
	// Find the widest downlink gap strictly inside the span. Only gaps
	// wide enough to plausibly separate chunk downloads are usable: a cut
	// inside a continuous burst would split a chunk's bytes across groups
	// (a structural error no size bound repairs), whereas keeping the
	// oversized group only costs bounded search effort.
	const minSubdivideGap = 0.25
	bestGap, bestAt := -1.0, -1
	lastDown := -1.0
	for i := gs.from; i < gs.to; i++ {
		if evs[i].up {
			continue
		}
		if lastDown >= 0 {
			if gap := evs[i].t - lastDown; gap > bestGap {
				bestGap, bestAt = gap, i
			}
		}
		lastDown = evs[i].t
	}
	// A narrow gap means the cut would land inside a burst and split a
	// chunk's bytes; tolerate a moderately oversized group instead. Only
	// truly unbounded groups (continuous low-bandwidth downloads with no
	// pauses at all) get cut at the best gap available as a last resort.
	if bestGap < minSubdivideGap && nReq <= 2*p.MaxGroupRequests {
		return []Group{materialize(gs, evs)}
	}
	if bestAt <= gs.from || bestAt >= gs.to {
		return []Group{materialize(gs, evs)}
	}
	cut := backUpToRequests(evs, bestAt)
	if cut <= gs.from || cut >= gs.to {
		return []Group{materialize(gs, evs)}
	}
	p.Obs.Metrics().Counter("core.subdivide_cuts").Inc()
	if p.Obs.Enabled() {
		p.Obs.Event("core", "subdivide_cut",
			obs.Float("at", evs[cut].t),
			obs.Float("gap", bestGap),
			obs.Int("requests", int64(nReq)))
	}
	left := subdivide(groupSpan{from: gs.from, to: cut}, evs, p)
	right := subdivide(groupSpan{from: cut, to: gs.to}, evs, p)
	return append(left, right...)
}

func materialize(gs groupSpan, evs []ev) Group {
	g := Group{Start: evs[gs.from].t, End: evs[gs.to-1].t}
	for i := gs.from; i < gs.to; i++ {
		e := evs[i]
		if e.up {
			g.ReqTimes = append(g.ReqTimes, e.t)
		} else {
			g.Est += e.payload
			g.GapBytes += e.gap
			g.LastData = e.t
		}
	}
	return g
}
