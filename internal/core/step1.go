package core

import (
	"math"

	"csi/internal/capture"
	"csi/internal/ivl"
	"csi/internal/packet"
)

// Step1 is Step 1's per-connection state, carried across the solves of one
// growing trace. Each solve routes the packets tapped since the previous one
// by ConnID and advances the request walks of the connections it reads over
// them, so a flow re-solved every few hundred packets pays for its new
// packets only. A batch Estimate or Infer is the same walker started from
// empty, so a solve over a carried Step1 and a fresh solve over the same
// prefix are one computation.
//
// Per connection it carries the protocol-vote byte sums and packet count,
// the monitor-gap scan (gaps.go) and the request walk. The gap scan is
// order-independent and simply grows. The walk keeps each repaired hole as
// a count of missing units and scales it by the connection's current
// appRatio (TCP) or mean payload (QUIC) only when it reads an estimate, so
// the walk stays valid while those scales move. A connection's walk
// restarts from its first packet only when a later packet changes what an
// earlier decision read:
//
//   - a new downlink packet covers part of a hole below the highest TCP
//     sequence number or QUIC packet number the walk looked up for a
//     repair;
//   - a decision that read a repaired estimate — TCP's continuation test
//     (is the open request still empty?), QUIC's phantom filter (is the
//     open response still below MinChunkBytes?) — comes out the other way
//     under the current scale;
//   - (QUIC) RequestMinQUICPayload or MinChunkBytes differ from the walk's.
//
// A Step1 belongs to one trace, which may only grow by Tap between calls;
// handed a different trace it starts over. It is not safe for concurrent
// use. It holds no Params beyond each QUIC walk's two thresholds, so guard
// charges, warnings and obs output are produced per solve exactly as on a
// fresh trace.
type Step1 struct {
	tr      *capture.Trace
	scanned int // tr.Packets routed into the gap scans and vote sums
	conns   map[int]*connScan
	// busy is set while the state advances; a call that finds it set (the
	// previous advance panicked) starts over from empty.
	busy bool
	// restarts counts walks restarted after they had consumed packets, and
	// rewalked the trace positions those restarts passed over again.
	restarts, rewalked int64
}

// NewStep1 returns an empty Step 1 state.
func NewStep1() *Step1 { return &Step1{} }

// connScan is one connection's carried Step 1 state. Exactly one of tcp and
// quic is set for a TCP or UDP connection (by its first packet's protocol).
type connScan struct {
	proto     packet.Proto
	packets   int64 // guard charge: the packets a fresh scan would walk
	voteBytes int64 // downlink bytes for the protocol vote
	downSize  int64 // downlink wire bytes (volume fallback, mux media connection)
	first     int   // index in tr.Packets of the connection's first packet
	walked    int   // tr.Packets the walk has consumed
	stale     bool  // a scanned packet changed a hole the walk read
	tcp       *tcpConn
	quic      *quicConn
}

// scan brings the gap scans and vote sums up to tr and marks the walks whose
// looked-up holes the new packets change.
func (s *Step1) scan(tr *capture.Trace) {
	if s.tr != tr || s.scanned > len(tr.Packets) || s.busy {
		*s = Step1{tr: tr, conns: make(map[int]*connScan)}
	}
	s.busy = true
	for i := s.scanned; i < len(tr.Packets); i++ {
		v := &tr.Packets[i]
		c := s.conns[v.ConnID]
		if c == nil {
			c = &connScan{proto: v.Proto, first: i, walked: i}
			switch v.Proto {
			case packet.TCP:
				c.tcp = newTCPConn()
			case packet.UDP:
				c.quic = newQUICConn()
			}
			s.conns[v.ConnID] = c
		}
		c.packets++
		if v.Dir == packet.Down {
			b := v.Size
			if b == 0 {
				b = v.TCPPayload + v.QUICPayload // traces without wire sizes
			}
			c.voteBytes += b
			c.downSize += v.Size
		}
		switch {
		case c.tcp != nil:
			c.stale = c.tcp.scan(v) || c.stale
		case c.quic != nil:
			c.stale = c.quic.scan(v) || c.stale
		}
	}
	s.scanned = len(tr.Packets)
	s.busy = false
}

// advance brings connection id's request walk up to the scanned packets,
// restarting it from the connection's first packet when its earlier
// decisions no longer hold (see Step1), and returns its requests.
func (s *Step1) advance(id int, c *connScan, p Params) []Request {
	s.busy = true
	restart := c.stale
	switch {
	case c.tcp != nil:
		restart = restart || !c.tcp.holds(1, c.tcp.gaps.appRatio())
	case c.quic != nil:
		q := c.quic
		restart = restart || q.reqMin != p.RequestMinQUICPayload || q.minChunk != p.MinChunkBytes ||
			!q.holds(q.minChunk, q.gaps.meanData())
	}
	if restart {
		if c.walked > c.first {
			s.restarts++
			s.rewalked += int64(c.walked - c.first)
		}
		c.walked, c.stale = c.first, false
		switch {
		case c.tcp != nil:
			c.tcp.resetWalk()
		case c.quic != nil:
			c.quic.resetWalk(p.RequestMinQUICPayload, p.MinChunkBytes)
		}
	}
	pkts := s.tr.Packets
	for i := c.walked; i < s.scanned; i++ {
		if v := &pkts[i]; v.ConnID == id {
			switch {
			case c.tcp != nil:
				c.tcp.walk(v)
			case c.quic != nil:
				c.quic.walk(v)
			}
		}
	}
	c.walked = s.scanned
	s.busy = false
	switch {
	case c.tcp != nil:
		return c.tcp.requests(c.tcp.gaps.appRatio())
	case c.quic != nil:
		return c.quic.requests(c.quic.gaps.meanData())
	}
	return nil
}

// packets returns connection id's guard charge (0 for an unseen id).
func (s *Step1) packets(id int) int64 {
	if c := s.conns[id]; c != nil {
		return c.packets
	}
	return 0
}

// downBytes returns each connection's downlink wire bytes, the volumes
// capture.Trace.FallbackConnIDs selects by.
func (s *Step1) downBytes() map[int]int64 {
	down := make(map[int]int64, len(s.conns))
	for id, c := range s.conns {
		down[id] = c.downSize
	}
	return down
}

// vote determines the session protocol, which picks the default error
// bound k: injected cross traffic can mix TCP flows into a QUIC session's
// SNI match, so the session protocol is the one carrying the most downlink
// bytes among the given connections (the first connection's on a tie).
func (s *Step1) vote(ids []int) packet.Proto {
	proto := packet.TCP
	var tcpBytes, udpBytes int64
	for i, id := range ids {
		c := s.conns[id]
		if c == nil {
			continue
		}
		if i == 0 {
			proto = c.proto // single-conn/tie default
		}
		if c.proto == packet.UDP {
			udpBytes += c.voteBytes
		} else {
			tcpBytes += c.voteBytes
		}
	}
	if udpBytes > tcpBytes {
		proto = packet.UDP
	} else if tcpBytes > udpBytes {
		proto = packet.TCP
	}
	return proto
}

// reqWalk is the request list of one connection's walk. Each repaired hole
// is kept as a count of missing units (TCP payload bytes, QUIC packets),
// scaled by the connection's repair scale only when an estimate is read.
// A decision that read a repaired estimate is kept as a verdict, which
// holds re-checks under a later scale.
type reqWalk struct {
	reqs     []walkReq
	verdicts []verdict
}

type walkReq struct {
	time, lastData float64
	conn           int
	seen           int64   // observed response bytes
	miss           []int64 // missing units at each repaired hole
}

// verdict records that a request with seen observed bytes and holes miss
// was found below (or not below) a limit.
type verdict struct {
	seen  int64
	miss  []int64
	below bool
}

// estimate is an estimate of seen observed bytes plus the holes in miss,
// repaired at per bytes per missing unit.
func estimate(seen int64, miss []int64, per float64) int64 {
	for _, m := range miss {
		seen += repair(m, per)
	}
	return seen
}

// below reports whether r's estimate under per is below limit. Repairs are
// never negative, so only a verdict on a repaired request still below the
// limit on its observed bytes alone depends on per; it is recorded.
func (w *reqWalk) below(r *walkReq, limit int64, per float64) bool {
	b := estimate(r.seen, r.miss, per) < limit
	if len(r.miss) > 0 && r.seen < limit {
		// r.miss only grows by append, so this view of it stays as read.
		w.verdicts = append(w.verdicts, verdict{seen: r.seen, miss: r.miss, below: b})
	}
	return b
}

// holds reports whether every recorded verdict comes out the same under
// per.
func (w *reqWalk) holds(limit int64, per float64) bool {
	for _, v := range w.verdicts {
		if (estimate(v.seen, v.miss, per) < limit) != v.below {
			return false
		}
	}
	return true
}

// requests emits the walk's requests with the repairs scaled by per.
func (w *reqWalk) requests(per float64) []Request {
	if len(w.reqs) == 0 {
		return nil
	}
	out := make([]Request, len(w.reqs))
	for i := range w.reqs {
		r := &w.reqs[i]
		out[i] = Request{Time: r.time, Conn: r.conn, Est: r.seen, LastData: r.lastData}
		for _, m := range r.miss {
			rep := repair(m, per)
			out[i].Est += rep
			out[i].GapBytes += rep
		}
	}
	return out
}

// tcpConn walks one HTTPS connection. Requests are uplink packets carrying
// TLS application-data bytes; the response size is the sum of downlink TLS
// application-data bytes between consecutive requests, with TCP
// retransmissions removed by SEQ-range de-duplication (§3.2). Monitor holes
// are repaired at the first packet after each hole, attributed to the
// request being answered at that moment, in TLS application bytes at the
// connection's appRatio.
type tcpConn struct {
	gaps tcpGaps

	reqWalk
	seen, seenUp ivl.Set
	// looked is the highest downlink seq looked up for a hole.
	looked int64
}

func newTCPConn() *tcpConn { return &tcpConn{looked: math.MinInt64} }

func (c *tcpConn) resetWalk() { *c = tcpConn{gaps: c.gaps, looked: math.MinInt64} }

// scan adds v to the gap scan and reports whether it changes a hole below
// the highest seq the walk looked up.
func (c *tcpConn) scan(v *packet.View) bool {
	stale := false
	if v.Dir == packet.Down && v.TCPPayload > 0 && v.TCPSeq < c.looked {
		lo, lim := v.TCPSeq, min(v.TCPSeq+v.TCPPayload, c.looked)
		stale = c.gaps.down.Covered(lo, lim) < lim-lo
	}
	c.gaps.add(v)
	return stale
}

func (c *tcpConn) walk(v *packet.View) {
	if v.TLSAppBytes == 0 {
		return // handshake, pure ACKs
	}
	if v.Dir == packet.Up {
		// Retransmitted request packets reuse their SEQ: drop them so they
		// are not mistaken for new requests (§3.2).
		if c.seenUp.Add(v.TCPSeq, v.TCPSeq+v.TCPPayload) == 0 {
			return
		}
		// A request may span multiple packets (large cookies); treat
		// packets within the same already-open request window before any
		// response bytes as one request. A fresh uplink app-data packet
		// after response bytes marks a new request.
		if n := len(c.reqs); n > 0 && c.below(&c.reqs[n-1], 1, c.gaps.appRatio()) {
			return // continuation of the current request
		}
		c.reqs = append(c.reqs, walkReq{time: v.Time, conn: v.ConnID})
		return
	}
	if len(c.reqs) == 0 {
		return // early server push / noise before any request
	}
	fresh := c.seen.Add(v.TCPSeq, v.TCPSeq+v.TCPPayload)
	if fresh == 0 {
		return // pure retransmission
	}
	r := &c.reqs[len(c.reqs)-1]
	c.looked = max(c.looked, v.TCPSeq)
	if miss := c.gaps.down.GapBefore(v.TCPSeq); miss > 0 {
		// This packet starts right after a monitor hole: reconstruct the
		// missing response bytes for the current chunk.
		r.miss = append(r.miss, miss)
	}
	app := v.TLSAppBytes
	if fresh < v.TCPPayload {
		// Partial overlap with a retransmitted range: count the
		// proportional share of application bytes.
		app = app * fresh / v.TCPPayload
	}
	r.seen += app
	r.lastData = v.Time
}

// quicConn walks one QUIC connection without stream multiplexing (CQ):
// requests are uplink short-header packets larger than the ACK threshold;
// response sizes sum the downlink short-header payloads, which unavoidably
// include retransmitted data and control frames (§3.2). Monitor holes are
// repaired at the connection's mean payload per missing packet number.
type quicConn struct {
	gaps quicGaps

	reqWalk
	seenDown, seenUp ivl.Set
	// looked is the highest downlink packet number looked up for a hole.
	looked int64
	// reqMin and minChunk are the walk's RequestMinQUICPayload and
	// MinChunkBytes.
	reqMin, minChunk int64
}

func newQUICConn() *quicConn { return &quicConn{looked: math.MinInt64} }

func (c *quicConn) resetWalk(reqMin, minChunk int64) {
	*c = quicConn{gaps: c.gaps, looked: math.MinInt64, reqMin: reqMin, minChunk: minChunk}
}

// scan adds v to the gap scan and reports whether it fills a hole below the
// highest packet number the walk looked up.
func (c *quicConn) scan(v *packet.View) bool {
	stale := v.Dir == packet.Down && v.QUICPN < c.looked &&
		c.gaps.pns.Covered(v.QUICPN, v.QUICPN+1) == 0
	c.gaps.add(v)
	return stale
}

func (c *quicConn) walk(v *packet.View) {
	if v.Dir == packet.Up {
		if v.QUICLong {
			return // handshake
		}
		if v.QUICPayload > c.reqMin {
			// Monitor-duplicated request packets reuse their packet number:
			// drop them like TCP SEQ-duplicates.
			if c.seenUp.Add(v.QUICPN, v.QUICPN+1) == 0 {
				return
			}
			// Phantom filter: a "request" while the current response is
			// still smaller than any chunk could be is a retransmitted
			// request packet, not a new request.
			if n := len(c.reqs); n > 0 && c.minChunk > 0 && c.below(&c.reqs[n-1], c.minChunk, c.gaps.meanData()) {
				return
			}
			c.reqs = append(c.reqs, walkReq{time: v.Time, conn: v.ConnID})
		}
		return
	}
	if c.seenDown.Add(v.QUICPN, v.QUICPN+1) == 0 {
		return // monitor duplicate
	}
	n := len(c.reqs)
	if n > 0 {
		c.looked = max(c.looked, v.QUICPN)
		if miss := c.gaps.pns.GapBefore(v.QUICPN); miss > 0 {
			// Packet numbers missing right before this one: the monitor
			// dropped them.
			c.reqs[n-1].miss = append(c.reqs[n-1].miss, miss)
		}
	}
	if v.QUICLong || n == 0 {
		return // handshake, or data before any request
	}
	c.reqs[n-1].seen += v.QUICPayload
	c.reqs[n-1].lastData = v.Time
}
