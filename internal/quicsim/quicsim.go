// Package quicsim implements a miniature QUIC transport for the simulator:
// monotonically increasing packet numbers, stream multiplexing, ACK frames,
// packet-threshold loss detection with retransmission in *new* packets, PTO
// timers, NewReno-style congestion control, and flow-control signaling
// carried inside the encrypted payload.
//
// The properties that matter to CSI are faithfully reproduced (§2, §3.2 of
// the paper):
//
//   - retransmitted data is carried in packets with fresh packet numbers, so
//     a monitor cannot discard retransmissions the way it can for TCP;
//   - control signaling (ACK frames, MAX_DATA, etc.) lives inside the
//     encrypted payload and cannot be separated from data bytes;
//   - multiple streams multiplex onto one connection (the SQ design type),
//     interleaving audio and video chunk bytes within single packets.
//
// Together these yield the up-to-~5% size over-estimation and the transport
// MUX challenge the paper addresses.
package quicsim

import (
	"sort"

	"csi/internal/ivl"
	"csi/internal/obs"
	"csi/internal/packet"
	"csi/internal/sim"
)

// Frame and header size constants (approximating IETF QUIC encodings).
const (
	maxPayload     = 1330 // payload budget per short-header packet
	streamFrameHdr = 8    // type + stream id + offset + length varints
	ackFrameSize   = 22   // type + largest + delay + one range
	maxDataFrame   = 8
	miscFrame      = 6 // occasional MAX_STREAMS / HANDSHAKE_DONE etc.

	handshakeClientInitial = 1200 // padded Initial
	handshakeServerFlight  = 3600 // across long-header packets
	handshakeClientFinish  = 96

	maxDataInterval   = 256 * 1024 // receiver sends MAX_DATA every this many bytes
	miscFrameInterval = 64         // server adds a misc control frame every N data packets

	lossReorderThreshold = 3
	delayedAckThreshold  = 2
	delayedAckTimeout    = 0.025
)

// Config parameterizes a connection.
type Config struct {
	ConnID   int
	ServerIP string  // server address surfaced in packet views
	InitCwnd int64   // bytes; default 10 * maxPayload
	PTOMin   float64 // default 0.1 s
	Obs      *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.InitCwnd == 0 {
		c.InitCwnd = 10 * maxPayload
	}
	if c.PTOMin == 0 {
		c.PTOMin = 0.1
	}
	return c
}

type chunk struct {
	sid int64
	off int64
	ln  int64
}

type sendStream struct {
	id      int64
	nextOff int64
	pending []chunk // front = next to transmit
}

type message struct {
	end int64
	fn  func(now float64)
}

type recvStream struct {
	received ivl.Set
	nxt      int64
	inbox    []message
}

type sentPacket struct {
	pn     int64
	frames []chunk
	size   int64 // payload bytes, for congestion accounting
	t      float64
	acked  bool
	lost   bool
}

// Endpoint is one side of a QUIC connection.
type Endpoint struct {
	eng  *sim.Engine
	cfg  Config
	out  packet.Sender
	peer *Endpoint
	dir  packet.Dir

	// Sender state.
	pnNext       int64
	sent         []*sentPacket // ordered by pn; pruned as packets resolve
	inFlight     int64
	cwnd         float64
	ssthresh     float64
	srtt, rttvar float64
	minRTT       float64
	ptoTimer     *sim.Timer
	ptoCount     int
	recoveryEnd  int64 // pn: one cwnd reduction per in-flight epoch
	streams      map[int64]*sendStream
	streamOrder  []int64
	rrCursor     int
	dataPackets  int64
	pendingMaxD  bool
	lastSend     float64

	// Receiver state.
	recv           map[int64]*recvStream
	largestRecvd   int64
	recentPNs      []int64 // ring of recently received pns; every ACK re-reports them (cumulative ranges)
	ackEliciting   int
	ackTimer       *sim.Timer
	bytesSinceMaxD int64
	handshakeDone  bool

	// Counters.
	SentPackets   int64
	AckPackets    int64
	LostPackets   int64
	PTOs          int64
	RetxBytes     int64
	DeliveredByte int64

	// Observability (all handles nil-safe).
	tr            *obs.Tracer
	cPackets      *obs.Counter
	cAcks         *obs.Counter
	cLost         *obs.Counter
	cPTOs         *obs.Counter
	lastCwndTrace float64
}

// Conn is a QUIC connection between client and server endpoints.
type Conn struct {
	Client *Endpoint
	Server *Endpoint
	eng    *sim.Engine
	cfg    Config
}

// NewConn creates a connection; up carries client->server packets, down
// server->client.
func NewConn(eng *sim.Engine, cfg Config, up, down packet.Sender) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{eng: eng, cfg: cfg}
	c.Client = newEndpoint(eng, cfg, up, packet.Up)
	c.Server = newEndpoint(eng, cfg, down, packet.Down)
	c.Client.peer = c.Server
	c.Server.peer = c.Client
	return c
}

func newEndpoint(eng *sim.Engine, cfg Config, out packet.Sender, dir packet.Dir) *Endpoint {
	ep := &Endpoint{
		eng:      eng,
		cfg:      cfg,
		out:      out,
		dir:      dir,
		cwnd:     float64(cfg.InitCwnd),
		ssthresh: 1 << 30,
		streams:  make(map[int64]*sendStream),
		recv:     make(map[int64]*recvStream),
	}
	ep.ptoTimer = eng.NewTimer(ep.onPTO)
	ep.ackTimer = eng.NewTimer(func() {
		if ep.ackEliciting > 0 {
			ep.sendAck()
		}
	})
	// As in tcpsim, only the download direction traces: it carries the media
	// bytes the inference pipeline reasons about.
	if dir == packet.Down {
		ep.tr = cfg.Obs
		reg := cfg.Obs.Metrics()
		ep.cPackets = reg.Counter("quic.packets_sent")
		ep.cAcks = reg.Counter("quic.ack_packets")
		ep.cLost = reg.Counter("quic.packets_lost")
		ep.cPTOs = reg.Counter("quic.ptos")
	}
	return ep
}

// traceCwnd samples the congestion-window trajectory once the window has
// moved at least one packet's worth since the last sample.
func (ep *Endpoint) traceCwnd() {
	if ep.tr == nil {
		return
	}
	d := ep.cwnd - ep.lastCwndTrace
	if d < 0 {
		d = -d
	}
	if d < maxPayload {
		return
	}
	ep.lastCwndTrace = ep.cwnd
	ep.tr.Sample("quic", "cwnd_bytes", ep.cwnd)
}

// Start runs the handshake: padded client Initial (carrying sni), server
// flight, client finish. Each step retries on loss. onReady fires at the
// client once the handshake completes.
func (c *Conn) Start(sni string, onReady func(now float64)) {
	cl, sv := c.Client, c.Server
	var sendInitial func()
	serverDone := false
	clientDone := false
	var initialSentAt, serverFlightAt float64
	sendInitial = func() {
		if clientDone {
			return
		}
		initialSentAt = c.eng.Now()
		p := cl.longPacket(handshakeClientInitial)
		p.View.SNI = sni
		p.Arrive = func(now float64) {
			if serverDone {
				return
			}
			serverDone = true
			var sendFlight func()
			sendFlight = func() {
				if clientDone {
					return
				}
				// Three long-header packets; only the last carries the
				// completion continuation.
				per := int64(handshakeServerFlight / 3)
				for i := 0; i < 2; i++ {
					fp := sv.longPacket(per)
					fp.Arrive = func(now float64) {}
					sv.out.Send(fp)
				}
				serverFlightAt = c.eng.Now()
				last := sv.longPacket(per)
				last.Arrive = func(now float64) {
					if clientDone {
						return
					}
					clientDone = true
					// Seed both RTT estimators from the handshake, as
					// real QUIC stacks do: an unseeded PTO fires long
					// before the first application-level ACK and
					// spuriously retransmits the first request.
					cl.sampleRTT(c.eng.Now() - initialSentAt)
					fin := cl.longPacket(handshakeClientFinish)
					fin.Arrive = func(now float64) {
						sv.handshakeDone = true
						sv.sampleRTT(c.eng.Now() - serverFlightAt)
					}
					cl.out.Send(fin)
					cl.handshakeDone = true
					onReady(c.eng.Now())
				}
				sv.out.Send(last)
				sv.eng.Schedule(0.6, sendFlight)
			}
			sendFlight()
		}
		cl.out.Send(p)
		cl.eng.Schedule(0.6, sendInitial)
	}
	sendInitial()
}

func (ep *Endpoint) longPacket(payload int64) *packet.Packet {
	pn := ep.pnNext
	ep.pnNext++
	ep.SentPackets++
	return &packet.Packet{
		Size: packet.IPHeader + packet.UDPHeader + packet.QUICLongHeader + payload,
		View: packet.View{
			Dir:         ep.dir,
			Proto:       packet.UDP,
			ConnID:      ep.cfg.ConnID,
			ServerIP:    ep.cfg.ServerIP,
			QUICPN:      pn,
			QUICPayload: payload,
			QUICLong:    true,
		},
	}
}

// Write appends n bytes to stream sid. onDelivered fires at the peer once
// the peer has received the stream contiguously through the message end.
func (ep *Endpoint) Write(sid int64, n int64, onDelivered func(now float64)) {
	if n <= 0 {
		panic("quicsim: Write of non-positive length") //csi-vet:ignore nakedpanic -- API-misuse assertion in the simulator harness
	}
	st := ep.streams[sid]
	if st == nil {
		st = &sendStream{id: sid}
		ep.streams[sid] = st
		ep.streamOrder = append(ep.streamOrder, sid)
	}
	start := st.nextOff
	st.nextOff += n
	st.pending = append(st.pending, chunk{sid: sid, off: start, ln: n})
	if ep.tr != nil {
		ep.tr.Event("quic", "stream_write",
			obs.Int("conn", int64(ep.cfg.ConnID)),
			obs.Int("sid", sid),
			obs.Int("off", start),
			obs.Int("n", n))
	}
	if onDelivered != nil {
		prs := ep.peer.recvStream(sid)
		prs.inbox = append(prs.inbox, message{end: st.nextOff, fn: onDelivered})
		sort.Slice(prs.inbox, func(a, b int) bool { return prs.inbox[a].end < prs.inbox[b].end })
	}
	ep.trySend()
}

func (ep *Endpoint) recvStream(sid int64) *recvStream {
	rs := ep.recv[sid]
	if rs == nil {
		rs = &recvStream{}
		ep.recv[sid] = rs
	}
	return rs
}

func (ep *Endpoint) hasPending() bool {
	for _, sid := range ep.streamOrder {
		if len(ep.streams[sid].pending) > 0 {
			return true
		}
	}
	return false
}

// trySend builds and transmits short-header data packets while the
// congestion window allows.
func (ep *Endpoint) trySend() {
	// Congestion window validation after idle (as in TCP, RFC 2861): do
	// not burst a stale window into the path after an OFF period.
	if ep.inFlight == 0 && ep.lastSend > 0 && ep.eng.Now()-ep.lastSend > ep.ptoDuration() {
		if ep.cwnd > float64(ep.cfg.InitCwnd) {
			ep.ssthresh = ep.cwnd
			ep.cwnd = float64(ep.cfg.InitCwnd)
		}
	}
	for ep.hasPending() {
		if float64(ep.inFlight+maxPayload) > ep.cwnd && ep.inFlight > 0 {
			return
		}
		ep.sendDataPacket()
	}
}

// sendDataPacket assembles one packet by round-robining across streams with
// pending chunks — this is the transport multiplexing that makes SQ traffic
// hard to analyze.
func (ep *Endpoint) sendDataPacket() {
	budget := int64(maxPayload)
	var payload int64
	var frames []chunk

	ep.lastSend = ep.eng.Now()
	if ep.pendingMaxD {
		payload += maxDataFrame
		budget -= maxDataFrame
		ep.pendingMaxD = false
	}
	ep.dataPackets++
	if ep.dataPackets%miscFrameInterval == 0 {
		payload += miscFrame
		budget -= miscFrame
	}

	n := len(ep.streamOrder)
	for tries := 0; tries < n && budget > streamFrameHdr; tries++ {
		sid := ep.streamOrder[(ep.rrCursor+tries)%n]
		st := ep.streams[sid]
		if len(st.pending) == 0 {
			continue
		}
		c := st.pending[0]
		take := c.ln
		if take > budget-streamFrameHdr {
			take = budget - streamFrameHdr
		}
		frames = append(frames, chunk{sid: sid, off: c.off, ln: take})
		payload += streamFrameHdr + take
		budget -= streamFrameHdr + take
		if take == c.ln {
			st.pending = st.pending[1:]
		} else {
			st.pending[0].off += take
			st.pending[0].ln -= take
		}
	}
	ep.rrCursor++

	pn := ep.pnNext
	ep.pnNext++
	ep.SentPackets++
	ep.cPackets.Inc()
	sp := &sentPacket{pn: pn, frames: frames, size: payload, t: ep.eng.Now()}
	ep.sent = append(ep.sent, sp)
	ep.inFlight += payload

	peer := ep.peer
	p := &packet.Packet{
		Size: packet.IPHeader + packet.UDPHeader + packet.QUICShortHeader + payload,
		View: packet.View{
			Dir:         ep.dir,
			Proto:       packet.UDP,
			ConnID:      ep.cfg.ConnID,
			ServerIP:    ep.cfg.ServerIP,
			QUICPN:      pn,
			QUICPayload: payload,
		},
	}
	p.Arrive = func(now float64) { peer.onDataPacket(pn, frames) }
	ep.out.Send(p)
	ep.armPTO()
}

// onDataPacket runs at the receiving endpoint.
func (ep *Endpoint) onDataPacket(pn int64, frames []chunk) {
	if pn > ep.largestRecvd {
		ep.largestRecvd = pn
	}
	ep.recentPNs = append(ep.recentPNs, pn)
	if len(ep.recentPNs) > 64 {
		ep.recentPNs = ep.recentPNs[len(ep.recentPNs)-64:]
	}
	ep.ackEliciting++
	for _, f := range frames {
		rs := ep.recvStream(f.sid)
		added := rs.received.Add(f.off, f.off+f.ln)
		ep.DeliveredByte += added
		ep.bytesSinceMaxD += added
		newNxt := rs.received.ContiguousFrom(rs.nxt)
		if newNxt > rs.nxt {
			rs.nxt = newNxt
			ep.fireInbox(rs)
		}
	}
	if ep.bytesSinceMaxD >= maxDataInterval {
		ep.bytesSinceMaxD = 0
		ep.pendingMaxD = true
	}
	if ep.ackEliciting >= delayedAckThreshold {
		ep.sendAck()
	} else if !ep.ackTimer.Pending() {
		ep.ackTimer.Reset(delayedAckTimeout)
	}
}

func (ep *Endpoint) fireInbox(rs *recvStream) {
	now := ep.eng.Now()
	i := 0
	for ; i < len(rs.inbox) && rs.inbox[i].end <= rs.nxt; i++ {
		rs.inbox[i].fn(now)
	}
	if i > 0 {
		rs.inbox = append(rs.inbox[:0], rs.inbox[i:]...)
	}
}

// sendAck emits a dedicated ACK packet (small: below the 80-byte request
// detection threshold CSI relies on, §5.3.1). If data is pending, the ack
// piggybacks on the next data packet instead.
func (ep *Endpoint) sendAck() {
	// Real QUIC ACK frames carry ranges covering everything received, so a
	// single lost ACK packet is harmless: re-report the recent window.
	acked := make([]int64, len(ep.recentPNs))
	copy(acked, ep.recentPNs)
	ep.ackEliciting = 0
	ep.ackTimer.Stop()
	// Always emit a dedicated ACK packet. (Real QUIC piggybacks ACK frames
	// on outgoing data when possible; a dedicated packet keeps ack latency
	// independent of the congestion window, which matters for accurate PTO
	// behaviour — the cost is a few extra ~60-byte packets.)
	payload := int64(ackFrameSize)
	if ep.pendingMaxD {
		payload += maxDataFrame
		ep.pendingMaxD = false
	}
	pn := ep.pnNext
	ep.pnNext++
	ep.AckPackets++
	ep.cAcks.Inc()
	largest := ep.largestRecvd
	peer := ep.peer
	p := &packet.Packet{
		Size: packet.IPHeader + packet.UDPHeader + packet.QUICShortHeader + payload,
		View: packet.View{
			Dir:         ep.dir,
			Proto:       packet.UDP,
			ConnID:      ep.cfg.ConnID,
			ServerIP:    ep.cfg.ServerIP,
			QUICPN:      pn,
			QUICPayload: payload,
		},
	}
	p.Arrive = func(now float64) { peer.onAck(acked, largest) }
	ep.out.Send(p)
}

// onAck processes acknowledgement information at the data sender.
func (ep *Endpoint) onAck(pns []int64, largest int64) {
	now := ep.eng.Now()
	ackedSet := make(map[int64]bool, len(pns))
	for _, pn := range pns {
		ackedSet[pn] = true
	}
	var newlyAcked int64
	largestAckedTime := -1.0
	for _, sp := range ep.sent {
		if ackedSet[sp.pn] && sp.pn <= largest && sp.t > largestAckedTime {
			largestAckedTime = sp.t
		}
		if sp.acked || sp.lost {
			continue
		}
		if ackedSet[sp.pn] {
			sp.acked = true
			ep.inFlight -= sp.size
			newlyAcked += sp.size
			if sp.pn == largest {
				ep.sampleRTT(now - sp.t)
			}
		}
	}
	// Congestion window growth.
	if newlyAcked > 0 {
		ep.ptoCount = 0
		if ep.cwnd < ep.ssthresh {
			ep.cwnd += float64(newlyAcked)
			// HyStart-style exit: growing queueing delay means the pipe
			// is full; leave slow start before the overshoot bursts into
			// the bottleneck queue.
			if ep.minRTT > 0 && ep.srtt > 1.5*ep.minRTT {
				ep.ssthresh = ep.cwnd
			}
		} else {
			ep.cwnd += maxPayload * float64(newlyAcked) / ep.cwnd
		}
	}
	// Loss detection per RFC 9002: a packet is lost if unacked and either
	// (a) more than lossReorderThreshold below the largest acked pn, or
	// (b) sent more than a time threshold (9/8 of srtt) before the newest
	// acked packet. The data is retransmitted in a NEW packet number — the
	// monitor sees the bytes twice and cannot tell.
	timeThresh := 1.125 * ep.srtt
	if timeThresh < 0.001 {
		timeThresh = 0.001
	}
	congested := false
	for _, sp := range ep.sent {
		if sp.acked || sp.lost {
			continue
		}
		pnLost := sp.pn <= largest-lossReorderThreshold
		timeLost := sp.pn < largest && largestAckedTime >= 0 && largestAckedTime-sp.t > timeThresh
		if pnLost || timeLost {
			sp.lost = true
			ep.LostPackets++
			ep.cLost.Inc()
			ep.inFlight -= sp.size
			ep.requeue(sp.frames)
			if ep.tr != nil {
				ep.tr.Event("quic", "packet_lost",
					obs.Int("conn", int64(ep.cfg.ConnID)),
					obs.Int("pn", sp.pn),
					obs.Int("bytes", sp.size))
			}
			if sp.pn > ep.recoveryEnd {
				congested = true
			}
		}
	}
	if congested {
		ep.ssthresh = ep.cwnd / 2
		if ep.ssthresh < 2*maxPayload {
			ep.ssthresh = 2 * maxPayload
		}
		ep.cwnd = ep.ssthresh
		ep.recoveryEnd = ep.pnNext
	}
	if newlyAcked > 0 || congested {
		ep.traceCwnd()
	}
	ep.pruneSent()
	if ep.inFlight > 0 {
		ep.armPTO()
	} else {
		ep.ptoTimer.Stop()
	}
	ep.trySend()
}

func (ep *Endpoint) requeue(frames []chunk) {
	for i := len(frames) - 1; i >= 0; i-- {
		f := frames[i]
		ep.RetxBytes += f.ln
		st := ep.streams[f.sid]
		st.pending = append([]chunk{{sid: f.sid, off: f.off, ln: f.ln}}, st.pending...)
	}
}

func (ep *Endpoint) pruneSent() {
	i := 0
	for i < len(ep.sent) && (ep.sent[i].acked || ep.sent[i].lost) {
		i++
	}
	if i > 0 {
		ep.sent = append(ep.sent[:0], ep.sent[i:]...)
	}
}

func (ep *Endpoint) sampleRTT(rtt float64) {
	if rtt <= 0 {
		return
	}
	if ep.minRTT == 0 || rtt < ep.minRTT {
		ep.minRTT = rtt
	}
	if ep.srtt == 0 {
		ep.srtt = rtt
		ep.rttvar = rtt / 2
		return
	}
	d := ep.srtt - rtt
	if d < 0 {
		d = -d
	}
	ep.rttvar = 0.75*ep.rttvar + 0.25*d
	ep.srtt = 0.875*ep.srtt + 0.125*rtt
}

func (ep *Endpoint) ptoDuration() float64 {
	base := ep.cfg.PTOMin
	if ep.srtt > 0 {
		// srtt + 4*rttvar + max_ack_delay, per QUIC loss recovery.
		base = ep.srtt + 4*ep.rttvar + delayedAckTimeout + 0.01
		if base < ep.cfg.PTOMin {
			base = ep.cfg.PTOMin
		}
	}
	for i := 0; i < ep.ptoCount && i < 6; i++ {
		base *= 2
	}
	return base
}

func (ep *Endpoint) armPTO() {
	ep.ptoTimer.Reset(ep.ptoDuration())
}

func (ep *Endpoint) onPTO() {
	if ep.inFlight <= 0 {
		return
	}
	ep.PTOs++
	ep.cPTOs.Inc()
	ep.ptoCount++
	if ep.tr != nil {
		ep.tr.Event("quic", "pto",
			obs.Int("conn", int64(ep.cfg.ConnID)),
			obs.Int("count", int64(ep.ptoCount)),
			obs.Int("in_flight", ep.inFlight))
	}
	// Tail loss probe: elicit an acknowledgement with a tiny PING packet
	// instead of duplicating data. The probe's ACK raises the largest
	// acked packet number and its send-time reference, letting
	// time-threshold loss detection (RFC 9002 §6.1) find the real hole —
	// so a PTO costs ~10 bytes, and lost data is retransmitted exactly
	// once.
	ep.sendPing()
	// Persistent PTOs mean the path really collapsed; back the window off.
	if ep.ptoCount >= 2 {
		ep.ssthresh = ep.cwnd / 2
		if ep.ssthresh < 2*maxPayload {
			ep.ssthresh = 2 * maxPayload
		}
		ep.cwnd = 2 * maxPayload
	}
	ep.armPTO()
}

// sendPing emits a minimal ack-eliciting probe, bypassing the congestion
// window (QUIC PTO probes may).
func (ep *Endpoint) sendPing() {
	const pingPayload = 10 // PING frame + minimal padding
	pn := ep.pnNext
	ep.pnNext++
	ep.SentPackets++
	ep.lastSend = ep.eng.Now()
	sp := &sentPacket{pn: pn, size: pingPayload, t: ep.eng.Now()}
	ep.sent = append(ep.sent, sp)
	ep.inFlight += sp.size
	peer := ep.peer
	p := &packet.Packet{
		Size: packet.IPHeader + packet.UDPHeader + packet.QUICShortHeader + pingPayload,
		View: packet.View{
			Dir:         ep.dir,
			Proto:       packet.UDP,
			ConnID:      ep.cfg.ConnID,
			QUICPN:      pn,
			QUICPayload: pingPayload,
		},
	}
	p.Arrive = func(now float64) { peer.onDataPacket(pn, nil) }
	ep.out.Send(p)
}
