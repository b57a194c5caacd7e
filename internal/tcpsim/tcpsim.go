// Package tcpsim implements a miniature but behaviourally faithful TCP for
// the discrete-event simulator: slow start with a HyStart-style delay exit,
// AIMD congestion avoidance, cumulative + selective acknowledgements (SACK),
// scoreboard-driven loss recovery, retransmission timeouts with exponential
// backoff, and in-order delivery.
//
// Payload content is never materialized: the byte stream is modelled as
// lengths and offsets only. Application "messages" written with Write fire a
// callback at the peer once the peer's contiguous receive offset passes the
// message end — exactly the signal an HTTP layer needs ("response fully
// received").
//
// Crucially for CSI, retransmitted segments reuse their original sequence
// number (visible in packet.View.TCPSeq), which is what lets the HTTPS
// estimator discard retransmissions (§3.2 of the paper).
package tcpsim

import (
	"csi/internal/ivl"
	"csi/internal/obs"
	"csi/internal/packet"
	"csi/internal/sim"
)

// Config parameterizes a connection.
type Config struct {
	ConnID   int
	ServerIP string  // server address surfaced in packet views
	MSS      int64   // max segment payload; default 1400
	InitCwnd int64   // initial congestion window in bytes; default 10*MSS
	RTOMin   float64 // minimum retransmission timeout; default 0.2 s
	Obs      *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.MSS == 0 {
		c.MSS = 1400
	}
	if c.InitCwnd == 0 {
		c.InitCwnd = 10 * c.MSS
	}
	if c.RTOMin == 0 {
		c.RTOMin = 0.2
	}
	return c
}

const maxSackBlocks = 8

// Classifier attributes a range of this direction's TLS byte stream to
// monitor-visible categories (application-data record bytes vs handshake
// record bytes). Installed by the TLS layer.
type Classifier func(from, to int64) (app, hs int64)

type message struct {
	end int64
	fn  func(now float64)
}

type segTiming struct {
	end  int64
	t    float64
	rtxd bool
}

// Endpoint is one side of a connection. It sends data packets and pure ACKs
// through out and receives the peer's packets via Arrive callbacks.
type Endpoint struct {
	eng  *sim.Engine
	cfg  Config
	out  packet.Sender
	peer *Endpoint
	dir  packet.Dir

	// Sender state.
	sndUna, sndNxt, sndTotal int64
	cwnd, ssthresh           float64
	sacked                   ivl.Set    // peer-reported received ranges >= sndUna
	rtxQueue                 [][2]int64 // holes scheduled for retransmission
	rtxQueueBytes            int64
	rtxMarked                ivl.Set // holes queued in the current epoch
	inRecovery               bool
	recoverPoint             int64
	rto                      float64
	srtt, rttvar, minRTT     float64
	rtoTimer                 *sim.Timer
	timing                   []segTiming
	lastSend                 float64

	// Receiver state.
	rcvNxt   int64
	received ivl.Set
	inbox    []message // messages the peer wrote, sorted by end

	// Monitor-visible classification of this direction's stream.
	classify Classifier
	sniHost  string
	sniEnd   int64

	// Counters.
	Retransmits   int64
	Timeouts      int64
	FastRetx      int64
	SentData      int64
	SentAcks      int64
	DeliveredByte int64

	// Observability (all handles nil-safe).
	tr            *obs.Tracer
	cSegments     *obs.Counter
	cRetransmits  *obs.Counter
	cTimeouts     *obs.Counter
	cFastRetx     *obs.Counter
	lastCwndTrace float64
}

// Conn is a full-duplex TCP connection between a client and a server
// endpoint.
type Conn struct {
	Client *Endpoint
	Server *Endpoint
	eng    *sim.Engine
	cfg    Config
}

// NewConn creates a connection. up carries client->server packets, down
// carries server->client packets.
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
		rto:      1.0,
	}
	ep.rtoTimer = eng.NewTimer(ep.onRTO)
	// Only the server endpoint of a connection carries the download-heavy
	// direction the paper cares about; instrumenting both lanes doubles the
	// record volume for no inference signal, so only Down endpoints trace.
	if dir == packet.Down {
		ep.tr = cfg.Obs
		reg := cfg.Obs.Metrics()
		ep.cSegments = reg.Counter("tcp.segments_sent")
		ep.cRetransmits = reg.Counter("tcp.retransmits")
		ep.cTimeouts = reg.Counter("tcp.timeouts")
		ep.cFastRetx = reg.Counter("tcp.fast_retx")
	}
	return ep
}

// Obs returns the tracer attached to this endpoint (nil when tracing is
// off or the endpoint is on the untraced direction). The TLS layer uses it
// to stamp record-framing events.
func (ep *Endpoint) Obs() *obs.Tracer { return ep.tr }

// ConnID returns the connection id the endpoint belongs to.
func (ep *Endpoint) ConnID() int { return ep.cfg.ConnID }

// traceCwnd samples the congestion-window trajectory, suppressing samples
// until the window has moved at least one MSS since the last one so constant
// windows do not flood the trace.
func (ep *Endpoint) traceCwnd() {
	if ep.tr == nil {
		return
	}
	d := ep.cwnd - ep.lastCwndTrace
	if d < 0 {
		d = -d
	}
	if d < float64(ep.cfg.MSS) {
		return
	}
	ep.lastCwndTrace = ep.cwnd
	ep.tr.Sample("tcp", "cwnd_bytes", ep.cwnd)
}

// synRetries bounds SYN retransmission like Linux's tcp_syn_retries
// default: after the sixth retry (127 s of backoff) the handshake gives up.
const synRetries = 6

// Start performs the 3-way handshake and calls onOpen (at the client) when
// the connection is established. A lost SYN or SYN-ACK is recovered by
// re-sending the SYN on a timer that starts at 1 s and doubles on each
// expiry (RFC 6298 §2.1, §5.5); the server answers every SYN, and the
// client opens on the first SYN-ACK and ignores duplicates.
func (c *Conn) Start(onOpen func(now float64)) {
	cl, sv := c.Client, c.Server
	open := false
	retries, rto := 0, 1.0
	var timer *sim.Timer
	onSynAck := func(now float64) {
		if open {
			return // a duplicate answering a retransmitted SYN
		}
		open = true
		timer.Stop()
		ack := &packet.Packet{
			Size: packet.IPHeader + packet.TCPHeader,
			View: packet.View{Dir: packet.Up, Proto: packet.TCP, ConnID: c.cfg.ConnID, ServerIP: c.cfg.ServerIP},
		}
		ack.Arrive = func(now float64) {}
		cl.out.Send(ack)
		onOpen(c.eng.Now())
	}
	sendSyn := func() {
		syn := &packet.Packet{
			Size: packet.IPHeader + packet.TCPHeader + 12, // SYN options
			View: packet.View{Dir: packet.Up, Proto: packet.TCP, ConnID: c.cfg.ConnID, ServerIP: c.cfg.ServerIP},
		}
		syn.Arrive = func(now float64) {
			synack := &packet.Packet{
				Size: packet.IPHeader + packet.TCPHeader + 12,
				View: packet.View{Dir: packet.Down, Proto: packet.TCP, ConnID: c.cfg.ConnID, ServerIP: c.cfg.ServerIP},
			}
			synack.Arrive = onSynAck
			sv.out.Send(synack)
		}
		cl.out.Send(syn)
		if retries < synRetries {
			timer.Reset(rto)
		}
	}
	timer = c.eng.NewTimer(func() {
		retries++
		rto *= 2
		sendSyn()
	})
	sendSyn()
}

// SetClassifier installs the TLS byte classifier for this direction.
func (ep *Endpoint) SetClassifier(fn Classifier) { ep.classify = fn }

// SetSNI marks the stream range [0, end) as carrying the given SNI host so
// the capture can surface it (ClientHello).
func (ep *Endpoint) SetSNI(host string, end int64) {
	ep.sniHost = host
	ep.sniEnd = end
}

// Write appends n bytes to this endpoint's send stream. onDelivered (may be
// nil) fires at the peer when the peer has contiguously received the entire
// message.
func (ep *Endpoint) Write(n int64, onDelivered func(now float64)) {
	if n <= 0 {
		panic("tcpsim: Write of non-positive length") //csi-vet:ignore nakedpanic -- API-misuse assertion in the simulator harness
	}
	ep.sndTotal += n
	if onDelivered != nil {
		ep.peer.inbox = append(ep.peer.inbox, message{end: ep.sndTotal, fn: onDelivered})
	}
	ep.trySend()
}

// pipe estimates bytes currently in flight: everything sent and not yet
// cumulatively acked, minus SACKed bytes, minus holes queued for
// retransmission (presumed lost).
func (ep *Endpoint) pipe() int64 {
	p := ep.sndNxt - ep.sndUna - ep.sacked.Covered(ep.sndUna, ep.sndNxt) - ep.rtxQueueBytes
	if p < 0 {
		p = 0
	}
	return p
}

func (ep *Endpoint) trySend() {
	// Congestion window validation (RFC 2861, simplified): after an idle
	// period longer than the RTO the old window is stale; restart from the
	// initial window instead of blasting a line-rate burst into the path.
	if ep.pipe() == 0 && ep.lastSend > 0 && ep.eng.Now()-ep.lastSend > ep.computeRTO() {
		if ep.cwnd > float64(ep.cfg.InitCwnd) {
			ep.ssthresh = ep.cwnd
			ep.cwnd = float64(ep.cfg.InitCwnd)
		}
	}
	for {
		inFlight := ep.pipe()
		if float64(inFlight)+1 > ep.cwnd {
			return
		}
		budget := int64(ep.cwnd) - inFlight
		// Retransmissions first.
		if len(ep.rtxQueue) > 0 {
			h := ep.rtxQueue[0]
			n := h[1] - h[0]
			if n > ep.cfg.MSS {
				n = ep.cfg.MSS
			}
			if n > budget {
				return
			}
			if n == h[1]-h[0] {
				ep.rtxQueue = ep.rtxQueue[1:]
			} else {
				ep.rtxQueue[0][0] += n
			}
			ep.rtxQueueBytes -= n
			ep.sendSegment(h[0], n, true)
			continue
		}
		if ep.sndNxt >= ep.sndTotal {
			return
		}
		seg := ep.cfg.MSS
		if rem := ep.sndTotal - ep.sndNxt; rem < seg {
			seg = rem
		}
		if seg > budget {
			// Silly-window avoidance: wait for the window to open a full
			// segment rather than dribbling sub-MSS packets.
			return
		}
		ep.sendSegment(ep.sndNxt, seg, false)
		ep.timing = append(ep.timing, segTiming{end: ep.sndNxt + seg, t: ep.eng.Now()})
		ep.sndNxt += seg
	}
}

func (ep *Endpoint) sendSegment(seq, n int64, rtx bool) {
	ep.SentData++
	ep.cSegments.Inc()
	ep.lastSend = ep.eng.Now()
	if rtx {
		ep.Retransmits++
		ep.cRetransmits.Inc()
		// Karn's rule: never sample RTT from ranges touched by a
		// retransmission.
		for i := range ep.timing {
			if ep.timing[i].end > seq {
				ep.timing[i].rtxd = true
			}
		}
	}
	var app, hs int64
	if ep.classify != nil {
		app, hs = ep.classify(seq, seq+n)
	} else {
		app = n
	}
	v := packet.View{
		Dir:         ep.dir,
		Proto:       packet.TCP,
		ConnID:      ep.cfg.ConnID,
		ServerIP:    ep.cfg.ServerIP,
		TCPSeq:      seq,
		TCPPayload:  n,
		TLSAppBytes: app,
		TLSHSBytes:  hs,
	}
	if ep.sniHost != "" && seq < ep.sniEnd {
		v.SNI = ep.sniHost
	}
	p := &packet.Packet{
		Size: packet.IPHeader + packet.TCPHeader + n,
		View: v,
	}
	peer := ep.peer
	p.Arrive = func(now float64) { peer.onData(seq, n) }
	ep.out.Send(p)
	ep.armRTO()
}

func (ep *Endpoint) armRTO() {
	rto := ep.rto
	if rto < ep.cfg.RTOMin {
		rto = ep.cfg.RTOMin
	}
	ep.rtoTimer.Reset(rto)
}

func (ep *Endpoint) onRTO() {
	if ep.sndUna >= ep.sndNxt {
		return // nothing outstanding
	}
	ep.Timeouts++
	ep.cTimeouts.Inc()
	inFlight := ep.sndNxt - ep.sndUna
	ep.ssthresh = float64(max64(inFlight/2, 2*ep.cfg.MSS))
	ep.cwnd = float64(ep.cfg.MSS)
	if ep.tr != nil {
		ep.tr.Event("tcp", "rto",
			obs.Int("conn", int64(ep.cfg.ConnID)),
			obs.Float("rto", ep.rto),
			obs.Int("in_flight", inFlight))
		ep.traceCwnd()
	}
	ep.inRecovery = false
	// Forget scoreboard plans; rebuild from fresh SACK information.
	ep.rtxQueue = nil
	ep.rtxQueueBytes = 0
	ep.rtxMarked = ivl.Set{}
	ep.rto *= 2
	if ep.rto > 60 {
		ep.rto = 60
	}
	n := ep.cfg.MSS
	if rem := ep.sndNxt - ep.sndUna; rem < n {
		n = rem
	}
	ep.sendSegment(ep.sndUna, n, true)
}

// onData runs at the receiving endpoint when a data segment arrives.
func (ep *Endpoint) onData(seq, n int64) {
	ep.received.Add(seq, seq+n)
	newNxt := ep.received.ContiguousFrom(ep.rcvNxt)
	if newNxt > ep.rcvNxt {
		ep.DeliveredByte += newNxt - ep.rcvNxt
		ep.rcvNxt = newNxt
		ep.fireInbox()
	}
	ep.sendAck()
}

func (ep *Endpoint) fireInbox() {
	now := ep.eng.Now()
	i := 0
	for ; i < len(ep.inbox) && ep.inbox[i].end <= ep.rcvNxt; i++ {
		ep.inbox[i].fn(now)
	}
	if i > 0 {
		ep.inbox = append(ep.inbox[:0], ep.inbox[i:]...)
	}
}

// sendAck emits a pure ACK for the current rcvNxt plus SACK blocks for any
// out-of-order data.
func (ep *Endpoint) sendAck() {
	ep.SentAcks++
	ack := ep.rcvNxt
	sack := ep.received.SpansAbove(ep.rcvNxt, maxSackBlocks)
	v := packet.View{
		Dir:      ep.dir,
		Proto:    packet.TCP,
		ConnID:   ep.cfg.ConnID,
		ServerIP: ep.cfg.ServerIP,
		TCPSeq:   ep.sndTotal, // pure ACK: current send offset, no payload
	}
	p := &packet.Packet{
		Size: packet.IPHeader + packet.TCPHeader,
		View: v,
	}
	peer := ep.peer
	p.Arrive = func(now float64) { peer.onAck(ack, sack) }
	ep.out.Send(p)
}

// onAck runs at the data sender when an ACK (with SACK blocks) arrives.
func (ep *Endpoint) onAck(ack int64, sack [][2]int64) {
	newlyAcked := int64(0)
	if ack > ep.sndUna {
		newlyAcked = ack - ep.sndUna
		ep.sndUna = ack
		ep.sampleRTT(ack)
		if ep.inRecovery && ack >= ep.recoverPoint {
			ep.inRecovery = false
		}
	}
	for _, b := range sack {
		ep.sacked.Add(b[0], b[1])
	}

	// Scoreboard: holes below the highest SACKed byte are presumed lost.
	var highest int64
	if len(sack) > 0 {
		highest = sack[len(sack)-1][1]
	}
	newHole := false
	if highest > ep.sndUna {
		for _, gap := range ep.sacked.Gaps(ep.sndUna, highest) {
			// Queue each hole only once per recovery epoch.
			for _, sub := range ep.rtxMarked.Gaps(gap[0], gap[1]) {
				ep.rtxMarked.Add(sub[0], sub[1])
				ep.rtxQueue = append(ep.rtxQueue, sub)
				ep.rtxQueueBytes += sub[1] - sub[0]
				newHole = true
				ep.FastRetx++
				ep.cFastRetx.Inc()
			}
		}
	}
	if newHole && !ep.inRecovery {
		ep.inRecovery = true
		ep.recoverPoint = ep.sndNxt
		ep.ssthresh = float64(max64(int64(ep.cwnd/2), 2*ep.cfg.MSS))
		ep.cwnd = ep.ssthresh
		if ep.tr != nil {
			ep.tr.Event("tcp", "fast_retx",
				obs.Int("conn", int64(ep.cfg.ConnID)),
				obs.Float("cwnd", ep.cwnd))
		}
	}

	// Window growth outside recovery.
	if newlyAcked > 0 && !ep.inRecovery {
		if ep.cwnd < ep.ssthresh {
			ep.cwnd += float64(newlyAcked) // slow start
			// HyStart-style exit: queueing delay building up means the
			// pipe is full; stop exponential growth before the overshoot
			// causes a burst of drops.
			if ep.minRTT > 0 && ep.srtt > 1.5*ep.minRTT {
				ep.ssthresh = ep.cwnd
			}
		} else {
			ep.cwnd += float64(ep.cfg.MSS) * float64(newlyAcked) / ep.cwnd
		}
	}

	if newlyAcked > 0 {
		ep.rto = ep.computeRTO()
		ep.traceCwnd()
	}
	if ep.sndUna < ep.sndNxt {
		if newlyAcked > 0 {
			ep.armRTO()
		}
	} else {
		ep.rtoTimer.Stop()
	}
	ep.trySend()
}

func (ep *Endpoint) sampleRTT(ack int64) {
	now := ep.eng.Now()
	i := 0
	for ; i < len(ep.timing) && ep.timing[i].end <= ack; i++ {
		st := ep.timing[i]
		if st.rtxd {
			continue
		}
		rtt := now - st.t
		if ep.minRTT == 0 || rtt < ep.minRTT {
			ep.minRTT = rtt
		}
		if ep.srtt == 0 {
			ep.srtt = rtt
			ep.rttvar = rtt / 2
		} else {
			d := ep.srtt - rtt
			if d < 0 {
				d = -d
			}
			ep.rttvar = 0.75*ep.rttvar + 0.25*d
			ep.srtt = 0.875*ep.srtt + 0.125*rtt
		}
	}
	if i > 0 {
		ep.timing = append(ep.timing[:0], ep.timing[i:]...)
	}
}

func (ep *Endpoint) computeRTO() float64 {
	if ep.srtt == 0 {
		return 1.0
	}
	rto := ep.srtt + 4*ep.rttvar
	if rto < ep.cfg.RTOMin {
		rto = ep.cfg.RTOMin
	}
	return rto
}

// RcvNxt exposes the contiguous receive offset (diagnostics, tests).
func (ep *Endpoint) RcvNxt() int64 { return ep.rcvNxt }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
