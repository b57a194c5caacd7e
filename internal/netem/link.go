package netem

import (
	"math/rand"

	"csi/internal/packet"
	"csi/internal/sim"
	"csi/internal/stats"
)

// Tap observes packets entering a link; this is where the gateway's packet
// capture attaches. The tap sees every packet offered to the link — before
// the drop-tail queue and before random (radio) loss — matching an
// AF_PACKET capture on the gateway, which taps egress ahead of the qdisc.
// Traffic lost downstream is therefore still captured, which is exactly why
// QUIC retransmissions inflate CSI's size estimates (§3.2) while TCP
// retransmissions can be discarded by SEQ.
type Tap func(v packet.View, now float64)

// LinkConfig configures one direction of the emulated path.
type LinkConfig struct {
	Trace    *BandwidthTrace // serialization rate; nil = infinite
	Delay    float64         // one-way propagation delay, seconds
	QueueCap int64           // drop-tail queue capacity in bytes; 0 = 256 KiB
	LossProb float64         // random loss after the queue (radio loss)
	// ReorderProb delays a packet by ReorderDelay with this probability,
	// letting later packets overtake it (radio-link reordering). Exercises
	// the transports' reordering tolerance (TCP SACK, QUIC's 3-packet
	// threshold).
	ReorderProb  float64
	ReorderDelay float64 // default 4 ms
	Seed         int64   // for the loss/reordering processes
}

// Link transmits packets in one direction: FIFO serialization at the trace
// rate behind a drop-tail queue, then propagation delay, then optional
// random loss. Deliver is invoked on the receiving endpoint.
type Link struct {
	eng     *sim.Engine
	cfg     LinkConfig
	rng     *rand.Rand
	deliver func(p *packet.Packet)
	tap     Tap

	busyUntil float64
	queued    int64

	// Counters for tests and diagnostics.
	Sent        int64
	QueueDrops  int64
	RandomDrops int64
	Reordered   int64
	Delivered   int64
	Bytes       int64
}

// NewLink creates a link that hands delivered packets to deliver.
func NewLink(eng *sim.Engine, cfg LinkConfig, deliver func(p *packet.Packet)) *Link {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 256 * 1024
	}
	if cfg.ReorderDelay == 0 {
		cfg.ReorderDelay = 0.004
	}
	return &Link{
		eng:     eng,
		cfg:     cfg,
		rng:     stats.NewRand(cfg.Seed),
		deliver: deliver,
	}
}

// SetTap installs the capture tap.
func (l *Link) SetTap(t Tap) { l.tap = t }

// Send implements packet.Sender.
func (l *Link) Send(p *packet.Packet) {
	now := l.eng.Now()
	l.Sent++
	if l.tap != nil {
		v := p.View
		v.Time = now
		v.Size = p.Size
		l.tap(v, now)
	}
	if l.queued+p.Size > l.cfg.QueueCap {
		l.QueueDrops++
		return
	}
	l.queued += p.Size
	start := l.busyUntil
	if now > start {
		start = now
	}
	var finish float64
	if l.cfg.Trace != nil {
		finish = l.cfg.Trace.FinishTime(start, float64(p.Size))
	} else {
		finish = start
	}
	l.busyUntil = finish
	lost := l.cfg.LossProb > 0 && l.rng.Float64() < l.cfg.LossProb
	l.eng.At(finish, func() {
		l.queued -= p.Size
		if lost {
			l.RandomDrops++
			return
		}
		delay := l.cfg.Delay
		if l.cfg.ReorderProb > 0 && l.rng.Float64() < l.cfg.ReorderProb {
			delay += l.cfg.ReorderDelay
			l.Reordered++
		}
		l.eng.Schedule(delay, func() {
			l.Delivered++
			l.Bytes += p.Size
			l.deliver(p)
		})
	})
}
