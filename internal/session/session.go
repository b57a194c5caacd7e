// Package session orchestrates one streaming test run: it wires the chunk
// server, the emulated network path (optional token-bucket shaper upstream
// of the gateway, then the cellular link), the transport stack for the
// chosen ABR design type, the player, and the gateway packet capture —
// the moving parts of Figure 6 in the paper.
package session

import (
	"fmt"

	"csi/internal/abr"
	"csi/internal/capture"
	"csi/internal/media"
	"csi/internal/netem"
	"csi/internal/obs"
	"csi/internal/packet"
	"csi/internal/quicsim"
	"csi/internal/sim"
	"csi/internal/tcpsim"
	"csi/internal/tlssim"
	"csi/internal/webproto"
)

// Design is the ABR streaming system design type of Table 2: combined or
// separate audio, HTTPS or QUIC.
type Design int

const (
	CH Design = iota // combined audio+video, HTTPS
	SH               // separate audio, HTTPS (two connections)
	CQ               // combined, QUIC
	SQ               // separate, QUIC (transport multiplexing)
)

func (d Design) String() string {
	switch d {
	case CH:
		return "CH"
	case SH:
		return "SH"
	case CQ:
		return "CQ"
	case SQ:
		return "SQ"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// ParseDesign converts "CH"/"SH"/"CQ"/"SQ".
func ParseDesign(s string) (Design, error) {
	switch s {
	case "CH":
		return CH, nil
	case "SH":
		return SH, nil
	case "CQ":
		return CQ, nil
	case "SQ":
		return SQ, nil
	default:
		return 0, fmt.Errorf("session: unknown design %q", s)
	}
}

// Separate reports whether the design uses separate audio tracks.
func (d Design) Separate() bool { return d == SH || d == SQ }

// Config describes one test run.
type Config struct {
	Design   Design
	Manifest *media.Manifest
	Algo     abr.Algorithm // default abr.Exo{}

	Bandwidth   *netem.BandwidthTrace    // downlink cellular bandwidth; required
	Shaper      *netem.TokenBucketConfig // optional, upstream of the gateway
	UplinkBps   float64                  // default 20 Mbit/s
	RTT         float64                  // round-trip propagation; default 0.06 s
	LossProb    float64                  // downlink radio loss; default 0.005
	ReorderProb float64                  // downlink reordering probability; default 0
	QueueCap    int64                    // downlink queue bytes; default 192 KiB
	Duration    float64                  // stop issuing requests after this; default 600 s
	Seed        int64

	// Player knobs (zero = abr defaults).
	MaxBufferSec     float64
	ResumeBufferSec  float64
	StartupChunks    int
	StartIndex       int
	StartupBufferSec float64

	// SkipDecoy disables the background metadata fetch to a non-media host
	// (enabled by default to exercise CSI's SNI connection filtering).
	SkipDecoy bool

	// StripSNI removes the SNI from all captured packets, simulating
	// encrypted ClientHello / ESNI deployments: CSI must then fall back to
	// DNS + server-IP association (§5.3.1).
	StripSNI bool

	// Obs traces the whole session stack (engine, transports, player). The
	// tracer's clock is rebound to the session engine's virtual clock for
	// the duration of the run. Nil disables instrumentation.
	Obs *obs.Tracer
}

// Stats summarizes transport- and player-level outcomes of a run.
type Stats struct {
	DownlinkPackets int64
	DownlinkBytes   int64
	QueueDrops      int64
	RandomDrops     int64
	VideoChunks     int
	AudioChunks     int
	Stalls          int
	FinalThroughput float64
}

// Result is everything a run produces.
type Result struct {
	Run   *capture.Run
	Stats Stats
}

// MediaHost is the SNI the media connections use; the decoy metadata fetch
// uses DecoyHost.
const (
	DecoyHost = "api.example.com"
	decoySize = 120_000
)

// Run executes one streaming session and returns the captured run.
func Run(cfg Config) (*Result, error) {
	if cfg.Manifest == nil {
		return nil, fmt.Errorf("session: nil manifest")
	}
	if err := cfg.Manifest.Validate(); err != nil {
		return nil, err
	}
	if cfg.Bandwidth == nil {
		return nil, fmt.Errorf("session: nil bandwidth trace")
	}
	if cfg.Design.Separate() && !cfg.Manifest.HasSeparateAudio() {
		return nil, fmt.Errorf("session: design %v needs separate audio tracks in the manifest", cfg.Design)
	}
	if !cfg.Design.Separate() && cfg.Manifest.HasSeparateAudio() {
		return nil, fmt.Errorf("session: design %v needs a combined (video-only) manifest", cfg.Design)
	}
	if cfg.Algo == nil {
		cfg.Algo = abr.Exo{}
	}
	if cfg.UplinkBps == 0 {
		cfg.UplinkBps = 20_000_000
	}
	if cfg.RTT == 0 {
		cfg.RTT = 0.06
	}
	if cfg.LossProb == 0 {
		cfg.LossProb = 0.005
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 192 * 1024
	}
	if cfg.Duration == 0 {
		cfg.Duration = 600
	}

	eng := sim.New()
	eng.SetEventLimit(200_000_000)
	cfg.Obs.SetClock(eng.Now)
	eng.Instrument(cfg.Obs)
	runSpan := cfg.Obs.Begin("session", "run",
		obs.Str("design", cfg.Design.String()),
		obs.Int("seed", cfg.Seed),
		obs.Float("duration", cfg.Duration))
	trace := capture.NewTrace()
	tap := trace.Tap()
	if cfg.StripSNI {
		inner := tap
		tap = func(v packet.View, now float64) {
			v.SNI = ""
			inner(v, now)
		}
	}

	// Downlink: server -> [token bucket shaper] -> gateway capture ->
	// cellular link -> device.
	down := netem.NewLink(eng, netem.LinkConfig{
		Trace:       cfg.Bandwidth,
		Delay:       cfg.RTT / 2,
		QueueCap:    cfg.QueueCap,
		LossProb:    cfg.LossProb,
		ReorderProb: cfg.ReorderProb,
		Seed:        cfg.Seed ^ 0x5eed,
	}, func(p *packet.Packet) { p.Arrive(eng.Now()) })
	down.SetTap(tap)
	var downSender packet.Sender = down
	if cfg.Shaper != nil {
		tb, err := netem.NewTokenBucket(eng, *cfg.Shaper, down)
		if err != nil {
			return nil, err
		}
		downSender = tb
	}

	// Uplink: device -> gateway capture -> network -> server.
	up := netem.NewLink(eng, netem.LinkConfig{
		Trace: netem.Constant(cfg.UplinkBps),
		Delay: cfg.RTT / 2,
		Seed:  cfg.Seed ^ 0xcafe,
	}, func(p *packet.Packet) { p.Arrive(eng.Now()) })
	up.SetTap(tap)

	// Per-host synthetic server addresses, announced to the monitor by a
	// cleartext DNS exchange before the first connection to each host —
	// the association CSI falls back to when SNI is unavailable.
	nextConnID := 1
	ips := map[string]string{}
	ipFor := func(host string) string {
		if ip, ok := ips[host]; ok {
			return ip
		}
		ip := fmt.Sprintf("203.0.113.%d", len(ips)+10)
		ips[host] = ip
		q := &packet.Packet{
			Size: packet.IPHeader + packet.UDPHeader + int64(18+len(host)),
			View: packet.View{Dir: packet.Up, Proto: packet.UDP, DNSQuery: host},
		}
		q.Arrive = func(now float64) {
			r := &packet.Packet{
				Size: packet.IPHeader + packet.UDPHeader + int64(34+len(host)),
				View: packet.View{Dir: packet.Down, Proto: packet.UDP, DNSQuery: host, DNSAnswerIP: ip},
			}
			r.Arrive = func(now float64) {}
			down.Send(r)
		}
		up.Send(q)
		return ip
	}
	newTCP := func(host string) (*tcpsim.Conn, *tlssim.Session) {
		conn := tcpsim.NewConn(eng, tcpsim.Config{ConnID: nextConnID, ServerIP: ipFor(host), Obs: cfg.Obs}, up, downSender)
		nextConnID++
		return conn, tlssim.NewSession(conn)
	}
	newQUIC := func(host string) *quicsim.Conn {
		conn := quicsim.NewConn(eng, quicsim.Config{ConnID: nextConnID, ServerIP: ipFor(host), Obs: cfg.Obs}, up, downSender)
		nextConnID++
		return conn
	}

	// Decoy metadata fetch on a different host: CSI must ignore this
	// connection via SNI filtering (Step 1.1).
	if !cfg.SkipDecoy {
		dConn, dSess := newTCP(DecoyHost)
		dConn.Start(func(now float64) {
			dSess.Handshake(DecoyHost, func(now float64) {
				dSess.Up.Write(400, tlssim.AppData, func(now float64) {
					dSess.Down.Write(decoySize, tlssim.AppData, nil)
				})
			})
		})
	}

	// Media connections + fetchers per design.
	var videoF, audioF webproto.Fetcher
	pending := 0
	var player *abr.Player
	ready := func(now float64) {
		pending--
		if pending == 0 && player != nil {
			player.Start()
		}
	}

	mediaHost := cfg.Manifest.Host
	if mediaHost == "" {
		mediaHost = "media.example.com"
	}
	switch cfg.Design {
	case CH, SH:
		conn, sess := newTCP(mediaHost)
		videoF = webproto.NewHTTPSFetcher(sess, cfg.Manifest, cfg.Seed+101)
		pending++
		conn.Start(func(now float64) { sess.Handshake(mediaHost, ready) })
		if cfg.Design == SH {
			aConn, aSess := newTCP(mediaHost)
			audioF = webproto.NewHTTPSFetcher(aSess, cfg.Manifest, cfg.Seed+102)
			pending++
			aConn.Start(func(now float64) { aSess.Handshake(mediaHost, ready) })
		}
	case CQ, SQ:
		conn := newQUIC(mediaHost)
		qf := webproto.NewQUICFetcher(conn, cfg.Manifest, cfg.Seed+103)
		videoF = qf
		if cfg.Design == SQ {
			audioF = qf // the same connection: transport multiplexing
		}
		pending++
		conn.Start(mediaHost, ready)
	}

	p, err := abr.NewPlayer(eng, abr.Config{
		Manifest:         cfg.Manifest,
		Algo:             cfg.Algo,
		VideoFetcher:     videoF,
		AudioFetcher:     audioF,
		MaxBufferSec:     cfg.MaxBufferSec,
		ResumeBufferSec:  cfg.ResumeBufferSec,
		StartupChunks:    cfg.StartupChunks,
		StartIndex:       cfg.StartIndex,
		StartupBufferSec: cfg.StartupBufferSec,
		StopAt:           cfg.Duration,
		Obs:              cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	player = p

	eng.Run()
	player.Finish()
	runSpan.End(
		obs.Int("events", eng.Fired()),
		obs.Int("stalls", int64(len(player.Stalls()))))

	res := &Result{
		Run: &capture.Run{
			Trace:   trace,
			Truth:   player.Truth(),
			Display: player.DisplayLog(),
			Stalls:  player.Stalls(),
		},
	}
	res.Stats = Stats{
		DownlinkPackets: down.Delivered,
		DownlinkBytes:   down.Bytes,
		QueueDrops:      down.QueueDrops,
		RandomDrops:     down.RandomDrops,
		Stalls:          len(player.Stalls()),
		FinalThroughput: player.Throughput(),
	}
	for _, tr := range res.Run.Truth {
		if tr.Kind == media.Video {
			res.Stats.VideoChunks++
		} else {
			res.Stats.AudioChunks++
		}
	}
	return res, nil
}
