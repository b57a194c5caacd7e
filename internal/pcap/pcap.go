// Package pcap bridges the simulator's monitor-visible packet views and
// the classic libpcap capture format.
//
// The reader is the practically important direction: it parses a real
// packet capture (raw-IP or Ethernet link types) into capture.Trace views —
// IPv4/TCP/UDP headers, TCP stream reassembly, TLS record scanning for the
// application/handshake byte split, and SNI extraction from ClientHello —
// so the CSI inference can run on traffic recorded outside the simulator,
// which is exactly how the paper's tool is used. QUIC packet numbers are
// parsed for gQUIC-era cleartext headers; IETF QUIC encrypts packet
// numbers, in which case only sizes and the long/short header flag are
// recovered (the estimator needs nothing more).
//
// The writer serializes a simulated trace as a pcap file with faithful
// IPv4/TCP/UDP headers, timing, sizes and sequence numbers (payloads are
// zero-filled), so standard tools (tcpdump, Wireshark) can inspect
// simulated runs.
package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"

	"csi/internal/capture"
	"csi/internal/packet"
)

const (
	magicMicros  = 0xa1b2c3d4
	linkTypeRaw  = 101 // LINKTYPE_RAW: packets start at the IPv4/IPv6 header
	linkTypeEth  = 1   // LINKTYPE_ETHERNET
	snapLen      = 262144
	clientIPStr  = "10.0.0.2"
	serverPort   = 443
	clientPort0  = 40000
	tlsRecHeader = 5
)

// --- Writer ---

// Write serializes the trace as a pcap file (raw-IP link type). Client and
// server addresses are synthesized: the device is 10.0.0.2; servers use
// their recorded ServerIP or a per-connection placeholder.
func Write(w io.Writer, tr *capture.Trace) error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:], 2)
	binary.LittleEndian.PutUint16(hdr[6:], 4)
	binary.LittleEndian.PutUint32(hdr[16:], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkTypeRaw)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	clientIP := net.ParseIP(clientIPStr).To4()
	dnsID := uint16(0)
	for i := range tr.Packets {
		v := &tr.Packets[i]
		srv := net.ParseIP(v.ServerIP)
		if srv == nil {
			srv = net.IPv4(192, 0, 2, byte(10+v.ConnID%200))
		}
		srv = srv.To4()
		if srv == nil {
			return fmt.Errorf("pcap: non-IPv4 server address %q", v.ServerIP)
		}
		if v.DNSQuery != "" {
			dnsID++
		}
		pkt, err := buildPacketBytes(v, clientIP, srv, dnsID)
		if err != nil {
			return err
		}
		var ph [16]byte
		sec := int64(v.Time)
		usec := int64((v.Time - float64(sec)) * 1e6)
		binary.LittleEndian.PutUint32(ph[0:], uint32(sec))
		binary.LittleEndian.PutUint32(ph[4:], uint32(usec))
		binary.LittleEndian.PutUint32(ph[8:], uint32(len(pkt)))
		binary.LittleEndian.PutUint32(ph[12:], uint32(v.Size))
		if _, err := w.Write(ph[:]); err != nil {
			return err
		}
		if _, err := w.Write(pkt); err != nil {
			return err
		}
	}
	return nil
}

func buildPacketBytes(v *packet.View, client, server net.IP, dnsID uint16) ([]byte, error) {
	src, dst := client, server
	sport, dport := uint16(clientPort0+v.ConnID), uint16(serverPort)
	if v.Dir == packet.Down {
		src, dst = server, client
		sport, dport = uint16(serverPort), uint16(clientPort0+v.ConnID)
	}
	size := v.Size
	if size < packet.IPHeader+8 {
		size = packet.IPHeader + 8
	}
	if size > snapLen {
		size = snapLen
	}
	buf := make([]byte, size)
	// IPv4 header.
	buf[0] = 0x45
	binary.BigEndian.PutUint16(buf[2:], uint16(size))
	buf[8] = 64 // TTL
	copy(buf[12:16], src)
	copy(buf[16:20], dst)
	switch v.Proto {
	case packet.TCP:
		buf[9] = 6
		tcp := buf[20:]
		binary.BigEndian.PutUint16(tcp[0:], sport)
		binary.BigEndian.PutUint16(tcp[2:], dport)
		binary.BigEndian.PutUint32(tcp[4:], uint32(v.TCPSeq))
		// Data offset: our simulated TCP header is 32 bytes (with
		// options); encode 8 words.
		tcp[12] = 8 << 4
		tcp[13] = 0x10 // ACK flag
		// The SNI-bearing packet gets a genuine ClientHello record so
		// tools (and our reader) can recover the server name; other
		// payloads are zero-filled.
		if v.SNI != "" && v.TCPPayload > 0 {
			payload := tcp[32:]
			hello := tlsRecordBytes(22, clientHelloBytes(v.SNI), len(payload))
			copy(payload, hello)
		}
	case packet.UDP:
		buf[9] = 17
		udp := buf[20:]
		if v.DNSQuery != "" {
			// Genuine DNS wire format on port 53.
			var body []byte
			if v.DNSAnswerIP != "" {
				sport, dport = dnsPort, uint16(clientPort0)
				if v.Dir == packet.Up {
					sport, dport = uint16(clientPort0), dnsPort
				}
				body = buildDNSResponse(v.DNSQuery, net.ParseIP(v.DNSAnswerIP), dnsID)
			} else {
				dport = dnsPort
				sport = uint16(clientPort0)
				body = buildDNSQuery(v.DNSQuery, dnsID)
			}
			need := packet.IPHeader + 8 + len(body)
			if int(size) < need {
				buf = append(buf, make([]byte, need-int(size))...)
				size = int64(need)
				binary.BigEndian.PutUint16(buf[2:], uint16(size))
				udp = buf[20:]
			}
			copy(udp[8:], body)
		}
		binary.BigEndian.PutUint16(udp[0:], sport)
		binary.BigEndian.PutUint16(udp[2:], dport)
		binary.BigEndian.PutUint16(udp[4:], uint16(size-packet.IPHeader))
	default:
		return nil, fmt.Errorf("pcap: unknown proto %v", v.Proto)
	}
	return buf, nil
}

// tlsRecordBytes frames body as a type-typ record padded to fill exactly
// space bytes (record length = space-5), truncating if body is larger.
func tlsRecordBytes(typ byte, body []byte, space int) []byte {
	if space < 6 {
		return nil
	}
	out := make([]byte, space)
	out[0] = typ
	out[1], out[2] = 3, 3
	binary.BigEndian.PutUint16(out[3:], uint16(space-5))
	copy(out[5:], body)
	return out
}

// clientHelloBytes builds a minimal well-formed ClientHello carrying host
// as the server_name extension.
func clientHelloBytes(host string) []byte {
	var body []byte
	body = append(body, 3, 3)
	body = append(body, make([]byte, 32)...)
	body = append(body, 0)
	body = append(body, 0, 2, 0x13, 1)
	body = append(body, 1, 0)
	nameList := make([]byte, 5+len(host))
	binary.BigEndian.PutUint16(nameList[0:], uint16(3+len(host)))
	nameList[2] = 0
	binary.BigEndian.PutUint16(nameList[3:], uint16(len(host)))
	copy(nameList[5:], host)
	var ext []byte
	ext = append(ext, 0, 0)
	var ln [2]byte
	binary.BigEndian.PutUint16(ln[:], uint16(len(nameList)))
	ext = append(ext, ln[:]...)
	ext = append(ext, nameList...)
	binary.BigEndian.PutUint16(ln[:], uint16(len(ext)))
	body = append(body, ln[:]...)
	body = append(body, ext...)
	msg := make([]byte, 4+len(body))
	msg[0] = 1
	msg[1] = 0
	binary.BigEndian.PutUint16(msg[2:], uint16(len(body)))
	copy(msg[4:], body)
	return msg
}

// --- Reader ---

// ReadConfig controls how a capture is interpreted.
type ReadConfig struct {
	// ClientNet identifies the device side of the path: packets with a
	// source inside it are uplink. Default 10.0.0.0/8.
	ClientNet *net.IPNet
	// QUICPort marks UDP flows to treat as QUIC. Default 443.
	QUICPort int
}

func (c ReadConfig) withDefaults() ReadConfig {
	if c.ClientNet == nil {
		_, n, _ := net.ParseCIDR("10.0.0.0/8")
		c.ClientNet = n
	}
	if c.QUICPort == 0 {
		c.QUICPort = 443
	}
	return c
}

// flowKey identifies a bidirectional 5-tuple (client side normalized).
type flowKey struct {
	clientIP, serverIP string
	clientPort, sport  uint16
	proto              packet.Proto
}

type rawPacket struct {
	view             packet.View
	payload          []byte // transport payload bytes (TCP segment / UDP datagram body)
	srcIP, dstIP     string
	srcPort, dstPort uint16
}

// LoadRun opens a run in JSON, binary or pcap format (.pcap by extension,
// the other two by capture.LoadAny's sniffing). Pcap captures carry only
// the packet trace (no instrumentation side band).
func LoadRun(path string) (*capture.Run, error) {
	if !strings.HasSuffix(path, ".pcap") {
		return capture.LoadAny(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := Read(f, ReadConfig{})
	if err != nil {
		return nil, err
	}
	return &capture.Run{Trace: tr}, nil
}

// Read parses a pcap file into a capture.Trace, reconstructing the
// monitor-visible fields CSI consumes.
func Read(r io.Reader, cfg ReadConfig) (*capture.Trace, error) {
	cfg = cfg.withDefaults()
	var gh [24]byte
	if _, err := io.ReadFull(r, gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	var order binary.ByteOrder = binary.LittleEndian
	magic := binary.LittleEndian.Uint32(gh[0:])
	switch magic {
	case magicMicros:
	case 0xd4c3b2a1:
		order = binary.BigEndian
	case 0xa1b23c4d: // nanosecond variant
	default:
		if binary.BigEndian.Uint32(gh[0:]) == magicMicros {
			order = binary.BigEndian
		} else {
			return nil, fmt.Errorf("pcap: bad magic %#x", magic)
		}
	}
	nanos := magic == 0xa1b23c4d
	link := order.Uint32(gh[20:])
	if link != linkTypeRaw && link != linkTypeEth {
		return nil, fmt.Errorf("pcap: unsupported link type %d", link)
	}

	conns := map[flowKey]int{}
	nextConn := 1
	var raws []rawPacket
	tr := capture.NewTrace()

	for {
		var ph [16]byte
		if _, err := io.ReadFull(r, ph[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("pcap: reading packet header: %w", err)
		}
		sec := order.Uint32(ph[0:])
		sub := order.Uint32(ph[4:])
		incl := order.Uint32(ph[8:])
		orig := order.Uint32(ph[12:])
		if incl > snapLen {
			return nil, fmt.Errorf("pcap: implausible packet length %d", incl)
		}
		data := make([]byte, incl)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("pcap: truncated packet body: %w", err)
		}
		if link == linkTypeEth {
			if len(data) < 14 {
				continue
			}
			etype := binary.BigEndian.Uint16(data[12:])
			if etype != 0x0800 {
				continue // not IPv4
			}
			data = data[14:]
		}
		ts := float64(sec)
		if nanos {
			ts += float64(sub) / 1e9
		} else {
			ts += float64(sub) / 1e6
		}
		rp, ok := parseIPv4(data, ts, int64(orig), cfg)
		if !ok {
			continue
		}
		key := rp.flowKey(cfg)
		id, seen := conns[key]
		if !seen {
			id = nextConn
			nextConn++
			conns[key] = id
		}
		rp.view.ConnID = id
		raws = append(raws, rp)
	}

	// TLS post-processing per TCP connection: reassemble both directions,
	// scan record boundaries, classify per-packet byte ranges, extract the
	// SNI from the first ClientHello.
	classifyTLS(raws)

	tap := tr.Tap()
	for i := range raws {
		tap(raws[i].view, raws[i].view.Time)
	}
	if len(tr.Packets) == 0 {
		return nil, fmt.Errorf("pcap: no parseable IPv4 TCP/UDP packets")
	}
	return tr, nil
}

func (rp *rawPacket) flowKey(cfg ReadConfig) flowKey {
	v := &rp.view
	if v.Dir == packet.Up {
		return flowKey{clientIP: rp.srcIP, serverIP: rp.dstIP, clientPort: rp.srcPort, sport: rp.dstPort, proto: v.Proto}
	}
	return flowKey{clientIP: rp.dstIP, serverIP: rp.srcIP, clientPort: rp.dstPort, sport: rp.srcPort, proto: v.Proto}
}

func parseIPv4(data []byte, ts float64, origLen int64, cfg ReadConfig) (rawPacket, bool) {
	var rp rawPacket
	if len(data) < 20 || data[0]>>4 != 4 {
		return rp, false
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		return rp, false
	}
	totalLen := int(binary.BigEndian.Uint16(data[2:]))
	if totalLen > len(data) || totalLen < ihl {
		totalLen = len(data)
	}
	proto := data[9]
	src := net.IP(data[12:16])
	dst := net.IP(data[16:20])
	rp.srcIP, rp.dstIP = src.String(), dst.String()
	rp.view.Time = ts
	rp.view.Size = origLen
	if cfg.ClientNet.Contains(src) {
		rp.view.Dir = packet.Up
		rp.view.ServerIP = rp.dstIP
	} else {
		rp.view.Dir = packet.Down
		rp.view.ServerIP = rp.srcIP
	}
	body := data[ihl:totalLen]
	switch proto {
	case 6: // TCP
		if len(body) < 20 {
			return rp, false
		}
		rp.view.Proto = packet.TCP
		rp.srcPort = binary.BigEndian.Uint16(body[0:])
		rp.dstPort = binary.BigEndian.Uint16(body[2:])
		rp.view.TCPSeq = int64(binary.BigEndian.Uint32(body[4:]))
		off := int(body[12]>>4) * 4
		if off < 20 || len(body) < off {
			return rp, false
		}
		rp.payload = body[off:]
		rp.view.TCPPayload = int64(len(rp.payload))
	case 17: // UDP
		if len(body) < 8 {
			return rp, false
		}
		rp.view.Proto = packet.UDP
		rp.srcPort = binary.BigEndian.Uint16(body[0:])
		rp.dstPort = binary.BigEndian.Uint16(body[2:])
		rp.payload = body[8:]
		if !applyDNSView(&rp) {
			parseQUIC(&rp)
		}
	default:
		return rp, false
	}
	return rp, true
}

// parseQUIC extracts what a monitor can read from a QUIC packet: the
// long/short header flag and, for cleartext-pn formats, a packet number.
// IETF QUIC encrypts packet numbers; sizes remain available either way.
func parseQUIC(rp *rawPacket) {
	p := rp.payload
	if len(p) == 0 {
		return
	}
	rp.view.QUICLong = p[0]&0x80 != 0
	if rp.view.QUICLong {
		rp.view.QUICPayload = int64(len(p)) - packet.QUICLongHeader
	} else {
		rp.view.QUICPayload = int64(len(p)) - packet.QUICShortHeader
		// Cleartext 4-byte packet number at the simulator's offset
		// (flags + 8-byte CID). Real IETF QUIC headers are protected;
		// this recovers pns for gQUIC-era and simulator-written captures.
		if len(p) >= packet.QUICShortHeader {
			rp.view.QUICPN = int64(binary.BigEndian.Uint32(p[9:13]))
		}
	}
	if rp.view.QUICPayload < 0 {
		rp.view.QUICPayload = 0
	}
}

// classifyTLS reconstructs, for every TCP connection direction, the TLS
// record layout from the reassembled byte stream and attributes each
// packet's payload range to application-data vs handshake record bytes —
// the arithmetic of §3.2 performed the way a real monitor has to.
func classifyTLS(raws []rawPacket) {
	type dirKey struct {
		conn int
		dir  packet.Dir
	}
	type segment struct {
		off  int64
		data []byte
		idx  int // index into raws
	}
	streams := map[dirKey][]segment{}
	for i := range raws {
		v := &raws[i].view
		if v.Proto != packet.TCP || v.TCPPayload == 0 {
			continue
		}
		k := dirKey{conn: v.ConnID, dir: v.Dir}
		streams[k] = append(streams[k], segment{off: v.TCPSeq, data: raws[i].payload, idx: i})
	}
	for _, segs := range streams {
		// Reassemble: sort by offset, drop duplicate coverage.
		sort.SliceStable(segs, func(a, b int) bool { return segs[a].off < segs[b].off })
		base := segs[0].off
		var end int64 = base
		for _, s := range segs {
			if e := s.off + int64(len(s.data)); e > end {
				end = e
			}
		}
		if end-base > 1<<30 {
			continue // implausible; skip classification
		}
		stream := make([]byte, end-base)
		have := make([]bool, end-base)
		for _, s := range segs {
			copy(stream[s.off-base:], s.data)
			for j := int64(0); j < int64(len(s.data)); j++ {
				have[s.off-base+j] = true
			}
		}
		// Scan records from the stream start; stop at the first gap.
		type recSeg struct {
			start, end int64 // stream offsets of the record body
			hs         bool
		}
		var recs []recSeg
		var sni string
		pos := int64(0)
		for pos+tlsRecHeader <= int64(len(stream)) {
			if !have[pos] {
				break
			}
			typ := stream[pos]
			if typ < 20 || typ > 23 {
				break // not TLS
			}
			ln := int64(binary.BigEndian.Uint16(stream[pos+3 : pos+5]))
			bodyStart := pos + tlsRecHeader
			bodyEnd := bodyStart + ln
			if ln == 0 || bodyEnd > int64(len(stream)) {
				// Record extends past the capture; classify what we have.
				bodyEnd = int64(len(stream))
			}
			recs = append(recs, recSeg{start: bodyStart, end: bodyEnd, hs: typ == 22})
			if typ == 22 && sni == "" && bodyEnd-bodyStart > 6 && stream[bodyStart] == 1 {
				sni = parseSNI(stream[bodyStart:bodyEnd])
			}
			pos = bodyStart + ln
		}
		if len(recs) == 0 {
			continue
		}
		// Attribute per packet.
		firstData := true
		for _, s := range segs {
			v := &raws[s.idx].view
			from, to := s.off-base, s.off-base+int64(len(s.data))
			var app, hs int64
			for _, rc := range recs {
				lo, hi := max64(from, rc.start), min64(to, rc.end)
				if hi <= lo {
					continue
				}
				if rc.hs {
					hs += hi - lo
				} else {
					app += hi - lo
				}
			}
			v.TLSAppBytes = app
			v.TLSHSBytes = hs
			if firstData && sni != "" && v.Dir == packet.Up {
				v.SNI = sni
			}
			firstData = false
		}
	}
}

// parseSNI walks a ClientHello handshake message and returns the
// server_name extension's hostname, if present.
func parseSNI(hello []byte) string {
	// Handshake header: type(1) + length(3).
	if len(hello) < 4+2+32+1 {
		return ""
	}
	p := 4
	p += 2 + 32 // client_version + random
	if p >= len(hello) {
		return ""
	}
	sidLen := int(hello[p])
	p += 1 + sidLen
	if p+2 > len(hello) {
		return ""
	}
	csLen := int(binary.BigEndian.Uint16(hello[p:]))
	p += 2 + csLen
	if p+1 > len(hello) {
		return ""
	}
	cmLen := int(hello[p])
	p += 1 + cmLen
	if p+2 > len(hello) {
		return ""
	}
	extLen := int(binary.BigEndian.Uint16(hello[p:]))
	p += 2
	end := p + extLen
	if end > len(hello) {
		end = len(hello)
	}
	for p+4 <= end {
		typ := int(binary.BigEndian.Uint16(hello[p:]))
		ln := int(binary.BigEndian.Uint16(hello[p+2:]))
		p += 4
		if p+ln > end {
			return ""
		}
		if typ == 0 { // server_name
			q := p
			if q+2 > end {
				return ""
			}
			q += 2 // server_name_list length
			if q+3 > end || hello[q] != 0 {
				return ""
			}
			nameLen := int(binary.BigEndian.Uint16(hello[q+1:]))
			q += 3
			if q+nameLen > end {
				return ""
			}
			return string(hello[q : q+nameLen])
		}
		p += ln
	}
	return ""
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
