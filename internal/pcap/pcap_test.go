package pcap

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"csi/internal/core"
	"csi/internal/media"
	"csi/internal/media/mediatest"
	"csi/internal/netem"
	"csi/internal/packet"
	"csi/internal/session"
)

// --- helpers to build a REAL pcap with genuine TLS bytes ---

type pcapBuilder struct {
	buf bytes.Buffer
}

func newBuilder() *pcapBuilder {
	b := &pcapBuilder{}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:], 2)
	binary.LittleEndian.PutUint16(hdr[6:], 4)
	binary.LittleEndian.PutUint32(hdr[16:], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkTypeRaw)
	b.buf.Write(hdr[:])
	return b
}

func (b *pcapBuilder) addIPv4(ts float64, src, dst [4]byte, proto byte, transport []byte) {
	total := 20 + len(transport)
	pkt := make([]byte, total)
	pkt[0] = 0x45
	binary.BigEndian.PutUint16(pkt[2:], uint16(total))
	pkt[8] = 64
	pkt[9] = proto
	copy(pkt[12:16], src[:])
	copy(pkt[16:20], dst[:])
	copy(pkt[20:], transport)
	var ph [16]byte
	sec := int64(ts)
	binary.LittleEndian.PutUint32(ph[0:], uint32(sec))
	binary.LittleEndian.PutUint32(ph[4:], uint32((ts-float64(sec))*1e6))
	binary.LittleEndian.PutUint32(ph[8:], uint32(total))
	binary.LittleEndian.PutUint32(ph[12:], uint32(total))
	b.buf.Write(ph[:])
	b.buf.Write(pkt)
}

func tcpSegment(sport, dport uint16, seq uint32, payload []byte) []byte {
	seg := make([]byte, 20+len(payload))
	binary.BigEndian.PutUint16(seg[0:], sport)
	binary.BigEndian.PutUint16(seg[2:], dport)
	binary.BigEndian.PutUint32(seg[4:], seq)
	seg[12] = 5 << 4
	seg[13] = 0x10
	copy(seg[20:], payload)
	return seg
}

// tlsRecord frames a payload as one TLS record of the given type.
func tlsRecord(typ byte, payload []byte) []byte {
	rec := make([]byte, 5+len(payload))
	rec[0] = typ
	rec[1], rec[2] = 3, 3
	binary.BigEndian.PutUint16(rec[3:], uint16(len(payload)))
	copy(rec[5:], payload)
	return rec
}

// clientHello builds a minimal but well-formed ClientHello with an SNI.
func clientHello(host string) []byte {
	var body bytes.Buffer
	body.Write([]byte{3, 3})          // client_version
	body.Write(make([]byte, 32))      // random
	body.WriteByte(0)                 // session id length
	body.Write([]byte{0, 2, 0x13, 1}) // one cipher suite
	body.Write([]byte{1, 0})          // compression methods
	var sni bytes.Buffer
	sni.Write([]byte{0, 0}) // extension type server_name
	nameList := make([]byte, 5+len(host))
	binary.BigEndian.PutUint16(nameList[0:], uint16(3+len(host)))
	nameList[2] = 0
	binary.BigEndian.PutUint16(nameList[3:], uint16(len(host)))
	copy(nameList[5:], host)
	ext := make([]byte, 2)
	binary.BigEndian.PutUint16(ext, uint16(len(nameList)))
	sni.Write(ext)
	sni.Write(nameList)
	extsLen := make([]byte, 2)
	binary.BigEndian.PutUint16(extsLen, uint16(sni.Len()))
	body.Write(extsLen)
	body.Write(sni.Bytes())

	msg := make([]byte, 4+body.Len())
	msg[0] = 1 // handshake type client_hello
	msg[1] = 0
	binary.BigEndian.PutUint16(msg[2:], uint16(body.Len()))
	copy(msg[4:], body.Bytes())
	return msg
}

var (
	clientAddr = [4]byte{10, 0, 0, 2}
	serverAddr = [4]byte{203, 0, 113, 10}
)

func TestReadRealTLSCapture(t *testing.T) {
	b := newBuilder()
	// Uplink ClientHello with SNI, as one TLS handshake record.
	hello := tlsRecord(22, clientHello("media.example.com"))
	b.addIPv4(0.10, clientAddr, serverAddr, 6, tcpSegment(40001, 443, 0, hello))
	// Downlink handshake record (server flight).
	sflight := tlsRecord(22, make([]byte, 900))
	b.addIPv4(0.15, serverAddr, clientAddr, 6, tcpSegment(443, 40001, 0, sflight))
	// Uplink request: app-data record.
	req := tlsRecord(23, make([]byte, 380))
	b.addIPv4(0.30, clientAddr, serverAddr, 6, tcpSegment(40001, 443, uint32(len(hello)), req))
	// Downlink response: one app-data record of 3000 bytes split across
	// three segments of 1000/1005/1000 wire bytes.
	resp := tlsRecord(23, make([]byte, 3000))
	off := len(sflight)
	for i, chunkLen := range []int{1000, 1005, 1000} {
		start := 0
		for j := 0; j < i; j++ {
			start += []int{1000, 1005, 1000}[j]
		}
		b.addIPv4(0.4+float64(i)*0.01, serverAddr, clientAddr, 6,
			tcpSegment(443, 40001, uint32(off+start), resp[start:start+chunkLen]))
	}
	// A retransmission of the middle response segment (same seq).
	b.addIPv4(0.46, serverAddr, clientAddr, 6,
		tcpSegment(443, 40001, uint32(off+1000), resp[1000:2005]))

	tr, err := Read(bytes.NewReader(b.buf.Bytes()), ReadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) != 7 {
		t.Fatalf("parsed %d packets, want 7", len(tr.Packets))
	}
	ids := tr.ConnIDs("media.example.com")
	if len(ids) != 1 {
		t.Fatalf("SNI connection ids = %v", ids)
	}
	// Handshake vs app classification.
	var app, hs int64
	for _, v := range tr.Packets {
		if v.Dir == packet.Down {
			app += v.TLSAppBytes
			hs += v.TLSHSBytes
		}
	}
	if hs != 900 {
		t.Fatalf("downlink handshake bytes = %d, want 900", hs)
	}
	// 3000 app bytes + 1005 retransmitted (the reader classifies per
	// packet; dedup is the estimator's job).
	if app != 3000+1005 {
		t.Fatalf("downlink app bytes = %d, want %d", app, 3000+1005)
	}

	// The estimator consumes the parsed views end to end: one request of
	// ~3000 bytes (retransmission deduped, headers discounted).
	est, err := core.Estimate(tr, core.Params{MediaHost: "media.example.com"})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Requests) != 1 {
		t.Fatalf("requests = %d, want 1", len(est.Requests))
	}
	if got := est.Requests[0].Est; got != 3000-280 {
		t.Fatalf("estimated size = %d, want %d (dedup + header discount)", got, 3000-280)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a pcap at all")), ReadConfig{}); err == nil {
		t.Fatal("garbage accepted")
	}
	b := newBuilder()
	trunc := b.buf.Bytes()
	if _, err := Read(bytes.NewReader(trunc[:10]), ReadConfig{}); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// Round trip: a simulated session written as pcap and read back must
// preserve connection structure, directions, sizes and TCP seq numbers —
// enough for wireshark-level inspection. (TLS classification is not
// preserved: the writer zero-fills payloads.)
func TestWriteReadRoundTrip(t *testing.T) {
	man := mediatest.Encode(t, media.EncodeConfig{
		Name: "p", Seed: 3, DurationSec: 120, ChunkDur: 5, TargetPASR: 1.3,
	})
	res, err := session.Run(session.Config{
		Design: session.CH, Manifest: man,
		Bandwidth: netem.Constant(4_000_000),
		Duration:  30, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, res.Run.Trace); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()), ReadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// DNS packets carry no ports/conn structure; compare TCP packets.
	var origTCP, gotTCP []packet.View
	for _, v := range res.Run.Trace.Packets {
		if v.Proto == packet.TCP {
			origTCP = append(origTCP, v)
		}
	}
	for _, v := range got.Packets {
		if v.Proto == packet.TCP {
			gotTCP = append(gotTCP, v)
		}
	}
	if len(gotTCP) != len(origTCP) {
		t.Fatalf("TCP packets: got %d, want %d", len(gotTCP), len(origTCP))
	}
	for i := range origTCP {
		o, g := origTCP[i], gotTCP[i]
		if o.Dir != g.Dir || o.Size != g.Size || o.TCPSeq != g.TCPSeq {
			t.Fatalf("packet %d mismatch: orig{dir:%v size:%d seq:%d} got{dir:%v size:%d seq:%d}",
				i, o.Dir, o.Size, o.TCPSeq, g.Dir, g.Size, g.TCPSeq)
		}
		if g.ServerIP != o.ServerIP {
			t.Fatalf("packet %d server ip: %q vs %q", i, g.ServerIP, o.ServerIP)
		}
	}
}

// A written pcap must carry recoverable SNI and DNS associations: the
// reader (or Wireshark) can attribute connections to hostnames, and the
// written ClientHello parses as genuine TLS.
func TestWrittenPcapCarriesHostnames(t *testing.T) {
	man := mediatest.Encode(t, media.EncodeConfig{
		Name: "p2", Seed: 4, DurationSec: 120, ChunkDur: 5, TargetPASR: 1.3,
	})
	res, err := session.Run(session.Config{
		Design: session.CH, Manifest: man,
		Bandwidth: netem.Constant(4_000_000),
		Duration:  30, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, res.Run.Trace); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()), ReadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ids := got.ConnIDs("media.example.com")
	if len(ids) != 1 {
		t.Fatalf("media connections from written pcap = %v, want exactly 1", ids)
	}
	if len(got.DNS) == 0 {
		t.Fatal("DNS associations not recovered from written pcap")
	}
	found := false
	for ip, host := range got.DNS {
		if host == "media.example.com" && ip != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("media host missing from DNS map: %v", got.DNS)
	}
}

// LoadRun opens every run format the commands accept: the same simulated
// run saved as JSON and as binary loads to equal traces, and its pcap
// rendering loads through the pcap reader.
func TestLoadRunFormats(t *testing.T) {
	man := mediatest.Encode(t, media.EncodeConfig{
		Name: "p3", Seed: 5, DurationSec: 120, ChunkDur: 5, TargetPASR: 1.3, AudioTracks: 1,
	})
	res, err := session.Run(session.Config{
		Design: session.SH, Manifest: man,
		Bandwidth: netem.Constant(4_000_000),
		Duration:  30, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jp, bp, pp := filepath.Join(dir, "run.json"), filepath.Join(dir, "run.bin"), filepath.Join(dir, "run.pcap")
	if err := res.Run.SaveJSON(jp); err != nil {
		t.Fatal(err)
	}
	if err := res.Run.SaveBinary(bp); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, res.Run.Trace); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pp, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	fromJSON, err := LoadRun(jp)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := LoadRun(bp)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromJSON.Trace.Packets) != len(res.Run.Trace.Packets) {
		t.Fatalf("json run: %d packets, want %d", len(fromJSON.Trace.Packets), len(res.Run.Trace.Packets))
	}
	j, b := fromJSON.Trace, fromBin.Trace
	if !reflect.DeepEqual(j.Packets, b.Packets) || !reflect.DeepEqual(j.SNI, b.SNI) ||
		!reflect.DeepEqual(j.DNS, b.DNS) || !reflect.DeepEqual(j.ServerIP, b.ServerIP) {
		t.Fatalf("json and binary saves of one run load to different traces")
	}
	if !reflect.DeepEqual(fromJSON.Truth, fromBin.Truth) {
		t.Fatalf("json and binary saves of one run load different ground truth")
	}

	fromPcap, err := LoadRun(pp)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromPcap.Trace.Packets) == 0 || fromPcap.Truth != nil {
		t.Fatalf("pcap run: %d packets, truth %v; want packets and no side band",
			len(fromPcap.Trace.Packets), fromPcap.Truth)
	}
}
