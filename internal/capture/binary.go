package capture

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"csi/internal/media"
	"csi/internal/packet"
)

// Compact binary serialization for runs. A 10-minute session captures
// hundreds of thousands of packets; JSON runs to tens of megabytes, while
// this varint-packed format stays a few megabytes and loads an order of
// magnitude faster. The format is versioned and self-contained:
//
//	magic "CSIRUN" | version u8 | sections (SNI, DNS, IPs, packets,
//	truth, display, stalls), each length-prefixed.
const (
	binMagic   = "CSIRUN"
	binVersion = 1
)

type binWriter struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (b *binWriter) uvarint(v uint64) {
	if b.err != nil {
		return
	}
	n := binary.PutUvarint(b.buf[:], v)
	_, b.err = b.w.Write(b.buf[:n])
}

func (b *binWriter) varint(v int64) {
	if b.err != nil {
		return
	}
	n := binary.PutVarint(b.buf[:], v)
	_, b.err = b.w.Write(b.buf[:n])
}

func (b *binWriter) f64(v float64) { b.uvarint(math.Float64bits(v)) }

func (b *binWriter) str(s string) {
	b.uvarint(uint64(len(s)))
	if b.err == nil {
		_, b.err = b.w.WriteString(s)
	}
}

type binReader struct {
	r *bufio.Reader
}

func (b *binReader) uvarint() (uint64, error) { return binary.ReadUvarint(b.r) }
func (b *binReader) varint() (int64, error)   { return binary.ReadVarint(b.r) }

func (b *binReader) f64() (float64, error) {
	v, err := b.uvarint()
	return math.Float64frombits(v), err
}

func (b *binReader) str() (string, error) {
	n, err := b.uvarint()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("capture: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(b.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// WriteBinary serializes the run in the compact binary format.
func (r *Run) WriteBinary(w io.Writer) error {
	bw := &binWriter{w: bufio.NewWriter(w)}
	if _, err := bw.w.WriteString(binMagic); err != nil {
		return err
	}
	bw.uvarint(binVersion)

	t := r.Trace
	bw.uvarint(uint64(len(t.SNI)))
	for id, host := range t.SNI {
		bw.varint(int64(id))
		bw.str(host)
	}
	bw.uvarint(uint64(len(t.DNS)))
	for ip, host := range t.DNS {
		bw.str(ip)
		bw.str(host)
	}
	bw.uvarint(uint64(len(t.ServerIP)))
	for id, ip := range t.ServerIP {
		bw.varint(int64(id))
		bw.str(ip)
	}

	bw.uvarint(uint64(len(t.Packets)))
	for i := range t.Packets {
		v := &t.Packets[i]
		flags := uint64(0)
		if v.Dir == packet.Down {
			flags |= 1
		}
		if v.Proto == packet.UDP {
			flags |= 2
		}
		if v.QUICLong {
			flags |= 4
		}
		if v.SNI != "" || v.DNSQuery != "" || v.DNSAnswerIP != "" || v.ServerIP != "" {
			flags |= 8 // rare string fields present
		}
		bw.uvarint(flags)
		bw.f64(v.Time)
		bw.varint(int64(v.ConnID))
		bw.varint(v.Size)
		bw.varint(v.TCPSeq)
		bw.varint(v.TCPPayload)
		bw.varint(v.TLSAppBytes)
		bw.varint(v.TLSHSBytes)
		bw.varint(v.QUICPN)
		bw.varint(v.QUICPayload)
		if flags&8 != 0 {
			bw.str(v.SNI)
			bw.str(v.DNSQuery)
			bw.str(v.DNSAnswerIP)
			bw.str(v.ServerIP)
		}
	}

	bw.uvarint(uint64(len(r.Truth)))
	for _, tr := range r.Truth {
		bw.f64(tr.ReqTime)
		bw.f64(tr.DoneTime)
		bw.varint(int64(tr.Ref.Track))
		bw.varint(int64(tr.Ref.Index))
		bw.uvarint(uint64(tr.Kind))
		bw.varint(tr.Size)
	}
	bw.uvarint(uint64(len(r.Display)))
	for _, d := range r.Display {
		bw.f64(d.Start)
		bw.f64(d.End)
		bw.varint(int64(d.Index))
		bw.varint(int64(d.Track))
	}
	bw.uvarint(uint64(len(r.Stalls)))
	for _, s := range r.Stalls {
		bw.f64(s.Start)
		bw.f64(s.End)
	}
	if bw.err != nil {
		return fmt.Errorf("capture: writing binary run: %w", bw.err)
	}
	return bw.w.Flush()
}

// ReadBinary parses a run from the compact binary format.
func ReadBinary(rd io.Reader) (*Run, error) {
	br := &binReader{r: bufio.NewReader(rd)}
	magic := make([]byte, len(binMagic))
	if _, err := io.ReadFull(br.r, magic); err != nil {
		return nil, fmt.Errorf("capture: reading magic: %w", err)
	}
	if string(magic) != binMagic {
		return nil, fmt.Errorf("capture: not a binary run file")
	}
	ver, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	if ver != binVersion {
		return nil, fmt.Errorf("capture: unsupported binary version %d", ver)
	}

	run := &Run{Trace: NewTrace()}
	t := run.Trace

	fail := func(section string, err error) (*Run, error) {
		return nil, fmt.Errorf("capture: binary section %s: %w", section, err)
	}

	n, err := br.uvarint()
	if err != nil {
		return fail("sni", err)
	}
	for i := uint64(0); i < n; i++ {
		id, err := br.varint()
		if err != nil {
			return fail("sni", err)
		}
		host, err := br.str()
		if err != nil {
			return fail("sni", err)
		}
		t.SNI[int(id)] = host
	}
	if n, err = br.uvarint(); err != nil {
		return fail("dns", err)
	}
	for i := uint64(0); i < n; i++ {
		ip, err := br.str()
		if err != nil {
			return fail("dns", err)
		}
		host, err := br.str()
		if err != nil {
			return fail("dns", err)
		}
		t.DNS[ip] = host
	}
	if n, err = br.uvarint(); err != nil {
		return fail("ips", err)
	}
	for i := uint64(0); i < n; i++ {
		id, err := br.varint()
		if err != nil {
			return fail("ips", err)
		}
		ip, err := br.str()
		if err != nil {
			return fail("ips", err)
		}
		t.ServerIP[int(id)] = ip
	}

	if n, err = br.uvarint(); err != nil {
		return fail("packets", err)
	}
	if n > 1<<31 {
		return fail("packets", fmt.Errorf("implausible count %d", n))
	}
	// Grow from a bounded capacity rather than trusting the declared count:
	// a corrupt header must not allocate gigabytes up front.
	pre := n
	if pre > 1<<16 {
		pre = 1 << 16
	}
	t.Packets = make([]packet.View, 0, pre)
	for i := uint64(0); i < n; i++ {
		var v packet.View
		flags, err := br.uvarint()
		if err != nil {
			return fail("packets", err)
		}
		if flags&1 != 0 {
			v.Dir = packet.Down
		}
		if flags&2 != 0 {
			v.Proto = packet.UDP
		}
		v.QUICLong = flags&4 != 0
		if v.Time, err = br.f64(); err != nil {
			return fail("packets", err)
		}
		conn, err := br.varint()
		if err != nil {
			return fail("packets", err)
		}
		v.ConnID = int(conn)
		ints := []*int64{&v.Size, &v.TCPSeq, &v.TCPPayload, &v.TLSAppBytes, &v.TLSHSBytes, &v.QUICPN, &v.QUICPayload}
		for _, p := range ints {
			if *p, err = br.varint(); err != nil {
				return fail("packets", err)
			}
		}
		if flags&8 != 0 {
			if v.SNI, err = br.str(); err != nil {
				return fail("packets", err)
			}
			if v.DNSQuery, err = br.str(); err != nil {
				return fail("packets", err)
			}
			if v.DNSAnswerIP, err = br.str(); err != nil {
				return fail("packets", err)
			}
			if v.ServerIP, err = br.str(); err != nil {
				return fail("packets", err)
			}
		}
		t.Packets = append(t.Packets, v)
	}

	if n, err = br.uvarint(); err != nil {
		return fail("truth", err)
	}
	for i := uint64(0); i < n; i++ {
		var tr TruthRecord
		if tr.ReqTime, err = br.f64(); err != nil {
			return fail("truth", err)
		}
		if tr.DoneTime, err = br.f64(); err != nil {
			return fail("truth", err)
		}
		track, err := br.varint()
		if err != nil {
			return fail("truth", err)
		}
		idx, err := br.varint()
		if err != nil {
			return fail("truth", err)
		}
		kind, err := br.uvarint()
		if err != nil {
			return fail("truth", err)
		}
		if tr.Size, err = br.varint(); err != nil {
			return fail("truth", err)
		}
		tr.Ref = media.ChunkRef{Track: int(track), Index: int(idx)}
		tr.Kind = media.Type(kind)
		run.Truth = append(run.Truth, tr)
	}

	if n, err = br.uvarint(); err != nil {
		return fail("display", err)
	}
	for i := uint64(0); i < n; i++ {
		var d DisplayRecord
		if d.Start, err = br.f64(); err != nil {
			return fail("display", err)
		}
		if d.End, err = br.f64(); err != nil {
			return fail("display", err)
		}
		idx, err := br.varint()
		if err != nil {
			return fail("display", err)
		}
		track, err := br.varint()
		if err != nil {
			return fail("display", err)
		}
		d.Index, d.Track = int(idx), int(track)
		run.Display = append(run.Display, d)
	}

	if n, err = br.uvarint(); err != nil {
		return fail("stalls", err)
	}
	for i := uint64(0); i < n; i++ {
		var s StallRecord
		if s.Start, err = br.f64(); err != nil {
			return fail("stalls", err)
		}
		if s.End, err = br.f64(); err != nil {
			return fail("stalls", err)
		}
		run.Stalls = append(run.Stalls, s)
	}
	return run, nil
}

// SaveBinary writes the run to the named file in binary format.
func (r *Run) SaveBinary(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("capture: saving binary run: %w", err)
	}
	defer f.Close()
	if err := r.WriteBinary(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadAny opens a run file in either format, sniffing the magic bytes.
func LoadAny(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("capture: loading run: %w", err)
	}
	defer f.Close()
	head := make([]byte, len(binMagic))
	if _, err := io.ReadFull(f, head); err != nil {
		return nil, fmt.Errorf("capture: reading run header: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if string(head) == binMagic {
		return ReadBinary(f)
	}
	return ReadJSON(f)
}
