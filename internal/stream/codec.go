package stream

import (
	"encoding/json"
	"math"
	"strconv"

	"csi/internal/packet"
)

// The frame codec (DESIGN.md §12): a hand-written encoder and decoder for
// Frame and packet.View, the records on every hot path of the monitor —
// the JSONL wire and WAL payloads. The format stays JSON; the codec only
// removes reflection from it.
//
// Contract: appendFrame and appendView write exactly the bytes json.Marshal
// writes, and decodeFrame leaves exactly the value (or error) json.Unmarshal
// leaves. Anything outside the one canonical shape they handle is passed
// to encoding/json itself:
//   - encoding: a string holding a byte outside 0x20–0x7e, or one of
//     `" \ < > &`, is escaped by json.Marshal; a NaN or infinite float
//     makes the whole value json.Marshal's (so the error is its error);
//   - decoding: whitespace, reordered, case-folded or unknown keys,
//     escapes, non-ASCII bytes, null, a missing field or a number
//     strconv rejects all send the line to json.Unmarshal.
// So every input is accepted or rejected, and every value rendered, exactly
// as encoding/json would; codec_test.go checks this differentially.

// marshalFallback appends json.Marshal(v), or returns its error.
func marshalFallback(b []byte, v any) ([]byte, error) {
	enc, err := json.Marshal(v)
	return append(b, enc...), err
}

// appendFrame appends the JSON encoding of f.
func appendFrame(b []byte, f *Frame) ([]byte, error) {
	start := len(b)
	b = append(b, `{"flow":`...)
	b = appendString(b, f.Flow)
	if f.Close {
		b = append(b, `,"close":true`...)
	}
	b = append(b, `,"packet":`...)
	b, ok := appendView(b, &f.Packet)
	if !ok {
		fc := *f // a copy, so only this rare path moves a Frame to the heap
		return marshalFallback(b[:start], &fc)
	}
	return append(b, '}'), nil
}

// appendView appends the JSON encoding of v. ok is false when v holds a
// float JSON cannot represent; b is then partly written and the caller
// falls back to json.Marshal for the enclosing value.
func appendView(b []byte, v *packet.View) (_ []byte, ok bool) {
	b = append(b, `{"Time":`...)
	if b, ok = appendFloat(b, v.Time); !ok {
		return b, false
	}
	b = append(b, `,"Dir":`...)
	b = strconv.AppendInt(b, int64(v.Dir), 10)
	b = append(b, `,"Proto":`...)
	b = strconv.AppendInt(b, int64(v.Proto), 10)
	b = append(b, `,"ConnID":`...)
	b = strconv.AppendInt(b, int64(v.ConnID), 10)
	b = append(b, `,"Size":`...)
	b = strconv.AppendInt(b, v.Size, 10)
	b = append(b, `,"SNI":`...)
	b = appendString(b, v.SNI)
	b = append(b, `,"ServerIP":`...)
	b = appendString(b, v.ServerIP)
	b = append(b, `,"DNSQuery":`...)
	b = appendString(b, v.DNSQuery)
	b = append(b, `,"DNSAnswerIP":`...)
	b = appendString(b, v.DNSAnswerIP)
	b = append(b, `,"TCPSeq":`...)
	b = strconv.AppendInt(b, v.TCPSeq, 10)
	b = append(b, `,"TCPPayload":`...)
	b = strconv.AppendInt(b, v.TCPPayload, 10)
	b = append(b, `,"TLSAppBytes":`...)
	b = strconv.AppendInt(b, v.TLSAppBytes, 10)
	b = append(b, `,"TLSHSBytes":`...)
	b = strconv.AppendInt(b, v.TLSHSBytes, 10)
	b = append(b, `,"QUICPN":`...)
	b = strconv.AppendInt(b, v.QUICPN, 10)
	b = append(b, `,"QUICPayload":`...)
	b = strconv.AppendInt(b, v.QUICPayload, 10)
	b = append(b, `,"QUICLong":`...)
	b = strconv.AppendBool(b, v.QUICLong)
	return append(b, '}'), true
}

// appendFloat appends f as encoding/json formats a float64: shortest
// representation, 'f' format except for magnitudes below 1e-6 or from 1e21
// up, whose exponent loses its leading zero (e-09 → e-9). ok is false for
// NaN and infinities, which JSON cannot represent.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendString appends s as a JSON string. Printable ASCII other than the
// characters json.Marshal escapes is copied as is; anything else is left
// to json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// A string always marshals; the error is nil.
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// decodeFrame decodes one JSON frame into f, leaving exactly what
// json.Unmarshal would leave in a zero Frame and returning its error. The
// canonical encoding is decoded directly; any other input goes to
// json.Unmarshal. String fields already in f are kept, without a copy,
// when the line carries the same bytes, so a reader that decodes into the
// previous frame allocates nothing for a repeated flow name or address;
// new strings are copied out of line.
func decodeFrame(line []byte, f *Frame) error {
	s := frameScanner{b: line, ok: true}
	s.lit(`{"flow":`)
	f.Flow = s.str(f.Flow)
	f.Close = s.optLit(`,"close":true`)
	p := &f.Packet
	s.lit(`,"packet":{"Time":`)
	p.Time = s.float()
	s.lit(`,"Dir":`)
	p.Dir = packet.Dir(s.int())
	s.lit(`,"Proto":`)
	p.Proto = packet.Proto(s.int())
	s.lit(`,"ConnID":`)
	p.ConnID = s.int()
	s.lit(`,"Size":`)
	p.Size = s.int64()
	s.lit(`,"SNI":`)
	p.SNI = s.str(p.SNI)
	s.lit(`,"ServerIP":`)
	p.ServerIP = s.str(p.ServerIP)
	s.lit(`,"DNSQuery":`)
	p.DNSQuery = s.str(p.DNSQuery)
	s.lit(`,"DNSAnswerIP":`)
	p.DNSAnswerIP = s.str(p.DNSAnswerIP)
	s.lit(`,"TCPSeq":`)
	p.TCPSeq = s.int64()
	s.lit(`,"TCPPayload":`)
	p.TCPPayload = s.int64()
	s.lit(`,"TLSAppBytes":`)
	p.TLSAppBytes = s.int64()
	s.lit(`,"TLSHSBytes":`)
	p.TLSHSBytes = s.int64()
	s.lit(`,"QUICPN":`)
	p.QUICPN = s.int64()
	s.lit(`,"QUICPayload":`)
	p.QUICPayload = s.int64()
	s.lit(`,"QUICLong":`)
	p.QUICLong = s.bool()
	s.lit(`}}`)
	if s.ok && s.i == len(line) {
		return nil
	}
	var fc Frame // decoded apart, so only this path moves a Frame to the heap
	err := json.Unmarshal(line, &fc)
	*f = fc
	return err
}

// frameScanner walks the canonical frame encoding. Every method is a
// no-op returning the zero value once ok is false, so decodeFrame reads
// straight through and checks ok once at the end.
type frameScanner struct {
	b  []byte
	i  int
	ok bool
}

// lit consumes the literal l, which must come next.
func (s *frameScanner) lit(l string) { s.ok = s.optLit(l) }

// optLit consumes l if it comes next and reports whether it did.
func (s *frameScanner) optLit(l string) bool {
	if s.ok && len(s.b)-s.i >= len(l) && string(s.b[s.i:s.i+len(l)]) == l {
		s.i += len(l)
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes. It returns
// prev when the bytes equal it.
func (s *frameScanner) str(prev string) string {
	if !s.ok || s.i >= len(s.b) || s.b[s.i] != '"' {
		s.ok = false
		return ""
	}
	start := s.i + 1
	for j := start; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			s.i = j + 1
			if string(s.b[start:j]) == prev {
				return prev
			}
			return string(s.b[start:j])
		case c < 0x20 || c > 0x7e || c == '\\':
			s.ok = false
			return ""
		}
	}
	s.ok = false
	return ""
}

// number consumes a number in JSON's grammar and returns its bytes.
func (s *frameScanner) number() []byte {
	if !s.ok {
		return nil
	}
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		s.ok = false
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || !isDigit(b[i+1]) {
			s.ok = false
			return nil
		}
		i = skipDigits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			s.ok = false
			return nil
		}
		i = skipDigits(b, i)
	}
	num := b[s.i:i]
	s.i = i
	return num
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// float consumes a float64 the way encoding/json stores one:
// strconv.ParseFloat of the literal, where any error (out of range) is a
// deviation.
func (s *frameScanner) float() float64 {
	num := s.number()
	if !s.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		s.ok = false
		return 0
	}
	return f
}

// int64 consumes an integer the way encoding/json stores one:
// strconv.ParseInt of the literal, base 10. An optional '-' and then either
// a lone 0 or 1 to 18 digits without a leading zero, followed by neither a
// digit nor '.', 'e' or 'E', is accumulated in place: it cannot overflow,
// and it is exactly the value ParseInt returns. Anything else takes the
// general number path.
func (s *frameScanner) int64() int64 {
	if !s.ok {
		return 0
	}
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n int64
	for i < len(b) && i-start < 18 && isDigit(b[i]) {
		n = n*10 + int64(b[i]-'0')
		i++
	}
	if d := i - start; d > 0 && (d == 1 || b[start] != '0') &&
		(i == len(b) || !isDigit(b[i]) && b[i] != '.' && b[i] != 'e' && b[i] != 'E') {
		s.i = i
		if neg {
			return -n
		}
		return n
	}
	num := s.number()
	if !s.ok {
		return 0
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		s.ok = false
		return 0
	}
	return n
}

// int consumes an integer for an int-kind field, which must also fit int.
func (s *frameScanner) int() int {
	n := s.int64()
	if int64(int(n)) != n {
		s.ok = false
		return 0
	}
	return int(n)
}

func (s *frameScanner) bool() bool {
	if s.optLit("true") {
		return true
	}
	s.lit("false")
	return false
}
