package stream

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"csi/internal/packet"
)

// The frame codec must be indistinguishable from encoding/json: the
// encoder writes json.Marshal's bytes, and the decoder leaves json.Unmarshal's
// value and error. These tests check both directions differentially.

// checkEncode compares appendFrame with json.Marshal on f, bytes and
// error alike.
func checkEncode(t *testing.T, f *Frame) {
	t.Helper()
	want, werr := json.Marshal(f)
	got, gerr := appendFrame([]byte("prefix"), f)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("encode %+v: error %v, json.Marshal %v", f, gerr, werr)
	}
	if werr == nil && string(got) != "prefix"+string(want) {
		t.Fatalf("encode %+v:\n got %s\nwant prefix%s", f, got, want)
	}
}

// checkDecode compares decodeFrame, into a frame already holding prior,
// with json.Unmarshal into a zero Frame: error text and the decoded value
// (compared by its json.Marshal bytes, which keep -0 apart from 0).
func checkDecode(t *testing.T, line []byte, prior Frame) {
	t.Helper()
	var want Frame
	werr := json.Unmarshal(line, &want)
	got := prior
	gerr := decodeFrame(line, &got)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("decode %q: error %v, json.Unmarshal %v", line, gerr, werr)
	}
	wb, err1 := json.Marshal(&want)
	gb, err2 := json.Marshal(&got)
	if err1 != nil || err2 != nil || !bytes.Equal(wb, gb) {
		t.Fatalf("decode %q:\n got %s\nwant %s", line, gb, wb)
	}
}

func TestFrameCodecTable(t *testing.T) {
	base := packet.View{Time: 1.5, Dir: packet.Down, Proto: packet.UDP, ConnID: 3, Size: 1350,
		ServerIP: "10.0.0.1", QUICPN: 7, QUICPayload: 1300}
	withView := func(edit func(*packet.View)) *Frame {
		f := &Frame{Flow: "a", Packet: base}
		edit(&f.Packet)
		return f
	}
	encodeCases := map[string]*Frame{
		"html chars":      {Flow: "<a>&b", Packet: base},
		"quote backslash": {Flow: `a"b\c`, Packet: base},
		"non-ascii":       withView(func(v *packet.View) { v.SNI = "médiа.example.com" }),
		"line separator":  withView(func(v *packet.View) { v.DNSQuery = "a\u2028b" }),
		"control":         withView(func(v *packet.View) { v.DNSAnswerIP = "a\x00\tb\x7f" }),
		"invalid utf8":    {Flow: "a\xffb\xc3", Packet: base},
		"negative zero":   withView(func(v *packet.View) { v.Time = math.Copysign(0, -1) }),
		"1e-7":            withView(func(v *packet.View) { v.Time = 1e-7 }),
		"1e-6":            withView(func(v *packet.View) { v.Time = 1e-6 }),
		"1e21":            withView(func(v *packet.View) { v.Time = 1e21 }),
		"below 1e21":      withView(func(v *packet.View) { v.Time = 999999999999999900000 }),
		"5e-324":          withView(func(v *packet.View) { v.Time = 5e-324 }),
		"max float":       withView(func(v *packet.View) { v.Time = -math.MaxFloat64 }),
		"NaN":             withView(func(v *packet.View) { v.Time = math.NaN() }),
		"+Inf":            withView(func(v *packet.View) { v.Time = math.Inf(1) }),
		"int extremes": withView(func(v *packet.View) {
			v.Size, v.TCPSeq, v.ConnID = math.MaxInt64, math.MinInt64, -1
		}),
		"close": {Flow: "a", Close: true},
		"zero":  {},
	}
	for name, f := range encodeCases {
		t.Run("encode/"+name, func(t *testing.T) { checkEncode(t, f) })
	}

	canon, err := json.Marshal(&Frame{Flow: "a", Packet: base})
	if err != nil {
		t.Fatal(err)
	}
	line := string(canon)
	decodeCases := map[string]string{
		"canonical":        line,
		"html escapes":     `{"flow":"\u003ca\u003e\u0026b","packet":{}}`,
		"raw html chars":   strings.Replace(line, `"a"`, `"<a>&"`, 1),
		"non-ascii":        strings.Replace(line, `"a"`, `"é"`, 1),
		"line separator":   strings.Replace(line, `"a"`, "\"a\u2028\"", 1),
		"invalid utf8":     strings.Replace(line, `"a"`, "\"a\xff\"", 1),
		"control byte":     strings.Replace(line, `"a"`, "\"a\x01\"", 1),
		"negative zero":    strings.Replace(line, `"Time":1.5`, `"Time":-0`, 1),
		"1e-7":             strings.Replace(line, `"Time":1.5`, `"Time":1e-7`, 1),
		"exponent forms":   strings.Replace(line, `"Time":1.5`, `"Time":-1.25E+21`, 1),
		"5e-324":           strings.Replace(line, `"Time":1.5`, `"Time":5e-324`, 1),
		"max float":        strings.Replace(line, `"Time":1.5`, `"Time":1.7976931348623157e308`, 1),
		"float overflow":   strings.Replace(line, `"Time":1.5`, `"Time":1e309`, 1),
		"leading zero":     strings.Replace(line, `"Time":1.5`, `"Time":01.5`, 1),
		"bare dot":         strings.Replace(line, `"Time":1.5`, `"Time":1.`, 1),
		"int64 overflow":   strings.Replace(line, `"Size":1350`, `"Size":9223372036854775808`, 1),
		"int64 min":        strings.Replace(line, `"Size":1350`, `"Size":-9223372036854775808`, 1),
		"int as float":     strings.Replace(line, `"Size":1350`, `"Size":1350.0`, 1),
		"int exponent":     strings.Replace(line, `"Size":1350`, `"Size":1e3`, 1),
		"string for int":   strings.Replace(line, `"Size":1350`, `"Size":"1350"`, 1),
		"close true":       strings.Replace(line, `"flow":"a"`, `"flow":"a","close":true`, 1),
		"close false":      strings.Replace(line, `"flow":"a"`, `"flow":"a","close":false`, 1),
		"whitespace":       strings.Replace(line, `"Dir":1`, `"Dir": 1`, 1),
		"reordered keys":   strings.Replace(line, `"Dir":1,"Proto":1`, `"Proto":1,"Dir":1`, 1),
		"lowercase keys":   `{"flow":"x","packet":{"time":1,"conn":1,"len":10}}`,
		"duplicate key":    strings.Replace(line, `"Dir":1`, `"Dir":0,"Dir":1`, 1),
		"unknown key":      strings.Replace(line, `"Dir":1`, `"Dir":1,"Extra":2`, 1),
		"missing field":    strings.Replace(line, `,"QUICLong":false`, ``, 1),
		"null packet":      `{"flow":"a","packet":null}`,
		"null string":      strings.Replace(line, `"SNI":""`, `"SNI":null`, 1),
		"bool true":        strings.Replace(line, `"QUICLong":false`, `"QUICLong":true`, 1),
		"bad bool":         strings.Replace(line, `"QUICLong":false`, `"QUICLong":fals`, 1),
		"trailing garbage": line + "x",
		"trailing space":   line + " ",
		"truncated":        line[:len(line)-1],
		"empty":            "",
		"not an object":    `[1]`,
	}
	for _, field := range intFields {
		for _, num := range intEdges {
			decodeCases["int edge/"+field+"="+num] = withInt(line, field, num)
		}
	}
	prior := Frame{Flow: "a", Close: true, Packet: packet.View{Time: 9, SNI: "old", ServerIP: "10.0.0.1"}}
	for name, in := range decodeCases {
		t.Run("decode/"+name, func(t *testing.T) {
			checkDecode(t, []byte(in), Frame{})
			checkDecode(t, []byte(in), prior)
		})
	}
}

// intFields are the frame's integer keys; intEdges are the literals at the
// edges of the decoder's in-place integer path: signs, zeros, the 18-digit
// limit, the int64 range, and forms only the general number path decides.
var (
	intFields = []string{"Dir", "Proto", "ConnID", "Size", "TCPSeq", "TCPPayload",
		"TLSAppBytes", "TLSHSBytes", "QUICPN", "QUICPayload"}
	intEdges = []string{
		"0", "-0", "7", "-7",
		"123456789012345678", "-123456789012345678", "999999999999999999", // 18 digits
		"1234567890123456789", "-1234567890123456789", // 19 digits
		"9223372036854775807", "-9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809", "12345678901234567890123",
		"00", "01", "-01", "007", "0001234567890123456789",
		"1.0", "0.5", "1e2", "1E+2", "1e-2", "0e0", "-", "-a", "+1", "1a", "1-",
	}
	intFieldRe = regexp.MustCompile(`"(` + strings.Join(intFields, "|") + `)":-?[0-9]+`)
)

// withInt returns line with field's value replaced by the literal num.
func withInt(line, field, num string) string {
	return intFieldRe.ReplaceAllStringFunc(line, func(kv string) string {
		if strings.HasPrefix(kv, `"`+field+`":`) {
			return `"` + field + `":` + num
		}
		return kv
	})
}

// randString draws from a mix of plain ASCII and the characters every
// escaping rule of json.Marshal applies to.
func randString(rng *rand.Rand) string {
	const plain = "abcXYZ019.-_:/ "
	special := []string{"<", ">", "&", `"`, `\`, "\x00", "\n", "\x7f", "é", "\u2028", "\u2029", "\xff", "\xc3"}
	if rng.Intn(3) == 0 {
		return ""
	}
	var sb strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		if rng.Intn(8) == 0 {
			sb.WriteString(special[rng.Intn(len(special))])
		} else {
			sb.WriteByte(plain[rng.Intn(len(plain))])
		}
	}
	return sb.String()
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Float64frombits(rng.Uint64()) // any bit pattern, NaN and Inf included
	case 2:
		return float64(rng.Intn(1000)) / 8
	case 3:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	default:
		return rng.Float64() * 600
	}
}

func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return int64(rng.Uint64())
	default:
		return rng.Int63n(3000) - 100
	}
}

func randFrame(rng *rand.Rand) Frame {
	return Frame{
		Flow:  randString(rng),
		Close: rng.Intn(4) == 0,
		Packet: packet.View{
			Time: randFloat(rng), Dir: packet.Dir(randInt(rng)), Proto: packet.Proto(randInt(rng)),
			ConnID: int(randInt(rng)), Size: randInt(rng),
			SNI: randString(rng), ServerIP: randString(rng), DNSQuery: randString(rng), DNSAnswerIP: randString(rng),
			TCPSeq: randInt(rng), TCPPayload: randInt(rng), TLSAppBytes: randInt(rng), TLSHSBytes: randInt(rng),
			QUICPN: randInt(rng), QUICPayload: randInt(rng), QUICLong: rng.Intn(2) == 0,
		},
	}
}

// TestFrameCodecRandom checks seeded random frames: the encoder's bytes and
// errors equal json.Marshal's, and decoding json.Marshal's bytes — as is,
// and with a random byte changed, inserted or cut — leaves the value and
// error json.Unmarshal leaves.
func TestFrameCodecRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	prior := Frame{}
	for i := 0; i < n; i++ {
		f := randFrame(rng)
		checkEncode(t, &f)
		line, err := json.Marshal(&f)
		if err != nil {
			continue // NaN or Inf: nothing to decode
		}
		checkDecode(t, line, prior)
		mut := bytes.Clone(line)
		switch pos := rng.Intn(len(mut)); rng.Intn(3) {
		case 0:
			mut[pos] = " \t{}[]\",:0-.eE\\ux"[rng.Intn(17)]
		case 1:
			mut = append(mut[:pos], append([]byte{' '}, mut[pos:]...)...)
		default:
			mut = mut[:pos]
		}
		checkDecode(t, mut, prior)
		prior = f
	}
}

const canonicalSeed = `{"flow":"a","packet":{"Time":1.5,"Dir":1,"Proto":0,"ConnID":3,"Size":1350,"SNI":"","ServerIP":"10.0.0.1","DNSQuery":"","DNSAnswerIP":"","TCPSeq":1,"TCPPayload":1300,"TLSAppBytes":1280,"TLSHSBytes":0,"QUICPN":0,"QUICPayload":0,"QUICLong":false}}`

// FuzzFrameCodec checks, for arbitrary bytes, that decodeFrame agrees with
// json.Unmarshal, and that any frame it decodes re-encodes to
// json.Marshal's bytes.
func FuzzFrameCodec(f *testing.F) {
	f.Add([]byte(canonicalSeed))
	f.Add([]byte(`{"flow":"a","close":true,"packet":{"Time":0,"Dir":0,"Proto":0,"ConnID":0,"Size":0,"SNI":"","ServerIP":"","DNSQuery":"","DNSAnswerIP":"","TCPSeq":0,"TCPPayload":0,"TLSAppBytes":0,"TLSHSBytes":0,"QUICPN":0,"QUICPayload":0,"QUICLong":true}}`))
	f.Add([]byte(`{"flow":"\u003c\u0026","packet":{"Time":1e-7,"Dir":0,"Proto":1,"ConnID":-1,"Size":9223372036854775807,"SNI":"é","ServerIP":"","DNSQuery":"","DNSAnswerIP":"","TCPSeq":0,"TCPPayload":0,"TLSAppBytes":0,"TLSHSBytes":0,"QUICPN":0,"QUICPayload":0,"QUICLong":false}}`))
	f.Add([]byte(`{"flow":"x","packet":{"time":1,"conn":1,"len":10}}`))
	f.Add([]byte(`{"flow":"a","close":false,"packet":null}`))
	for _, field := range intFields {
		for _, num := range intEdges {
			f.Add([]byte(withInt(canonicalSeed, field, num)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, Frame{})
		var fr Frame
		if decodeFrame(data, &fr) == nil {
			checkEncode(t, &fr)
		}
	})
}

// TestFrameCodecFastPathAllocs pins that canonical frames take the direct
// path: decoding a frame whose strings repeat the previous frame's, and
// encoding into a buffer with room, allocate nothing — with single-digit,
// multi-digit, 18-digit and negative integers alike.
func TestFrameCodecFastPathAllocs(t *testing.T) {
	frames := []Frame{
		{Flow: "flow-1", Packet: packet.View{Time: 12.25, Dir: packet.Down, ConnID: 2, Size: 1500,
			ServerIP: "10.0.0.2", TCPSeq: 1 << 20, TCPPayload: 1448, TLSAppBytes: 1420}},
		{Flow: "flow-2", Packet: packet.View{Time: 0.5, Dir: -1, Proto: -3, ConnID: -42, Size: -1500,
			TCPSeq: -123456789012345678, TCPPayload: 999999999999999999, TLSAppBytes: -7,
			TLSHSBytes: 100000, QUICPN: 123456789, QUICPayload: -1, QUICLong: true}},
	}
	buf := make([]byte, 0, 512)
	for _, f := range frames {
		line, err := json.Marshal(&f)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			g := f
			if err := decodeFrame(line, &g); err != nil {
				t.Fatal(err)
			}
			if buf, err = appendFrame(buf[:0], &g); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("canonical decode+encode of %s allocated %.1f times, want 0", line, allocs)
		}
	}
}
