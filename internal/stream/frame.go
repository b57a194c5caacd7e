// Package stream is the live-monitoring plane of CSI: a long-running
// monitor that ingests an interleaved multi-flow packet stream and runs the
// core inference pipeline incrementally over each flow as it grows, instead
// of once over a finished capture. The robustness envelope — bounded ingest
// ring with shedding, per-flow memory budgets with LRU eviction, per-solve
// guard budgets with panic containment and quarantine, graceful drain — is
// the point: one hostile or pathological flow degrades to a partial result
// with structured warnings while its siblings keep streaming.
//
// Determinism contract: a monitor configured for replay (blocking ingest,
// no eviction, nil Clock) produces byte-identical results to the batch
// pipeline (Batch) over the same frame sequence. Each solve returns what a
// fresh solve of its flow's packets so far returns; the state carried
// across solves — the flow's core.Step1 and the HalfCache — is exactly the
// machinery whose warm/cold byte-identity the core package pins, so mid-flow
// provisional solves can run at any cadence (or be skipped under load)
// without changing any final inference.
package stream

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"

	"csi/internal/capture"
	"csi/internal/packet"
)

// Frame is one element of the monitor's ingest stream: a packet observed on
// a named flow, or a close marker ending the flow (the streaming analogue
// of a capture file ending). The JSONL encoding is the daemon's wire
// format.
type Frame struct {
	Flow  string `json:"flow"`
	Close bool   `json:"close,omitempty"`
	// Packet is the observed packet view; zero-valued on close frames.
	Packet packet.View `json:"packet"`
}

// WriteFrames encodes frames as JSONL, one json.Marshal encoding a line.
func WriteFrames(w io.Writer, frames []Frame) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := range frames {
		var err error
		if line, err = appendFrame(line[:0], &frames[i]); err != nil {
			return fmt.Errorf("stream: encoding frame %d: %w", i, err)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("stream: writing frames: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("stream: writing frames: %w", err)
	}
	return nil
}

// ErrTruncatedTail marks a stream that ends mid-record: the final line is
// incomplete (no terminating newline, not parseable). It is the expected
// shape of a crash mid-write, so recovery-minded readers tolerate it —
// errors.Is(err, ErrTruncatedTail) — and treat it as end of the valid
// prefix, while batch loading still fails loudly.
var ErrTruncatedTail = errors.New("truncated tail")

// maxFrameLine bounds one line of a frame stream, newline included, so a
// producer that never sends a newline cannot grow the reader without bound.
// A real frame is ~200 bytes. The bound also keeps every accepted frame
// loggable: json.Marshal escapes a byte to at most 6 (`<` becomes \u003c),
// and 6 MiB stays under walMaxRecordBytes.
const maxFrameLine = 1 << 20

// FrameReader decodes a JSONL frame stream incrementally, line by line, so
// every error can say exactly where the damage is.
type FrameReader struct {
	br      *bufio.Reader
	line    int   // 1-based line of the last read attempt
	offset  int64 // byte offset of the start of that line
	lastLen int   // bytes consumed for the previous line (offset bookkeeping)
	err     error // sticky terminal error
	prev    Frame // last frame decoded; the next one is decoded over it
	canon   bool  // prev's strings came from the codec's canonical path
}

// NewFrameReader reads frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r)}
}

// Line reports the 1-based line number of the most recent Next call.
func (fr *FrameReader) Line() int { return fr.line }

// Offset reports the byte offset where the most recent Next's line began.
func (fr *FrameReader) Offset() int64 { return fr.offset }

// Next returns the next frame, io.EOF at a clean end of stream, or a decode
// error carrying the line number and byte offset of the damage. A final
// line that ends mid-record (no newline, unparseable) wraps
// ErrTruncatedTail so recovery paths can distinguish a crash-truncated
// recording from corruption. A line longer than maxFrameLine is malformed
// wherever it ends. Blank lines are skipped. Errors are terminal: after any
// non-nil error every further Next repeats it.
func (fr *FrameReader) Next() (Frame, error) {
	if fr.err != nil {
		return Frame{}, fr.err
	}
	for {
		fr.offset += int64(fr.lastLen)
		raw, rerr := fr.readLine()
		fr.line++
		fr.lastLen = len(raw)
		if rerr != nil && rerr != io.EOF {
			fr.err = fmt.Errorf("stream: line %d (byte offset %d): %w", fr.line, fr.offset, rerr)
			return Frame{}, fr.err
		}
		atEOF := rerr == io.EOF
		trimmed := bytes.TrimSpace(raw)
		if len(trimmed) == 0 {
			if atEOF {
				fr.err = io.EOF
				return Frame{}, io.EOF
			}
			continue // blank line
		}
		var err error
		if fr.canon, err = decodeFrame(trimmed, &fr.prev, fr.canon); err != nil {
			if atEOF {
				// The recording stops mid-line: a crash-truncated tail,
				// not corruption.
				fr.err = fmt.Errorf("stream: line %d (byte offset %d): %w: %v", fr.line, fr.offset, ErrTruncatedTail, err)
			} else {
				fr.err = fmt.Errorf("stream: line %d (byte offset %d): %w", fr.line, fr.offset, err)
			}
			return fr.prev, fr.err
		}
		// A parseable final line without a newline is a complete frame.
		if atEOF {
			fr.err = io.EOF
		}
		return fr.prev, nil
	}
}

var errLineTooLong = fmt.Errorf("line longer than %d bytes", maxFrameLine)

// readLine returns the next line, newline included. A line that fits the
// bufio buffer, as every real frame does, is returned in place without a
// copy and is valid only until the next read. Longer lines are gathered
// up to maxFrameLine; the reader keeps the default 4 KiB buffer rather
// than a maxFrameLine one, so a FrameReader stays cheap to create.
func (fr *FrameReader) readLine() ([]byte, error) {
	raw, err := fr.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return raw, err
	}
	line := append([]byte(nil), raw...)
	for err == bufio.ErrBufferFull {
		raw, err = fr.br.ReadSlice('\n')
		if len(line)+len(raw) > maxFrameLine {
			return nil, errLineTooLong
		}
		line = append(line, raw...)
	}
	return line, err
}

// ReadFrames decodes an entire JSONL stream.
func ReadFrames(r io.Reader) ([]Frame, error) {
	fr := NewFrameReader(r)
	var out []Frame
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
}

// Pack merges named capture runs into one interleaved frame stream ordered
// by capture timestamp (ties broken by flow name, then by per-flow packet
// order), with a close marker directly after each flow's last packet. This
// is how recorded single-flow captures become a deterministic multi-flow
// ingest recording for replay and tests.
func Pack(runs map[string]*capture.Trace) []Frame {
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	pkts := make([][]packet.View, len(names))
	total := len(names) // one close marker per flow
	for i, name := range names {
		pkts[i] = runs[name].Packets
		total += len(pkts[i])
	}

	idx := make([]int, len(names))
	out := make([]Frame, 0, total)
	for {
		best := -1
		for i, p := range pkts {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 || p[idx[i]].Time < pkts[best][idx[best]].Time {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, Frame{Flow: names[best], Packet: pkts[best][idx[best]]})
		idx[best]++
		if idx[best] == len(pkts[best]) {
			out = append(out, Frame{Flow: names[best], Close: true})
		}
	}
	// Close markers for empty traces, in name order.
	for i, name := range names {
		if len(pkts[i]) == 0 {
			out = append(out, Frame{Flow: name, Close: true})
		}
	}
	return out
}
