// Package core implements CSI — the Chunk Sequence Inferencer of the paper
// "CSI: Inferring Mobile ABR Video Adaptation Behavior under HTTPS and QUIC"
// (EuroSys 2020).
//
// Given (a) the per-chunk size ladder of a video (collected in advance from
// the manifest) and (b) a packet capture of an encrypted streaming session,
// CSI infers the identity — media type, track and playback index — and the
// download time of every chunk the player fetched, without reading any
// payload bytes.
//
// The pipeline has two steps (§3.1):
//
//	Step 1 (estimate.go): identify the video connections by SNI, detect the
//	packets carrying chunk requests, and estimate each downloaded chunk's
//	size from the encrypted bytes between consecutive requests. For QUIC
//	with transport multiplexing (the SQ design), traffic is first split into
//	groups at SP1/SP2 split points (§5.3.2).
//
//	Step 2 (identify.go, mux.go): find all chunk sequences whose true sizes
//	match the estimates within the protocol's error bound k (Property 1)
//	and whose playback indexes grow contiguously (Property 2), via a
//	layered-graph shortest-path/DP search (§5.3).
package core

import (
	"fmt"

	"csi/internal/capture"
	"csi/internal/guard"
	"csi/internal/media"
	"csi/internal/obs"
	"csi/internal/packet"
	"csi/internal/qoe"
)

// Protocol error bounds measured in §3.2 of the paper.
const (
	KHTTPS = 0.01
	KQUIC  = 0.05
)

// Fixed thresholds of request detection and traffic grouping (§5.3).
const (
	// sp2WindowSec: two uplink requests this close are simultaneous (SP2).
	sp2WindowSec = 0.01
	// sp2QuietSec is the downlink quiet time an SP2 pair needs: a genuine
	// "all downloads finished" pair follows a lull, while a retransmitted
	// request pair lands mid-burst and must not cut a chunk in half.
	sp2QuietSec = 0.25
	// requestMinQUICPayload separates QUIC requests from ACKs (§5.3.1).
	requestMinQUICPayload = 80
	// maxGroupRequests caps a traffic group before it is subdivided at its
	// widest internal idle gap; a smaller cap cheapens the search but risks
	// cutting a chunk's bytes across groups.
	maxGroupRequests = 16
)

// Params configures an inference.
type Params struct {
	// K is the maximum relative size over-estimation (Property 1). Zero
	// selects the protocol default: 1% for HTTPS, 5% for QUIC.
	K float64
	// MediaHost filters connections by SNI suffix (Step 1.1). Required.
	MediaHost string
	// Mux enables the SQ path: split-point grouping and group search. Set
	// it when the service uses QUIC with separate audio tracks.
	Mux bool
	// IdleSplitSec is the SP1 idle-gap threshold. Default 2 s.
	IdleSplitSec float64
	// GroupSearchBudget caps the enumeration work per traffic group: the
	// total number of compressed partial combinations materialized by the
	// per-group meet-in-the-middle search. Each window half's enumeration
	// cost is charged once, at its first committed use in the group's
	// serial hypothesis order (cached halves reused by later windows are
	// free), so the charge sequence — and therefore the truncation point —
	// is deterministic regardless of worker scheduling. Plausible
	// hypotheses (balanced audio/video splits) are explored first; the
	// window whose charge crosses the budget is discarded, the group's
	// candidate set is marked truncated, and the scan stops — which can
	// under-count sequences for extremely ambiguous groups but never drops
	// the early plausible candidates. Default 4e7.
	GroupSearchBudget int64
	// MinResponseHeaderBytes is a conservative lower bound on the HTTP
	// response header size hidden inside the encrypted response. The
	// estimator subtracts it per response so that header bytes do not push
	// small chunks past the Property-1 bound; subtracting only a lower
	// bound keeps the estimate an over-estimate. Default 280.
	MinResponseHeaderBytes int64
	// MinChunkBytes, when positive, enables phantom-request filtering on
	// QUIC: an apparent new request arriving while the current response
	// has accumulated fewer bytes than this is treated as a retransmitted
	// request packet (QUIC request retransmissions carry new packet
	// numbers and cannot be discarded by SEQ the way TCP ones can).
	// Infer sets it to half the smallest chunk in the manifest.
	MinChunkBytes int64
	// Display, when non-nil, supplies displayed-chunk side information
	// used to prune candidates (§4.2).
	Display []capture.DisplayRecord

	// DisableSP2 turns off simultaneous-request split points, leaving only
	// SP1 idle-gap splits (ablation; §5.3.2 uses both).
	DisableSP2 bool

	// Degrade makes the pipeline yield a partial Inference with structured
	// Warnings instead of a hard error when the capture is impaired: the
	// SNI-less volume fallback for connection selection, the relaxed-K
	// retry ladder when no sequence matches, and a zero-confidence result
	// as the last resort. On a pristine capture none of these paths fire,
	// so Degrade never changes the result of a clean inference.
	Degrade bool

	// Obs traces the inference pipeline: request detection, split-point
	// decisions, graph construction and the sequence search. Inference runs
	// post hoc (no virtual clock), so records are stamped with an ordinal
	// obs.StepClock timeline. Nil disables instrumentation.
	Obs *obs.Tracer

	// Stages, when non-nil, receives wall-clock stage timings for the
	// pipeline phases ("estimate", "candidates", "dp"). The only shipped
	// implementation lives in internal/obs/live, which records into its own
	// registry with its sanctioned clock; durations never feed an inference
	// result or a deterministic export, so Stages never changes any output.
	// Nil (the default) disables timing at the cost of one interface
	// comparison per stage.
	Stages obs.StageTimer

	// HalfCache, when non-nil, shares truth-free half enumerations of the
	// MUX candidate search across every Infer in the process (keyed by
	// encoding-profile signature, so only sessions of the same ladder
	// share). Stored entries carry their original enumeration cost and are
	// charged at first committed use exactly like a fresh enumeration, so a
	// warm cache changes wall-clock time and allocations but never a result.
	// Nil disables cross-session sharing.
	HalfCache *HalfCache

	// Guard bounds the inference: a work-metered (and optionally
	// wall-clock-deadlined) cancellation token checked at cheap
	// deterministic checkpoints in request extraction, the mux candidate
	// search and the DP ladders. When the token stops, the pipeline yields
	// a partial Inference carrying a structured "deadline_exceeded" (or
	// "cancelled") Warning instead of running unbounded — the execution
	// analogue of the Degrade accuracy ladder. Nil (the default) disables
	// all bounding; a nil Guard never changes any result.
	Guard *guard.Ctx
}

// defaultFloat sets *v to def when it still holds the zero value. The
// comparison is exact by design — zero is the "unset" sentinel of Params,
// not a computed quantity — which is why the floatcmp exemption below is
// sound.
func defaultFloat(v *float64, def float64) {
	if *v == 0 { //csi-vet:ignore floatcmp -- exact zero is the unset-parameter sentinel
		*v = def
	}
}

func (p Params) withDefaults(proto packet.Proto) Params {
	if proto == packet.UDP {
		defaultFloat(&p.K, KQUIC)
	} else {
		defaultFloat(&p.K, KHTTPS)
	}
	defaultFloat(&p.IdleSplitSec, 2.0)
	if p.GroupSearchBudget == 0 {
		p.GroupSearchBudget = 40_000_000
	}
	if p.MinResponseHeaderBytes == 0 {
		p.MinResponseHeaderBytes = 280
	}
	if p.MinResponseHeaderBytes < 0 { // ablation: disable the discount
		p.MinResponseHeaderBytes = 0
	}
	return p
}

// Assignment is the inferred identity of one request: a video chunk (Ref
// valid), an audio chunk of a given track, or unexplained noise (a request
// whose estimate matched nothing — e.g. a retransmitted request packet).
type Assignment struct {
	Audio      bool
	Noise      bool
	AudioTrack int
	Ref        media.ChunkRef
}

// Sequence is one consistent assignment for all requests of a run.
type Sequence struct {
	Assignments []Assignment
}

// Inference is the result of running CSI on one trace.
type Inference struct {
	// Proto and Mux echo what was analyzed.
	Proto packet.Proto
	Mux   bool

	// Requests (no-MUX) or Groups (MUX) from Step 1.
	Requests []Request
	Groups   []Group

	// SequenceCount is the number of distinct matching chunk sequences
	// (float64: counts can be astronomically large in ambiguous runs).
	SequenceCount float64

	// Best is one matching sequence (no-MUX only; arbitrary among the
	// matches unless truth-guided evaluation is used).
	Best *Sequence

	// Truncated reports that the MUX group search hit its enumeration
	// budget: SequenceCount is then a lower bound and extremely ambiguous
	// alternatives may be missing from the candidate sets.
	Truncated bool

	// Warnings records every degradation the pipeline observed and worked
	// around: monitor gaps repaired, SNI fallbacks taken, cross traffic
	// filtered, relaxed error bounds. Empty on a clean capture.
	Warnings []Warning

	// internal handles for accuracy evaluation
	eval evaluator
}

// Warning is one structured degradation notice. Code is a stable
// machine-readable tag (e.g. "sni_missing", "sni_mismatch", "k_relaxed",
// "cross_traffic", "request_gap", "no_match", "deadline_exceeded",
// "budget_exhausted"); Detail is human-readable context.
type Warning struct {
	Code   string `json:"code"`
	Detail string `json:"detail"`
}

// guardWarning renders a stopped guard token as a structured Warning
// ("deadline_exceeded" for budget/deadline stops, "cancelled" for drains).
// Callers must only invoke it on a stopped token.
func guardWarning(g *guard.Ctx) Warning {
	return Warning{Code: g.Code(), Detail: g.Reason()}
}

// Confidences returns one confidence value per request (no-MUX) or per
// group (MUX), in [0,1]: 1 for a cleanly observed chunk, lower when part of
// its bytes were reconstructed across a monitor gap.
func (inf *Inference) Confidences() []float64 {
	conf := func(c float64) float64 {
		if c > 0 {
			return c
		}
		return 1
	}
	if inf.Mux {
		out := make([]float64, len(inf.Groups))
		for i, g := range inf.Groups {
			out[i] = conf(g.Confidence)
		}
		return out
	}
	out := make([]float64, len(inf.Requests))
	for i, r := range inf.Requests {
		out[i] = conf(r.Confidence)
	}
	return out
}

// QoEChunks converts the best matching sequence into qoe.Chunk values
// (noise assignments dropped), ready for qoe.Analyze. The lookup of true
// chunk sizes needs the same manifest the inference ran against. Returns
// nil when the inference has no best sequence (MUX mode, or zero matches).
func (inf *Inference) QoEChunks(man *media.Manifest) []qoe.Chunk {
	if inf.Best == nil {
		return nil
	}
	var chunks []qoe.Chunk
	for i, a := range inf.Best.Assignments {
		if a.Noise {
			continue
		}
		r := inf.Requests[i]
		c := qoe.Chunk{ReqTime: r.Time, DoneTime: r.LastData, Audio: a.Audio}
		if a.Audio {
			c.Track = a.AudioTrack
			c.Size = man.Tracks[a.AudioTrack].Sizes[0]
		} else {
			c.Track = a.Ref.Track
			c.Index = a.Ref.Index
			c.Size = man.Size(a.Ref)
		}
		chunks = append(chunks, c)
	}
	return chunks
}

// Request is one detected chunk request with its estimated response size
// (Step 1.2, no-MUX designs).
type Request struct {
	Time     float64 `json:"time"`
	Conn     int     `json:"conn"`
	Est      int64   `json:"est"`
	LastData float64 `json:"last_data"` // download-completion estimate
	// GapBytes counts estimated bytes reconstructed across monitor gaps
	// (already included in Est); Confidence is set only for gap-repaired
	// requests (zero means cleanly observed, i.e. full confidence).
	GapBytes   int64   `json:"gap_bytes,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// Group is one traffic group between split points (SQ designs).
type Group struct {
	Start    float64   `json:"start"`
	End      float64   `json:"end"`
	ReqTimes []float64 `json:"req_times"`
	Est      int64     `json:"est"` // total estimated bytes for the group
	LastData float64   `json:"last_data"`
	// GapBytes / Confidence mirror the Request fields: bytes reconstructed
	// across monitor gaps, and the resulting confidence (zero = clean).
	GapBytes   int64   `json:"gap_bytes,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
}

// evaluator computes best/worst accuracy against ground truth without
// enumerating sequences; implemented per mode in identify.go / mux.go.
type evaluator interface {
	accuracyRange(truth []capture.TruthRecord) (best, worst float64, err error)
}

// AccuracyRange evaluates the inference against the ground-truth request
// log: the accuracy of the best and the worst matching sequence, as
// fractions in [0,1] (Table 4's metrics).
func (inf *Inference) AccuracyRange(truth []capture.TruthRecord) (best, worst float64, err error) {
	if inf.eval == nil {
		return 0, 0, fmt.Errorf("core: inference has no evaluator")
	}
	return inf.eval.accuracyRange(truth)
}

// testHookInfer and testHookFillHalf let tests inject panics at specific
// pipeline depths to exercise containment. Never set outside tests.
var (
	testHookInfer    func()
	testHookFillHalf func()
)

// Infer runs the full CSI pipeline on a captured run. Any panic below this
// frame — including one raised on a mux search worker goroutine — is
// contained and returned as a *guard.PanicError, so one poisoned session
// cannot take down a batch.
func Infer(man *media.Manifest, tr *capture.Trace, p Params) (*Inference, error) {
	return NewStep1().Infer(man, tr, p)
}

// Infer is the package-level Infer with Step 1 resumed from s (see Step1):
// a monitor re-solving a growing flow hands the flow's Step1 to each solve,
// and every solve returns what a fresh Infer over the same prefix returns.
func (s *Step1) Infer(man *media.Manifest, tr *capture.Trace, p Params) (inf *Inference, err error) {
	defer guard.Capture(&err)
	if man == nil {
		return nil, fmt.Errorf("core: nil manifest")
	}
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if tr == nil || len(tr.Packets) == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	if p.MediaHost == "" {
		return nil, fmt.Errorf("core: MediaHost is required for connection filtering")
	}
	if p.MinChunkBytes == 0 {
		min := int64(1) << 60
		for ti := range man.Tracks {
			for _, s := range man.Tracks[ti].Sizes {
				if s < min {
					min = s
				}
			}
		}
		p.MinChunkBytes = min / 2
	}
	if testHookInfer != nil {
		testHookInfer()
	}
	stop := p.stageStart("estimate")
	est, err := s.Estimate(tr, p)
	stageStop(stop)
	if err != nil {
		return nil, err
	}
	return Identify(man, est, p)
}

// stageStart begins a wall-clock stage timing when a live ops plane is
// attached via Params.Stages; without one the cost is a single interface
// comparison and the returned stop is nil.
func (p Params) stageStart(stage string) func() {
	if p.Stages == nil {
		return nil
	}
	return p.Stages.Start(stage)
}

// stageStop ends a timing begun by stageStart (nil-safe).
func stageStop(stop func()) {
	if stop != nil {
		stop()
	}
}
