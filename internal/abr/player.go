package abr

import (
	"fmt"
	"sort"

	"csi/internal/capture"
	"csi/internal/media"
	"csi/internal/obs"
	"csi/internal/sim"
	"csi/internal/webproto"
)

// Config parameterizes the player.
type Config struct {
	Manifest *media.Manifest
	Algo     Algorithm

	// VideoFetcher downloads video chunks; AudioFetcher downloads audio
	// chunks when the manifest has separate audio tracks. They may be the
	// same object (QUIC multiplexing) or distinct (one HTTPS connection
	// per media type).
	VideoFetcher webproto.Fetcher
	AudioFetcher webproto.Fetcher

	// MaxBufferSec: stop requesting when the buffer reaches this (the OFF
	// threshold). Default 30 (ExoPlayer-like).
	MaxBufferSec float64
	// ResumeBufferSec: resume requesting when the buffer drops below this.
	// Default 15 (ExoPlayer-like). Set equal to MaxBufferSec for the
	// chunk-at-a-time ON-OFF pattern §7 observes on Hulu.
	ResumeBufferSec float64
	// StartupBufferSec of content must be buffered before playback starts.
	// Default one chunk duration.
	StartupBufferSec float64
	// RebufferSec of content must accumulate before playback resumes after
	// a stall. Default one chunk duration.
	RebufferSec float64
	// StartupChunks are forced to the lowest track before adaptation kicks
	// in (Hulu starts from T1, §7). Default 1.
	StartupChunks int
	// StartIndex is the first playback index requested (tests may resume
	// mid-video, §3.3). Default 0.
	StartIndex int
	// StopAt: no new requests are issued at or after this time.
	StopAt float64
	// ThroughputAlpha is the EWMA weight of the newest sample. Default 0.5.
	ThroughputAlpha float64
	// Obs traces chunk downloads, buffer levels, bitrate switches and
	// stalls. Nil disables instrumentation.
	Obs *obs.Tracer
}

func (c Config) withDefaults() (Config, error) {
	if c.Manifest == nil {
		return c, fmt.Errorf("abr: nil manifest")
	}
	if c.Algo == nil {
		return c, fmt.Errorf("abr: nil algorithm")
	}
	if c.VideoFetcher == nil {
		return c, fmt.Errorf("abr: nil video fetcher")
	}
	if c.Manifest.HasSeparateAudio() && c.AudioFetcher == nil {
		return c, fmt.Errorf("abr: manifest has separate audio but no audio fetcher")
	}
	if c.MaxBufferSec == 0 {
		c.MaxBufferSec = 30
	}
	if c.ResumeBufferSec == 0 {
		c.ResumeBufferSec = 15
	}
	if c.ResumeBufferSec > c.MaxBufferSec {
		c.ResumeBufferSec = c.MaxBufferSec
	}
	if c.StartupBufferSec == 0 {
		c.StartupBufferSec = c.Manifest.ChunkDur
	}
	if c.RebufferSec == 0 {
		c.RebufferSec = c.Manifest.ChunkDur
	}
	if c.StartupChunks == 0 {
		c.StartupChunks = 1
	}
	if c.StopAt == 0 {
		c.StopAt = 1e18
	}
	if c.ThroughputAlpha == 0 {
		c.ThroughputAlpha = 0.5
	}
	return c, nil
}

// pipeline drives sequential chunk downloads for one media type.
type pipeline struct {
	p           *Player
	kind        media.Type
	fetcher     webproto.Fetcher
	track       int // audio: fixed track; video: last selected
	nextIndex   int
	numChunks   int
	outstanding bool
	fetched     int       // chunks completed
	span        *obs.Span // open download span for the outstanding chunk
}

// contentEnd returns the content time (seconds) buffered contiguously.
func (pl *pipeline) contentEnd() float64 {
	return float64(pl.nextIndex-pl.p.cfg.StartIndex+ /*offset*/ 0) * pl.p.dur
}

type playSegment struct {
	wallStart    float64
	wallEnd      float64 // updated on pause; +inf while playing
	contentStart float64
}

// Player simulates the streaming client. Create with NewPlayer, call Start,
// then run the engine.
type Player struct {
	eng *sim.Engine
	cfg Config
	dur float64

	video *pipeline
	audio *pipeline

	throughput float64 // EWMA, bits/s

	playing      bool
	started      bool
	playhead     float64 // content seconds (relative: 0 = StartIndex boundary)
	lastUpdate   float64 // wall time of last playhead update
	stallTimer   *sim.Timer
	wakeTimer    *sim.Timer
	segments     []playSegment
	stalls       []capture.StallRecord
	stallStart   float64
	inStall      bool
	truth        []capture.TruthRecord
	firstReqDone bool
}

// NewPlayer validates the config and builds a player on the engine.
func NewPlayer(eng *sim.Engine, cfg Config) (*Player, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Player{eng: eng, cfg: cfg, dur: cfg.Manifest.ChunkDur}
	p.stallTimer = eng.NewTimer(p.onPlayheadCaughtUp)
	p.wakeTimer = eng.NewTimer(p.cueFetches)
	p.video = &pipeline{
		p: p, kind: media.Video, fetcher: cfg.VideoFetcher,
		track: -1, nextIndex: cfg.StartIndex, numChunks: cfg.Manifest.NumVideoChunks(),
	}
	if cfg.Manifest.HasSeparateAudio() {
		at := cfg.Manifest.AudioTracks()[0]
		p.audio = &pipeline{
			p: p, kind: media.Audio, fetcher: cfg.AudioFetcher,
			track: at, nextIndex: cfg.StartIndex, numChunks: cfg.Manifest.NumAudioChunks(),
		}
	}
	if cfg.StartIndex >= p.video.numChunks {
		return nil, fmt.Errorf("abr: start index %d beyond video end %d", cfg.StartIndex, p.video.numChunks)
	}
	return p, nil
}

// Start begins the session: both pipelines issue their first requests
// immediately (this simultaneous double request is an SP2 split point for
// the SQ analysis, §5.3.2).
func (p *Player) Start() {
	p.video.maybeFetch()
	if p.audio != nil {
		p.audio.maybeFetch()
	}
}

// bufferSec returns seconds of playable content ahead of the playhead: the
// minimum of the pipelines, since playback needs both audio and video.
func (p *Player) bufferSec() float64 {
	p.syncPlayhead()
	end := p.video.contentEnd()
	if p.audio != nil && p.audio.contentEnd() < end {
		end = p.audio.contentEnd()
	}
	b := end - p.playhead
	if b < 0 {
		b = 0
	}
	return b
}

func (p *Player) syncPlayhead() {
	now := p.eng.Now()
	if p.playing {
		p.playhead += now - p.lastUpdate
	}
	p.lastUpdate = now
}

// maybeFetch issues the next request for the pipeline if allowed.
func (pl *pipeline) maybeFetch() {
	p := pl.p
	now := p.eng.Now()
	if pl.outstanding || pl.nextIndex >= pl.numChunks || now >= p.cfg.StopAt {
		return
	}
	// ON-OFF buffer management, modelled after ExoPlayer's *global* load
	// control: each pipeline stops loading when its own buffer reaches
	// MaxBufferSec, and all pipelines resume together when the overall
	// (minimum) buffer drains below ResumeBufferSec. The shared resume cue
	// makes audio and video requests go out at the same instant — the SP2
	// split-point signal CSI exploits for QUIC multiplexing (§5.3.2).
	p.syncPlayhead()
	myBuffer := pl.contentEnd() - p.playhead
	if myBuffer >= p.cfg.MaxBufferSec {
		p.scheduleResumeWake()
		return
	}

	var ref media.ChunkRef
	if pl.kind == media.Audio {
		ref = media.ChunkRef{Track: pl.track, Index: pl.nextIndex}
	} else {
		track := pl.selectVideoTrack()
		if tr := p.cfg.Obs; tr != nil && pl.track >= 0 && track != pl.track {
			tr.Event("abr", "bitrate_switch",
				obs.Int("index", int64(pl.nextIndex)),
				obs.Int("from", int64(pl.track)),
				obs.Int("to", int64(track)),
				obs.Float("throughput_bps", p.throughput))
		}
		pl.track = track
		ref = media.ChunkRef{Track: track, Index: pl.nextIndex}
	}
	pl.outstanding = true
	reqTime := now
	size := p.cfg.Manifest.Size(ref)
	if tr := p.cfg.Obs; tr != nil {
		pl.span = tr.Begin("abr", "chunk",
			obs.Str("kind", pl.kind.String()),
			obs.Int("track", int64(ref.Track)),
			obs.Int("index", int64(ref.Index)),
			obs.Int("size", size))
	}
	rec := capture.TruthRecord{ReqTime: reqTime, Ref: ref, Kind: pl.kind, Size: size}
	idx := len(p.truth)
	p.truth = append(p.truth, rec)
	pl.fetcher.Fetch(ref, func(doneAt float64) {
		pl.onChunkDone(idx, reqTime, size, doneAt)
	})
}

func (pl *pipeline) selectVideoTrack() int {
	p := pl.p
	if pl.fetched < p.cfg.StartupChunks {
		return ladder(p.cfg.Manifest)[0]
	}
	return p.cfg.Algo.Select(State{
		ThroughputBps: p.throughput,
		BufferSec:     p.bufferSec(),
		LastTrack:     pl.track,
		Manifest:      p.cfg.Manifest,
	})
}

func (pl *pipeline) onChunkDone(truthIdx int, reqTime float64, size int64, now float64) {
	p := pl.p
	pl.outstanding = false
	pl.fetched++
	pl.nextIndex++
	p.truth[truthIdx].DoneTime = now
	if pl.span != nil {
		pl.span.End()
		pl.span = nil
		p.cfg.Obs.Sample("abr", "buffer_sec", p.bufferSec())
	}

	// Throughput sample over the full request-response exchange.
	if dt := now - reqTime; dt > 0 {
		sample := float64(size) * 8 / dt
		// Audio chunks are small and RTT-dominated; only video samples
		// update the estimate (players weight by bytes; this approximates
		// that).
		if pl.kind == media.Video {
			if p.throughput == 0 {
				p.throughput = sample
			} else {
				a := p.cfg.ThroughputAlpha
				p.throughput = a*sample + (1-a)*p.throughput
			}
		}
	}

	p.onBufferGrew()
	pl.maybeFetch()
}

// onBufferGrew re-evaluates playback state after new content arrived.
func (p *Player) onBufferGrew() {
	buf := p.bufferSec()
	if !p.started {
		if buf >= p.cfg.StartupBufferSec {
			p.started = true
			p.resumePlayback()
		}
		return
	}
	if p.inStall && buf >= p.cfg.RebufferSec {
		p.stalls = append(p.stalls, capture.StallRecord{Start: p.stallStart, End: p.eng.Now()})
		p.inStall = false
		if tr := p.cfg.Obs; tr != nil {
			tr.Event("abr", "stall_end", obs.Float("dur", p.eng.Now()-p.stallStart))
		}
		p.resumePlayback()
	}
	if p.playing {
		p.armStallTimer()
	}
}

func (p *Player) resumePlayback() {
	p.syncPlayhead()
	p.playing = true
	p.segments = append(p.segments, playSegment{
		wallStart:    p.eng.Now(),
		wallEnd:      -1,
		contentStart: p.playhead,
	})
	p.armStallTimer()
	// Resuming playback drains the buffer again; cue OFF pipelines.
	p.cueFetches()
}

func (p *Player) cueFetches() {
	p.video.maybeFetch()
	if p.audio != nil {
		p.audio.maybeFetch()
	}
}

// scheduleResumeWake arms (once) the global resume cue: when the overall
// buffer is projected to drain to ResumeBufferSec, all pipelines re-check.
func (p *Player) scheduleResumeWake() {
	if p.wakeTimer.Pending() || !p.playing {
		return
	}
	wake := p.bufferSec() - p.cfg.ResumeBufferSec
	if wake < 0.01 {
		wake = 0.01
	}
	p.wakeTimer.Reset(wake)
}

// armStallTimer schedules the moment the playhead would catch the buffer.
func (p *Player) armStallTimer() {
	if !p.playing {
		p.stallTimer.Stop()
		return
	}
	p.stallTimer.Reset(p.bufferSec())
}

func (p *Player) onPlayheadCaughtUp() {
	if !p.playing {
		return
	}
	if p.bufferSec() > 1e-9 {
		// New data arrived since the timer was armed.
		p.armStallTimer()
		return
	}
	// Pause: either a stall or the end of the (fetched part of the) video.
	p.syncPlayhead()
	p.playing = false
	if len(p.segments) > 0 {
		p.segments[len(p.segments)-1].wallEnd = p.eng.Now()
	}
	videoDone := p.video.nextIndex >= p.video.numChunks
	if !videoDone {
		p.inStall = true
		p.stallStart = p.eng.Now()
		if tr := p.cfg.Obs; tr != nil {
			tr.Event("abr", "stall_begin", obs.Float("playhead", p.playhead))
		}
		p.cueFetches()
	}
}

// Finish closes bookkeeping at the end of a run.
func (p *Player) Finish() {
	p.syncPlayhead()
	if p.playing && len(p.segments) > 0 {
		p.segments[len(p.segments)-1].wallEnd = p.eng.Now()
		p.playing = false
	}
	if p.inStall {
		p.stalls = append(p.stalls, capture.StallRecord{Start: p.stallStart, End: p.eng.Now()})
		p.inStall = false
	}
}

// Truth returns the ground-truth request log.
func (p *Player) Truth() []capture.TruthRecord { return p.truth }

// Stalls returns recorded stall events.
func (p *Player) Stalls() []capture.StallRecord { return p.stalls }

// Throughput returns the current EWMA estimate in bits/s.
func (p *Player) Throughput() float64 { return p.throughput }

// DisplayLog derives which video chunk was on screen when, from the
// playback segments and the per-index track choices — the information a
// screen-analysis side channel would produce.
func (p *Player) DisplayLog() []capture.DisplayRecord {
	// Track per index from truth (video only).
	trackOf := map[int]int{}
	for _, tr := range p.truth {
		if tr.Kind == media.Video && tr.DoneTime > 0 {
			trackOf[tr.Ref.Index] = tr.Ref.Track
		}
	}
	var out []capture.DisplayRecord
	for _, seg := range p.segments {
		end := seg.wallEnd
		if end < 0 {
			end = p.eng.Now()
		}
		// Content interval covered by this segment.
		cStart := seg.contentStart
		cEnd := cStart + (end - seg.wallStart)
		firstIdx := p.cfg.StartIndex + int(cStart/p.dur)
		for idx := firstIdx; float64(idx-p.cfg.StartIndex)*p.dur < cEnd; idx++ {
			track, ok := trackOf[idx]
			if !ok {
				continue
			}
			ws := seg.wallStart + (float64(idx-p.cfg.StartIndex)*p.dur - cStart)
			we := ws + p.dur
			if ws < seg.wallStart {
				ws = seg.wallStart
			}
			if we > end {
				we = end
			}
			if we <= ws {
				continue
			}
			out = append(out, capture.DisplayRecord{Start: ws, End: we, Index: idx, Track: track})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}
