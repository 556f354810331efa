// Package video models the client video pipeline of Fig 5 (media source,
// source pipe, decoder, renderer) at the fidelity the paper's experiments
// need: a Player that consumes delivered bytes at the encoded bitrate and
// accounts start-up latency, buffer occupancy and rebuffering; a Requester
// that plays the MediaCacheService role, fetching a video through
// concurrent range-request streams; and a Server that serves ranges and
// tags the first video frame for frame-priority re-injection.
package video

import (
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Video describes one short-form video object.
type Video struct {
	// ID names the video in requests.
	ID string
	// Size is the total size in bytes.
	Size uint64
	// BitrateBps is the encoded bitrate in bits per second.
	BitrateBps uint64
	// FPS is the frame rate.
	FPS uint64
	// FirstFrameSize is the size of the first video frame in bytes,
	// the region accelerated by frame-priority re-injection.
	FirstFrameSize uint64
}

// Duration returns the play duration implied by size and bitrate.
func (v Video) Duration() time.Duration {
	if v.BitrateBps == 0 {
		return 0
	}
	return time.Duration(float64(v.Size*8) / float64(v.BitrateBps) * float64(time.Second))
}

// BytesPerSecond returns the playback consumption rate.
func (v Video) BytesPerSecond() float64 { return float64(v.BitrateBps) / 8 }

// playerState tracks the playback lifecycle.
type playerState int

const (
	stateStartup playerState = iota
	statePlaying
	stateRebuffering
	stateFinished
)

// PlayerConfig tunes the player model.
type PlayerConfig struct {
	// StartThreshold is the buffered content (play time) needed before
	// playback starts; the first video frame must also have arrived.
	StartThreshold time.Duration
	// ResumeThreshold is the buffered content needed to resume after a
	// rebuffer.
	ResumeThreshold time.Duration
}

// DefaultPlayerConfig mirrors a typical short-video player: start as soon
// as the first frame plus a small cushion is in, resume after 200 ms of
// content.
func DefaultPlayerConfig() PlayerConfig {
	return PlayerConfig{
		StartThreshold:  50 * time.Millisecond,
		ResumeThreshold: 200 * time.Millisecond,
	}
}

// Player simulates playback of one video. Drive it by calling OnData as
// bytes are delivered in order and Advance to move time forward; both take
// the current time explicitly so the player runs under any clock.
type Player struct {
	video Video
	cfg   PlayerConfig

	state playerState

	received uint64 // in-order bytes delivered by the transport
	consumed uint64 // bytes played out
	lastTime time.Duration

	firstFrameAt   time.Duration
	haveFirstFrame bool
	startedAt      time.Duration
	started        bool
	finishedAt     time.Duration

	rebufferTime  time.Duration
	rebufferCount int
	rebufferStart time.Duration

	// DangerSamples counts Δt observations below DangerLevel, matching
	// Table 2's "buffer levels < 50ms" metric; TotalSamples counts all.
	DangerSamples int
	TotalSamples  int

	// BufferSeries records (time, buffered bytes) for Fig 6-style plots.
	BufferSeries stats.TimeSeries
	// ReinjectSeries is fed by the harness with cumulative re-injected
	// bytes for the same plots.
	ReinjectSeries stats.TimeSeries

	// tr traces pipeline milestones (nil = no-op).
	tr *obs.Origin
	// decodedFrames is the last frame count reported on the trace, so
	// video:frames_decoded fires once per decoded frame, not per sample.
	decodedFrames uint64
}

// DangerLevel is the play-time-left considered a rebuffer hazard (Sec 7.1).
const DangerLevel = 50 * time.Millisecond

// NewPlayer creates a player for the video.
func NewPlayer(v Video, cfg PlayerConfig) *Player {
	return &Player{video: v, cfg: cfg}
}

// SetTracer installs a structured event tracer recording pipeline
// milestones: first-frame cached, playback start, decode progress,
// rebuffer start/end, finish.
func (p *Player) SetTracer(o *obs.Origin) { p.tr = o }

// OnData delivers n in-order bytes at time now.
func (p *Player) OnData(now time.Duration, n uint64) {
	p.Advance(now)
	p.received += n
	if p.received > p.video.Size {
		p.received = p.video.Size
	}
	if !p.haveFirstFrame && p.received >= p.video.FirstFrameSize {
		p.haveFirstFrame = true
		p.firstFrameAt = now
		p.tr.VideoFrameCached(now, p.received)
	}
	p.maybeStartOrResume(now)
	p.sample(now)
}

// Advance moves playback to time now, consuming buffered content and
// accounting rebuffer time.
func (p *Player) Advance(now time.Duration) {
	if now <= p.lastTime {
		return
	}
	elapsed := now - p.lastTime
	switch p.state {
	case statePlaying:
		rate := p.video.BytesPerSecond()
		canPlay := time.Duration(float64(p.buffered()) / rate * float64(time.Second))
		if elapsed <= canPlay {
			p.consumed += uint64(rate * elapsed.Seconds())
		} else {
			// Buffer exhausted mid-interval.
			p.consumed = p.received
			if p.consumed >= p.video.Size {
				p.state = stateFinished
				p.finishedAt = p.lastTime + canPlay
				p.tr.VideoFinished(p.finishedAt)
			} else {
				p.state = stateRebuffering
				p.rebufferCount++
				p.rebufferStart = p.lastTime + canPlay
				p.tr.VideoRebufferStart(p.rebufferStart, p.rebufferCount)
				// A stall is the user-visible QoE failure: trigger a
				// flight-recorder dump of the events leading into it.
				p.tr.Anomaly(p.rebufferStart, "rebuffer_stall")
			}
		}
		if p.consumed >= p.video.Size {
			p.state = stateFinished
			if p.finishedAt == 0 {
				p.finishedAt = now
				p.tr.VideoFinished(now)
			}
		}
	case stateRebuffering:
		// Time accrues until resume; accounted on state change or query.
	case stateStartup, stateFinished:
	}
	p.lastTime = now
	p.maybeStartOrResume(now)
	p.sample(now)
}

// maybeStartOrResume transitions into playing when thresholds are met.
func (p *Player) maybeStartOrResume(now time.Duration) {
	switch p.state {
	case stateStartup:
		if p.haveFirstFrame && p.bufferedPlaytime() >= p.cfg.StartThreshold {
			p.state = statePlaying
			p.started = true
			p.startedAt = now
			p.tr.VideoPlaybackStarted(now)
		}
	case stateRebuffering:
		if p.received >= p.video.Size || p.bufferedPlaytime() >= p.cfg.ResumeThreshold {
			p.rebufferTime += now - p.rebufferStart
			p.state = statePlaying
			p.tr.VideoRebufferEnd(now, now-p.rebufferStart)
		}
	}
}

// buffered returns the bytes buffered and not yet played.
func (p *Player) buffered() uint64 {
	if p.received < p.consumed {
		return 0
	}
	return p.received - p.consumed
}

// BufferedPlaytime returns the play time represented by the buffer.
func (p *Player) BufferedPlaytime() time.Duration { return p.bufferedPlaytime() }

// bufferedPlaytime returns the play time represented by the buffer.
func (p *Player) bufferedPlaytime() time.Duration {
	rate := p.video.BytesPerSecond()
	if rate == 0 {
		return 0
	}
	return time.Duration(float64(p.buffered()) / rate * float64(time.Second))
}

// sample records buffer level and danger statistics.
func (p *Player) sample(now time.Duration) {
	p.BufferSeries.Add(now, float64(p.buffered()))
	if p.state == statePlaying || p.state == stateRebuffering {
		p.TotalSamples++
		if p.bufferedPlaytime() < DangerLevel {
			p.DangerSamples++
		}
	}
	if p.tr != nil && p.video.FPS > 0 {
		bytesPerFrame := p.video.BytesPerSecond() / float64(p.video.FPS)
		if frames := uint64(float64(p.consumed) / bytesPerFrame); frames != p.decodedFrames {
			p.decodedFrames = frames
			p.tr.VideoFramesDecoded(now, frames)
		}
	}
}

// QoESignal reports the player's current state in the wire format the
// client feeds back to the server (Sec 5.2: cached_bytes, cached_frames,
// bps, fps).
func (p *Player) QoESignal() wire.QoESignal {
	bytesPerFrame := 1.0
	if p.video.FPS > 0 {
		bytesPerFrame = p.video.BytesPerSecond() / float64(p.video.FPS)
	}
	return wire.QoESignal{
		CachedBytes:  p.buffered(),
		CachedFrames: uint64(float64(p.buffered()) / bytesPerFrame),
		BitrateBps:   p.video.BitrateBps,
		FramerateFPS: p.video.FPS,
	}
}

// Metrics summarizes a finished (or in-progress) playback session.
type Metrics struct {
	// FirstFrameLatency is when the first video frame was delivered.
	FirstFrameLatency time.Duration
	// StartupLatency is when playback began.
	StartupLatency time.Duration
	// RebufferTime is the cumulative stall time.
	RebufferTime time.Duration
	// RebufferCount is the number of stalls.
	RebufferCount int
	// PlayTime is the cumulative played content time.
	PlayTime time.Duration
	// Finished reports whether the video played to the end.
	Finished bool
	// FinishedAt is the instant playback reached the end of the video, zero
	// if it has not. From then on the buffer is empty by definition, so a
	// buffer sample taken after it says nothing about the transport.
	FinishedAt time.Duration
	// DangerFraction is the fraction of samples with <50 ms of buffer.
	DangerFraction float64
}

// Metrics returns the current session metrics at time now.
func (p *Player) Metrics(now time.Duration) Metrics {
	p.Advance(now)
	rebuffer := p.rebufferTime
	if p.state == stateRebuffering {
		rebuffer += now - p.rebufferStart
	}
	playSeconds := float64(p.consumed) / p.video.BytesPerSecond()
	m := Metrics{
		RebufferTime:  rebuffer,
		RebufferCount: p.rebufferCount,
		PlayTime:      time.Duration(playSeconds * float64(time.Second)),
		Finished:      p.state == stateFinished,
	}
	if m.Finished {
		m.FinishedAt = p.finishedAt
	}
	if p.haveFirstFrame {
		m.FirstFrameLatency = p.firstFrameAt
	}
	if p.started {
		m.StartupLatency = p.startedAt
	}
	if p.TotalSamples > 0 {
		m.DangerFraction = float64(p.DangerSamples) / float64(p.TotalSamples)
	}
	return m
}
