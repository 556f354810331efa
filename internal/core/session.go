package core

import (
	"time"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/video"
)

// SessionConfig describes one emulated video play.
type SessionConfig struct {
	// Scheme and Options select the transport under test.
	Scheme  Scheme
	Options Options
	// Paths describe the emulated network; interface i maps to path i.
	Paths []netem.PathConfig
	// Video is the content to play.
	Video video.Video
	// Player tunes the playback model; zero means defaults.
	Player video.PlayerConfig
	// Requester tunes chunking; zero means defaults.
	Requester video.RequesterConfig
	// Seed drives every random choice in the session.
	Seed int64
	// Deadline bounds the session (default: 60s past nominal duration).
	Deadline time.Duration
	// Configure, when set, adjusts the scheme's client and server transport
	// configs before the pair is built: a re-injection mode, a congestion
	// controller, Params.EnableFEC, the seeds, the tracers.
	Configure func(client, server *transport.Config)
}

// SessionResult aggregates a session's measurements.
type SessionResult struct {
	Scheme Scheme
	// Playback metrics.
	Metrics video.Metrics
	// ChunkRCTs are per-chunk request completion times.
	ChunkRCTs []time.Duration
	// DownloadTime is when the last chunk completed (Fig 13's request
	// download time).
	DownloadTime time.Duration
	// Redundancy is re-injected bytes / all stream bytes sent by the
	// server (the paper's cost overhead).
	Redundancy float64
	// ServerStats and ClientStats are the raw transport counters.
	ServerStats transport.ConnStats
	ClientStats transport.ConnStats
	// BufferSeries and ReinjectSeries are Fig 6-style time series.
	BufferSeries   *stats.TimeSeries
	ReinjectSeries *stats.TimeSeries
	// Completed reports whether the full video was fetched in time.
	Completed bool
	// Scorecard is the per-session QoE rollup (DESIGN.md §14): the
	// transport-side base from the server connection plus player and
	// Alg. 1 fields, ready for Registry.MergeScorecard — the unit the
	// A/B harness aggregates per arm.
	Scorecard obs.Scorecard
}

// Session is one wired-up emulated video play.
type Session struct {
	cfg       SessionConfig
	Loop      *sim.Loop
	Pair      *transport.Pair
	Player    *video.Player
	Requester *video.Requester
	Server    *video.Server
	XLINK     *XLINK

	downloadDone time.Duration
}

// NewSession builds the topology of Fig 2 under the scheme. Nothing is
// scheduled yet: a caller that drives the loop itself (the chaos harness)
// may replace callbacks and add its own timers before starting the pair.
func NewSession(cfg SessionConfig) *Session {
	if cfg.Deadline == 0 {
		cfg.Deadline = cfg.Video.Duration() + 60*time.Second
	}
	if cfg.Player == (video.PlayerConfig{}) {
		cfg.Player = video.DefaultPlayerConfig()
	}
	x := New(cfg.Scheme, cfg.Options)
	loop := sim.NewLoop()
	ccfg, scfg := x.ClientConfig(cfg.Seed^0x11), x.ServerConfig(cfg.Seed^0x22)
	if cfg.Configure != nil {
		ccfg, scfg = configured(cfg.Configure, ccfg, scfg)
	}
	pair := transport.NewPair(loop, sim.NewRNG(cfg.Seed), cfg.Paths, ccfg, scfg)

	player := video.NewPlayer(cfg.Video, cfg.Player)
	requester := video.NewRequester(pair.Client, cfg.Video, player, cfg.Requester)
	server := video.NewServer(pair.Server, []video.Video{cfg.Video})
	server.FirstFramePriority = !cfg.Options.DisableFrameAcceleration

	s := &Session{
		cfg: cfg, Loop: loop, Pair: pair,
		Player: player, Requester: requester, Server: server, XLINK: x,
	}
	pair.Client.SetOnStreamData(requester.OnStreamData)
	pair.Server.SetOnStreamData(server.OnStreamData)
	pair.Client.SetQoEProvider(player.QoESignal)
	requester.SetOnComplete(func(now time.Duration) { s.downloadDone = now })
	pair.Client.SetOnHandshakeDone(func(now time.Duration) { requester.Start(now) })
	return s
}

// configured applies fn to copies of the two configs, so that only a session
// with a hook pays for moving them to the heap.
func configured(fn func(client, server *transport.Config), c, s transport.Config) (transport.Config, transport.Config) {
	fn(&c, &s)
	return c, s
}

// Run starts the session and drives it to completion or deadline.
func (s *Session) Run() (SessionResult, error) {
	// Advance the player at a fixed cadence and sample the server's
	// re-injection counter for the Fig 6 dynamics.
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		s.Player.Advance(now)
		s.Requester.Poll(now)
		s.Player.ReinjectSeries.Add(now, float64(s.Pair.Server.Stats().ReinjectedBytesSent))
		if now < s.cfg.Deadline {
			s.Loop.After(50*time.Millisecond, tick)
		}
	}
	s.Loop.After(50*time.Millisecond, tick)
	if err := s.Pair.Start(); err != nil {
		return SessionResult{}, err
	}
	s.Loop.RunUntil(s.cfg.Deadline)
	return s.result(), nil
}

// result collects measurements at the deadline.
func (s *Session) result() SessionResult {
	now := s.Loop.Now()
	res := SessionResult{
		Scheme:         s.cfg.Scheme,
		Metrics:        s.Player.Metrics(now),
		DownloadTime:   s.downloadDone,
		Redundancy:     s.Pair.Server.Stats().RedundancyRatio(),
		ServerStats:    s.Pair.Server.Stats(),
		ClientStats:    s.Pair.Client.Stats(),
		BufferSeries:   &s.Player.BufferSeries,
		ReinjectSeries: &s.Player.ReinjectSeries,
		Completed:      s.Requester.Done(),
	}
	for _, c := range s.Requester.Results {
		res.ChunkRCTs = append(res.ChunkRCTs, c.RCT())
	}
	if !res.Completed {
		res.DownloadTime = s.cfg.Deadline
	}
	res.Scorecard = s.XLINK.Scorecard(s.Pair, res.Metrics, res.Completed, res.DownloadTime)
	return res
}

// Scorecard composes the per-session QoE rollup (DESIGN.md §14): the
// transport base from the server connection (the sender side, for lane
// attribution and per-path utilization), the client's receiver-side FEC
// recoveries, the player's stalls and the Alg. 1 controller's activity.
// rct is recorded only when the session completed.
func (x *XLINK) Scorecard(pair *transport.Pair, m video.Metrics, completed bool, rct time.Duration) obs.Scorecard {
	card := pair.Server.Scorecard()
	card.FECRecoveredBytes = pair.Client.Stats().FECRecoveredBytes
	card.Completed = completed
	if completed {
		card.RCT = rct
	}
	card.RebufferTime = m.RebufferTime
	card.RebufferCount = uint64(m.RebufferCount)
	card.QoEDecisions, card.QoEEnables = x.Controller.Stats()
	card.QoETransitions = x.Controller.Transitions()
	return card
}

// RunSession is the one-call convenience wrapper.
func RunSession(cfg SessionConfig) (SessionResult, error) {
	return NewSession(cfg).Run()
}
