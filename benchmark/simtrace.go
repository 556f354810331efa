package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/video"
)

// Span names of the sim assembly, one per boundary the benchmark owns.
const (
	spanRun      = "sim.run"            // Loop.RunUntil; self time = loop + netem link events
	spanRecvCli  = "transport.recv.cli" // client HandleDatagram (data direction)
	spanRecvSrv  = "transport.recv.srv" // server HandleDatagram (ACK direction)
	spanTimer    = "transport.timer"    // callbacks scheduled through Env.Schedule
	spanStart    = "transport.start"    // Conn.Start
	spanSend     = "netem.send"         // Network.*Send / *SendBatch
	spanCallback = "video.callback"     // OnStreamData / OnHandshakeDone application callbacks
	spanDecide   = "qoe.decide"         // ReinjectionGate (Alg. 1)
	spanTick     = "core.tick"          // the 50 ms player/requester tick
)

// boundaryCounts are read at the same boundaries the spans wrap.
type boundaryCounts struct {
	batches, batchPkts  uint64    // SendBatch calls and the packets in them
	sentPkts, sentBytes [2]uint64 // [0] client, [1] server
	decisions           uint64
	queuePeak           int
}

// simAssembly is the session of core.NewSession rebuilt from its public
// parts, with the benchmark's own Env, DatagramSender, receive handlers and
// callbacks in between. With a nil recorder and nil obs trace it must be the
// same program: checkSameProgram holds it to the core.Session run's stats.
type simAssembly struct {
	cfg       core.SessionConfig
	rec       *recorder
	cur       int32 // innermost open span; the sim loop is single-threaded
	counts    boundaryCounts
	loop      *sim.Loop
	nw        *netem.Network
	client    *transport.Conn
	server    *transport.Conn
	player    *video.Player
	requester *video.Requester
	x         *core.XLINK

	downloadDone time.Duration
}

// openSpan is a span in progress: its index and the span to return to.
type openSpan struct{ i, parent int32 }

// open starts a span under the innermost open one and makes it innermost.
func (a *simAssembly) open(name string, id uint64) openSpan {
	s := openSpan{i: a.rec.begin(name, id, a.cur), parent: a.cur}
	if s.i >= 0 {
		a.cur = s.i
	}
	return s
}

func (a *simAssembly) close(s openSpan) {
	a.rec.end(s.i)
	if s.i >= 0 {
		a.cur = s.parent
	}
}

// span runs fn inside a span of the given name.
func (a *simAssembly) span(name string, id uint64, fn func()) {
	s := a.open(name, id)
	fn()
	a.close(s)
}

// tracedEnv is transport.SimEnv with every scheduled callback in a span.
type tracedEnv struct{ a *simAssembly }

func (e tracedEnv) Now() time.Duration { return e.a.loop.Now() }

func (e tracedEnv) Schedule(at time.Duration, fn func(now time.Duration)) func() {
	a := e.a
	t := a.loop.At(at, func(now time.Duration) {
		a.span(spanTimer, 0, func() { fn(now) })
	})
	return func() { t.Stop() }
}

// tracedSender is transport's netem sender with every hand-off in a span.
type tracedSender struct {
	a      *simAssembly
	client bool
}

func (s tracedSender) side() int {
	if s.client {
		return 0
	}
	return 1
}

func (s tracedSender) SendDatagram(netIdx int, data []byte) {
	a := s.a
	a.counts.sentPkts[s.side()]++
	a.counts.sentBytes[s.side()] += uint64(len(data))
	sp := a.open(spanSend, 0)
	if s.client {
		a.nw.ClientSend(netIdx, data)
	} else {
		a.nw.ServerSend(netIdx, data)
	}
	a.close(sp)
}

func (s tracedSender) SendBatch(netIdx int, pkts [][]byte) int {
	a := s.a
	a.counts.batches++
	a.counts.batchPkts += uint64(len(pkts))
	a.counts.sentPkts[s.side()] += uint64(len(pkts))
	for _, p := range pkts {
		a.counts.sentBytes[s.side()] += uint64(len(p))
	}
	var n int
	sp := a.open(spanSend, 0)
	if s.client {
		n = a.nw.ClientSendBatch(netIdx, pkts)
	} else {
		n = a.nw.ServerSendBatch(netIdx, pkts)
	}
	a.close(sp)
	if netIdx >= 0 && netIdx < len(a.nw.Paths) {
		l := a.nw.Paths[netIdx].Down()
		if s.client {
			l = a.nw.Paths[netIdx].Up()
		}
		if q := l.QueueLen(); q > a.counts.queuePeak {
			a.counts.queuePeak = q
		}
	}
	return n
}

// assembleSim mirrors core.NewSession and transport.NewPair call for call,
// so the event loop sees the same events in the same order. tr, when set,
// turns on the transport's own obs tracer (for obs.tracer_slowdown_share).
func assembleSim(cfg core.SessionConfig, rec *recorder, tr *obs.Trace) *simAssembly {
	if cfg.Deadline == 0 {
		cfg.Deadline = cfg.Video.Duration() + 60*time.Second
	}
	if cfg.Player == (video.PlayerConfig{}) {
		cfg.Player = video.DefaultPlayerConfig()
	}
	a := &simAssembly{cfg: cfg, rec: rec, cur: -1}
	a.x = core.New(cfg.Scheme, cfg.Options)
	a.loop = sim.NewLoop()
	rng := sim.NewRNG(cfg.Seed)
	a.nw = netem.NewNetwork(a.loop, rng, cfg.Paths)

	clientCfg, serverCfg := a.x.ClientConfig(cfg.Seed^0x11), a.x.ServerConfig(cfg.Seed^0x22)
	clientCfg.IsClient, serverCfg.IsClient = true, false
	if tr != nil {
		clientCfg.Tracer, serverCfg.Tracer = tr.Origin("client"), tr.Origin("server")
	}
	if gate := serverCfg.ReinjectionGate; gate != nil {
		serverCfg.ReinjectionGate = func(now, maxDeliver time.Duration) (on bool) {
			a.counts.decisions++
			a.span(spanDecide, 0, func() { on = gate(now, maxDeliver) })
			return on
		}
	}
	env := tracedEnv{a}
	a.client = transport.NewConn(env, tracedSender{a: a, client: true}, clientCfg)
	a.server = transport.NewConn(env, tracedSender{a: a, client: false}, serverCfg)
	a.nw.Attach(
		func(now time.Duration, pathIdx int, data []byte) {
			a.span(spanRecvCli, 0, func() { a.client.HandleDatagram(now, pathIdx, data) })
		},
		func(now time.Duration, pathIdx int, data []byte) {
			a.span(spanRecvSrv, 0, func() { a.server.HandleDatagram(now, pathIdx, data) })
		})
	for i, pc := range cfg.Paths {
		a.client.AddInterface(i, pc.Tech)
	}

	a.player = video.NewPlayer(cfg.Video, cfg.Player)
	a.requester = video.NewRequester(a.client, cfg.Video, a.player, cfg.Requester)
	server := video.NewServer(a.server, []video.Video{cfg.Video})
	server.FirstFramePriority = !cfg.Options.DisableFrameAcceleration

	callback := func(inner func(time.Duration, *transport.RecvStream, []byte, bool)) func(time.Duration, *transport.RecvStream, []byte, bool) {
		return func(now time.Duration, rs *transport.RecvStream, data []byte, fin bool) {
			a.span(spanCallback, rs.ID(), func() { inner(now, rs, data, fin) })
		}
	}
	a.client.SetOnStreamData(callback(a.requester.OnStreamData))
	a.server.SetOnStreamData(callback(server.OnStreamData))
	a.client.SetQoEProvider(a.player.QoESignal)
	a.requester.SetOnComplete(func(now time.Duration) { a.downloadDone = now })
	a.client.SetOnHandshakeDone(func(now time.Duration) {
		a.span(spanCallback, 0, func() { a.requester.Start(now) })
	})

	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		a.span(spanTick, 0, func() {
			a.player.Advance(now)
			a.requester.Poll(now)
			a.player.ReinjectSeries.Add(now, float64(a.server.Stats().ReinjectedBytesSent))
			if now < cfg.Deadline {
				a.loop.After(50*time.Millisecond, tick)
			}
		})
	}
	a.loop.After(50*time.Millisecond, tick)
	return a
}

// run drives the assembled session to its deadline and returns its outcome.
func (a *simAssembly) run() (simOutcome, error) {
	var err error
	a.span(spanRun, 0, func() {
		a.span(spanStart, 0, func() { err = a.client.Start() })
		if err == nil {
			a.loop.RunUntil(a.cfg.Deadline)
		}
	})
	if err != nil {
		return simOutcome{}, err
	}
	now := a.loop.Now()
	o := simOutcome{
		server: a.server.Stats(), client: a.client.Stats(),
		metrics: a.player.Metrics(now),
		chunks:  chunkCount(a.cfg), completed: len(a.requester.Results),
		verifyErrors: a.requester.VerifyErrors(),
		events:       a.loop.Fired(),
		links:        sumLinks(a.nw),
	}
	for _, c := range a.requester.Results {
		o.rcts = append(o.rcts, c.RCT())
	}
	// The scorecard as core.Session.result composes it.
	card := a.server.Scorecard()
	card.FECRecoveredBytes = o.client.FECRecoveredBytes
	card.Completed = a.requester.Done()
	if card.Completed {
		card.RCT = a.downloadDone
	}
	card.RebufferTime = o.metrics.RebufferTime
	card.RebufferCount = uint64(o.metrics.RebufferCount)
	if c := a.x.Controller; c != nil {
		card.QoEDecisions, card.QoEEnables = c.Stats()
		card.QoETransitions = c.Transitions()
	}
	o.card = card
	return o, nil
}

// checkSameProgram fails unless the assembled run reproduced the
// core.Session run exactly; otherwise the spans describe a different program.
func checkSameProgram(assembled, reference simOutcome) error {
	if assembled.sameRun(reference) && assembled.events == reference.events {
		return nil
	}
	return fmt.Errorf("traced assembly diverged from core.Session: server %+v vs %+v; client %+v vs %+v; events %d vs %d",
		assembled.server, reference.server, assembled.client, reference.client, assembled.events, reference.events)
}
