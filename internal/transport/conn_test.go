package transport

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// collectStream accumulates delivered stream data into a buffer per stream.
type collector struct {
	data     map[uint64]*bytes.Buffer
	finished map[uint64]time.Duration
}

func newCollector() *collector {
	return &collector{data: map[uint64]*bytes.Buffer{}, finished: map[uint64]time.Duration{}}
}

func (c *collector) onData(now time.Duration, s *RecvStream, data []byte, fin bool) {
	buf := c.data[s.ID()]
	if buf == nil {
		buf = &bytes.Buffer{}
		c.data[s.ID()] = buf
	}
	buf.Write(data)
	if fin {
		c.finished[s.ID()] = now
	}
}

func defaultMPConfig() (client, server Config) {
	params := wire.DefaultTransportParams()
	params.EnableMultipath = true
	client = Config{Params: params, Seed: 1}
	server = Config{Params: params, Seed: 2}
	return client, server
}

func TestHandshakeEstablishes(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(1), TwoPathConfig(20, 20, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(2 * time.Second)
	if !pair.Client.Established() || !pair.Server.Established() {
		t.Fatal("handshake did not complete")
	}
	if !pair.Client.multipath || !pair.Server.multipath {
		t.Fatal("multipath not negotiated")
	}
}

func TestMultipathFallback(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	scfg.Params.EnableMultipath = false // server refuses
	pair := NewPair(loop, sim.NewRNG(1), TwoPathConfig(20, 20, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(2 * time.Second)
	if !pair.Client.Established() {
		t.Fatal("handshake failed")
	}
	if pair.Client.multipath || pair.Server.multipath {
		t.Fatal("must fall back to single path")
	}
	if len(pair.Client.Paths()) != 1 {
		t.Fatalf("client has %d paths, want 1", len(pair.Client.Paths()))
	}
}

func TestSecondaryPathValidated(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(1), TwoPathConfig(20, 20, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(3 * time.Second)
	cp := pair.Client.Paths()
	if len(cp) != 2 {
		t.Fatalf("client has %d paths, want 2", len(cp))
	}
	for _, p := range cp {
		if !p.Usable() {
			t.Fatalf("path %d state %v, want active", p.ID, p.State)
		}
	}
	if len(pair.Server.Paths()) != 2 {
		t.Fatalf("server has %d paths, want 2", len(pair.Server.Paths()))
	}
}

func TestPrimaryPathWirelessAware(t *testing.T) {
	// Interfaces: 0=LTE, 1=WiFi. Wireless-aware selection must choose
	// WiFi (netIdx 1) as primary.
	loop := sim.NewLoop()
	cfgs := []netem.PathConfig{
		{Name: "lte", Tech: trace.TechLTE, Up: trace.ConstantRate("l", 20, time.Second), OneWayDelay: 30 * time.Millisecond},
		{Name: "wifi", Tech: trace.TechWiFi, Up: trace.ConstantRate("w", 20, time.Second), OneWayDelay: 10 * time.Millisecond},
	}
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(1), cfgs, ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(time.Second)
	if pair.Client.Paths()[0].NetIdx != 1 {
		t.Fatalf("primary on netIdx %d, want 1 (WiFi)", pair.Client.Paths()[0].NetIdx)
	}
	if pair.Client.Paths()[0].Tech != trace.TechWiFi {
		t.Fatal("primary tech should be WiFi")
	}
}

func transfer(t *testing.T, pair *Pair, size int, deadline time.Duration) (*collector, time.Duration) {
	t.Helper()
	col := newCollector()
	pair.Server.SetOnStreamData(col.onData)

	// Client requests; server responds with `size` bytes on the stream.
	serverCol := newCollector()
	pair.Client.SetOnStreamData(serverCol.onData)
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	pair.Server.SetOnStreamOpen(func(now time.Duration, rs *RecvStream) {
		ss := pair.Server.Stream(rs.ID())
		ss.Write(payload)
		ss.Close()
	})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	var done time.Duration
	pair.Client.SetOnHandshakeDone(func(now time.Duration) {
		s := pair.Client.OpenStream()
		s.Write([]byte("GET /video"))
		s.Close()
	})
	pair.RunUntil(deadline)
	if buf := serverCol.data[0]; buf == nil || buf.Len() != size {
		got := 0
		if buf != nil {
			got = buf.Len()
		}
		t.Fatalf("client received %d of %d bytes", got, size)
	}
	if !bytes.Equal(serverCol.data[0].Bytes(), payload) {
		t.Fatal("payload corrupted in transfer")
	}
	done = serverCol.finished[0]
	if done == 0 {
		t.Fatal("stream did not finish")
	}
	return serverCol, done
}

func TestBulkTransferTwoPaths(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(1), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	_, done := transfer(t, pair, 2<<20, 20*time.Second)
	// 2 MiB over 2x10 Mbit/s aggregated ≈ 0.84s + handshake; single path
	// would need ≥1.7s. Multi-path must beat single-path time.
	if done > 1600*time.Millisecond {
		t.Fatalf("transfer took %v; aggregation not working", done)
	}
	// Both server paths must have carried data.
	for _, p := range pair.Server.Paths() {
		if p.SentBytes < 100_000 {
			t.Fatalf("path %d sent only %d bytes; no aggregation", p.ID, p.SentBytes)
		}
	}
}

func TestTransferWithLoss(t *testing.T) {
	loop := sim.NewLoop()
	cfgs := TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond)
	cfgs[0].LossRate = 0.02
	cfgs[1].LossRate = 0.02
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(7), cfgs, ccfg, scfg)
	transfer(t, pair, 512<<10, 30*time.Second)
}

// TestSeededPairSendsTheSameDatagrams: a seed fixes every byte a pair puts
// on the wire, not only what reaches a result or a trace. The same seeded
// two-path pair moves 2 MiB at 5 % loss twice, and a digest of every
// datagram delivered, with its instant, direction and path, must match.
// Connection IDs reach no result and no trace event: one drawn from anything
// but the connection's RNG shows up here and nowhere else.
func TestSeededPairSendsTheSameDatagrams(t *testing.T) {
	run := func() (digest [sha256.Size]byte, datagrams int) {
		cfgs := TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond)
		cfgs[0].LossRate, cfgs[1].LossRate = 0.05, 0.05
		ccfg, scfg := defaultMPConfig()
		pair := NewPair(sim.NewLoop(), sim.NewRNG(7), cfgs, ccfg, scfg)
		h := sha256.New()
		tap := func(side byte, conn *Conn) netem.Handler {
			return func(now time.Duration, pathIdx int, data []byte) {
				var hdr [25]byte
				binary.BigEndian.PutUint64(hdr[0:], uint64(now))
				hdr[8] = side
				binary.BigEndian.PutUint64(hdr[9:], uint64(pathIdx))
				binary.BigEndian.PutUint64(hdr[17:], uint64(len(data)))
				h.Write(hdr[:])
				h.Write(data)
				datagrams++
				conn.HandleDatagram(now, pathIdx, data)
			}
		}
		pair.Network.Attach(tap('c', pair.Client), tap('s', pair.Server))
		transfer(t, pair, 2<<20, 30*time.Second)
		copy(digest[:], h.Sum(nil))
		return digest, datagrams
	}
	d1, n1 := run()
	d2, n2 := run()
	if d1 != d2 {
		t.Fatalf("same seed, different wire: %d datagrams digest %x, then %d digest %x", n1, d1, n2, d2)
	}
}

func TestSinglePathTransfer(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	ccfg.Params.EnableMultipath = false
	pair := NewPair(loop, sim.NewRNG(3), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	transfer(t, pair, 256<<10, 10*time.Second)
	if len(pair.Client.Paths()) != 1 {
		t.Fatal("single-path mode must not open secondary paths")
	}
}

func TestReinjectionRecoversFromOutage(t *testing.T) {
	// Path 0 dies mid-transfer. With re-injection, the transfer finishes
	// quickly over path 1; without, tail packets strand until RTO.
	run := func(mode ReinjectionMode) time.Duration {
		loop := sim.NewLoop()
		cfgs := TwoPathConfig(8, 8, 20*time.Millisecond, 40*time.Millisecond)
		ccfg, scfg := defaultMPConfig()
		scfg.ReinjectionMode = mode
		pair := NewPair(loop, sim.NewRNG(5), cfgs, ccfg, scfg)
		// Kill the wifi path at 600ms.
		loop.At(600*time.Millisecond, func(time.Duration) {
			pair.Network.Paths[0].SetDown(true)
		})
		_, done := transfer(t, pair, 1<<20, 60*time.Second)
		return done
	}
	with := run(ReinjectStreamPriority)
	without := run(ReinjectNone)
	if with >= without {
		t.Fatalf("re-injection (%v) should beat none (%v) under outage", with, without)
	}
}

func TestReinjectionAccounting(t *testing.T) {
	loop := sim.NewLoop()
	cfgs := TwoPathConfig(8, 2, 20*time.Millisecond, 100*time.Millisecond)
	ccfg, scfg := defaultMPConfig()
	scfg.ReinjectionMode = ReinjectStreamPriority
	pair := NewPair(loop, sim.NewRNG(5), cfgs, ccfg, scfg)
	transfer(t, pair, 512<<10, 30*time.Second)
	st := pair.Server.Stats()
	if st.ReinjectedBytesSent == 0 {
		t.Fatal("heterogeneous paths at stream tail should trigger re-injection")
	}
	if st.StreamBytesSent < 512<<10 {
		t.Fatalf("stream bytes sent %d < payload", st.StreamBytesSent)
	}
	// Receiver-side duplicates should be observed too.
	if pair.Client.Stats().DuplicateBytesRecv == 0 {
		t.Fatal("client should see duplicate bytes from re-injection")
	}
}

func TestReinjectionGateBlocks(t *testing.T) {
	loop := sim.NewLoop()
	cfgs := TwoPathConfig(8, 2, 20*time.Millisecond, 100*time.Millisecond)
	ccfg, scfg := defaultMPConfig()
	scfg.ReinjectionMode = ReinjectStreamPriority
	scfg.ReinjectionGate = func(now, maxDeliver time.Duration) bool { return false }
	pair := NewPair(loop, sim.NewRNG(5), cfgs, ccfg, scfg)
	transfer(t, pair, 512<<10, 30*time.Second)
	if pair.Server.Stats().ReinjectedBytesSent != 0 {
		t.Fatal("gate=false must suppress all re-injection")
	}
}

func TestQoEFeedbackReachesServer(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	sig := wire.QoESignal{CachedBytes: 1 << 20, CachedFrames: 90, BitrateBps: 2_000_000, FramerateFPS: 30}
	var got []wire.QoESignal
	scfg.OnQoE = func(now time.Duration, s wire.QoESignal) { got = append(got, s) }
	pair := NewPair(loop, sim.NewRNG(2), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	pair.Client.SetQoEProvider(func() wire.QoESignal { return sig })
	transfer(t, pair, 256<<10, 10*time.Second)
	if len(got) == 0 {
		t.Fatal("server never received QoE feedback")
	}
	if got[0] != sig {
		t.Fatalf("QoE signal corrupted: %+v", got[0])
	}
}

func TestAckPolicyMinRTTUsesFastPath(t *testing.T) {
	// Paths with very different RTTs: with min-RTT policy, acks for slow
	// path packets should travel on the fast path.
	loop := sim.NewLoop()
	cfgs := TwoPathConfig(10, 10, 20*time.Millisecond, 200*time.Millisecond)
	ccfg, scfg := defaultMPConfig()
	ccfg.AckPolicy = AckMinRTT
	pair := NewPair(loop, sim.NewRNG(2), cfgs, ccfg, scfg)
	transfer(t, pair, 512<<10, 20*time.Second)
	cp := pair.Client.Paths()
	// Client sends almost no data, so its sent packets are mostly acks.
	if cp[1].SentPackets > cp[0].SentPackets {
		t.Fatalf("minRTT ack policy: slow path carried %d pkts vs fast %d",
			cp[1].SentPackets, cp[0].SentPackets)
	}
}

func TestAckPolicyOriginalPath(t *testing.T) {
	loop := sim.NewLoop()
	cfgs := TwoPathConfig(10, 10, 20*time.Millisecond, 200*time.Millisecond)
	ccfg, scfg := defaultMPConfig()
	ccfg.AckPolicy = AckOriginalPath
	pair := NewPair(loop, sim.NewRNG(2), cfgs, ccfg, scfg)
	transfer(t, pair, 512<<10, 20*time.Second)
	cp := pair.Client.Paths()
	// With original-path acks both paths must carry acks.
	if cp[1].SentPackets == 0 {
		t.Fatal("original-path policy must ack on the slow path")
	}
}

func TestStreamPriorityOrdering(t *testing.T) {
	// Two streams; stream 0 (higher priority) must finish no later than
	// stream 4 even though both are written together.
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(4), TwoPathConfig(5, 5, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	col := newCollector()
	pair.Client.SetOnStreamData(col.onData)
	payload := make([]byte, 256<<10)
	pair.Server.SetOnStreamOpen(func(now time.Duration, rs *RecvStream) {
		if rs.ID() != 0 {
			return
		}
		for _, id := range []uint64{0, 4} {
			ss := pair.Server.Stream(id)
			ss.Write(payload)
			ss.Close()
		}
	})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.Client.SetOnHandshakeDone(func(now time.Duration) {
		s := pair.Client.OpenStream()
		s.Write([]byte("GET"))
		s.Close()
	})
	pair.RunUntil(30 * time.Second)
	f0, ok0 := col.finished[0]
	f4, ok4 := col.finished[4]
	if !ok0 || !ok4 {
		t.Fatalf("streams incomplete: %v %v", ok0, ok4)
	}
	if f0 > f4 {
		t.Fatalf("stream 0 finished at %v after stream 4 at %v", f0, f4)
	}
}

func TestCloseStopsTraffic(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(2), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(time.Second)
	pair.Client.Close(0, "done")
	pair.RunUntil(1200 * time.Millisecond)
	if !pair.Client.Closed() {
		t.Fatal("client should be closed")
	}
	if !pair.Server.Closed() {
		t.Fatal("server should learn of the close")
	}
}

func TestRedundancyRatio(t *testing.T) {
	var s ConnStats
	if s.RedundancyRatio() != 0 {
		t.Fatal("empty stats ratio")
	}
	s.StreamBytesSent = 85
	s.ReinjectedBytesSent = 15
	if r := s.RedundancyRatio(); r != 0.15 {
		t.Fatalf("ratio = %v", r)
	}
}

func TestAbandonPathReschedulesData(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(6), TwoPathConfig(8, 8, 20*time.Millisecond, 40*time.Millisecond), ccfg, scfg)
	// Mid-transfer, the client's app learns Wi-Fi went away and abandons
	// path 0 explicitly (Sec 6 "Path close").
	loop.At(500*time.Millisecond, func(now time.Duration) {
		pair.Network.Paths[0].SetDown(true)
		pair.Client.AbandonPath(0)
	})
	_, done := transfer(t, pair, 1<<20, 60*time.Second)
	if done > 5*time.Second {
		t.Fatalf("explicit abandon should recover quickly, took %v", done)
	}
	// The server must have learned of the abandon and closed its path 0.
	if pair.Server.Path(0) == nil || pair.Server.Path(0).State != PathClosed {
		t.Fatalf("server path0 state %v, want closed", pair.Server.Path(0).State)
	}
	if pair.Client.Path(0).State != PathClosed {
		t.Fatal("client path0 should be closed")
	}
}

func TestFlowControlBlocksAndUnblocks(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	// Tiny connection flow-control window on the client forces the server
	// to stall until MAX_DATA updates arrive.
	ccfg.Params.InitialMaxData = 64 << 10
	ccfg.Params.InitialMaxStrData = 32 << 10
	pair := NewPair(loop, sim.NewRNG(3), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	_, done := transfer(t, pair, 512<<10, 60*time.Second)
	if done == 0 {
		t.Fatal("transfer must complete despite small flow-control windows")
	}
}

func TestWriteFrameAcceleratesFirstFrame(t *testing.T) {
	// Direct transport-level check of Fig 4(c): with a slow secondary path
	// carrying part of the first frame, frame-priority re-injection
	// delivers the tagged region sooner than plain stream priority.
	run := func(mode ReinjectionMode) time.Duration {
		loop := sim.NewLoop()
		cfgs := TwoPathConfig(6, 1, 20*time.Millisecond, 400*time.Millisecond)
		ccfg, scfg := defaultMPConfig()
		scfg.ReinjectionMode = mode
		pair := NewPair(loop, sim.NewRNG(9), cfgs, ccfg, scfg)
		col := newCollector()
		var firstFrameAt time.Duration
		const frameSize = 256 << 10
		pair.Client.SetOnStreamData(func(now time.Duration, rs *RecvStream, data []byte, fin bool) {
			col.onData(now, rs, data, fin)
			if firstFrameAt == 0 && col.data[0] != nil && col.data[0].Len() >= frameSize {
				firstFrameAt = now
			}
		})
		pair.Server.SetOnStreamOpen(func(now time.Duration, rs *RecvStream) {
			ss := pair.Server.Stream(rs.ID())
			frame := make([]byte, frameSize)
			rest := make([]byte, 1<<20)
			ss.WriteFrame(frame, 0) // first video frame, highest priority
			ss.Write(rest)
			ss.Close()
		})
		if err := pair.Start(); err != nil {
			t.Fatal(err)
		}
		pair.Client.SetOnHandshakeDone(func(now time.Duration) {
			s := pair.Client.OpenStream()
			s.Write([]byte("GET"))
			s.Close()
		})
		pair.RunUntil(60 * time.Second)
		if firstFrameAt == 0 {
			t.Fatal("first frame never completed")
		}
		return firstFrameAt
	}
	framePrio := run(ReinjectFramePriority)
	streamPrio := run(ReinjectStreamPriority)
	if framePrio > streamPrio {
		t.Fatalf("frame-priority first frame %v should not lag stream-priority %v", framePrio, streamPrio)
	}
}

func TestStreamResetStopsSending(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(8), TwoPathConfig(4, 4, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	var resetSeen bool
	pair.Client.SetOnStreamData(func(now time.Duration, rs *RecvStream, data []byte, fin bool) {})
	payload := make([]byte, 4<<20) // would take ~4s at 8 Mbit/s aggregate
	// Held: a reset stream leaves the connection once its last packet resolves.
	var ss *SendStream
	pair.Server.SetOnStreamOpen(func(now time.Duration, rs *RecvStream) {
		ss = pair.Server.Stream(rs.ID())
		ss.Write(payload)
		ss.Close()
	})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.Client.SetOnHandshakeDone(func(now time.Duration) {
		s := pair.Client.OpenStream()
		s.Write([]byte("GET"))
		s.Close()
	})
	// Swipe away at 500ms.
	loop.At(500*time.Millisecond, func(now time.Duration) {
		pair.Client.StopSending(0, 0x10)
	})
	pair.RunUntil(800 * time.Millisecond)
	sentAtCancel := pair.Server.Stats().StreamBytesSent
	if ss == nil || !ss.reset {
		t.Fatal("server stream should be reset after STOP_SENDING")
	} else {
		resetSeen = true
	}
	pair.RunUntil(5 * time.Second)
	sentAfter := pair.Server.Stats().StreamBytesSent
	// A little in-flight drain is fine; sustained sending is not.
	if sentAfter > sentAtCancel+256<<10 {
		t.Fatalf("server kept sending after reset: %d -> %d", sentAtCancel, sentAfter)
	}
	if !resetSeen {
		t.Fatal("no reset")
	}
}

func TestTransferSurvivesJitterAndCorruption(t *testing.T) {
	loop := sim.NewLoop()
	cfgs := TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond)
	for i := range cfgs {
		cfgs[i].JitterMax = 15 * time.Millisecond // reorders packets
		cfgs[i].CorruptRate = 0.01                // AEAD must reject these
	}
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(12), cfgs, ccfg, scfg)
	transfer(t, pair, 512<<10, 60*time.Second)
	// Corruption happened and was survived (content integrity is checked
	// inside transfer()).
	var corrupted uint64
	for _, np := range pair.Network.Paths {
		corrupted += np.Down().Stats().CorruptedPkts + np.Up().Stats().CorruptedPkts
	}
	if corrupted == 0 {
		t.Fatal("corruption injection did not trigger")
	}
}

func TestHandshakeSurvivesEarlyOutage(t *testing.T) {
	// The primary path is dead when the client starts; the Initial must be
	// retransmitted via PTO until the link comes up.
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(4), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	pair.Network.Paths[0].SetDown(true)
	pair.Network.Paths[1].SetDown(true)
	loop.At(900*time.Millisecond, func(time.Duration) {
		pair.Network.Paths[0].SetDown(false)
		pair.Network.Paths[1].SetDown(false)
	})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(10 * time.Second)
	if !pair.Client.Established() || !pair.Server.Established() {
		t.Fatal("handshake must survive an early outage via retransmission")
	}
}

func TestAppendingModeReinjects(t *testing.T) {
	loop := sim.NewLoop()
	cfgs := TwoPathConfig(8, 2, 20*time.Millisecond, 100*time.Millisecond)
	ccfg, scfg := defaultMPConfig()
	scfg.ReinjectionMode = ReinjectAppending
	pair := NewPair(loop, sim.NewRNG(5), cfgs, ccfg, scfg)
	transfer(t, pair, 512<<10, 30*time.Second)
	if pair.Server.Stats().ReinjectedBytesSent == 0 {
		t.Fatal("appending mode should still re-inject at the tail")
	}
}

// TestQoEOnEveryAckMP: the client's player state rides every ACK_MP it
// builds (PAPER.md §1) — the provider's non-zero sample on each one, two
// built for the same path at the same instant included — and reaches the
// server throughout a transfer. A zero sample is left off.
func TestQoEOnEveryAckMP(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	sig := wire.QoESignal{CachedBytes: 1000, BitrateBps: 8000}
	received := 0
	scfg.OnQoE = func(now time.Duration, s wire.QoESignal) {
		if s != sig {
			t.Fatalf("server heard %+v at %v, want %+v", s, now, sig)
		}
		received++
	}
	pair := NewPair(loop, sim.NewRNG(2), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	pair.Client.SetQoEProvider(func() wire.QoESignal { return sig })
	transfer(t, pair, 1<<20, 20*time.Second)
	if received < 100 {
		t.Fatalf("server heard %d QoE samples over a 1 MiB transfer", received)
	}
	now := loop.Now()
	paths := pair.Client.Paths()
	if len(paths) != 2 {
		t.Fatalf("client has %d paths, want 2", len(paths))
	}
	for _, p := range paths {
		for i := 0; i < 2; i++ {
			f, ok := pair.Client.buildAckFrame(now, p).(*wire.AckMPFrame)
			if !ok || !f.HasQoE || f.QoE != sig {
				t.Fatalf("ACK_MP %d for path %d at %v: %+v, want one carrying %+v", i, p.ID, now, f, sig)
			}
		}
	}
	sig = wire.QoESignal{}
	if f := pair.Client.buildAckFrame(now, paths[0]).(*wire.AckMPFrame); f.HasQoE {
		t.Fatalf("a zero sample was attached: %+v", f)
	}
}

func TestPerPathPacketNumberSpaces(t *testing.T) {
	// The draft's core wire property: each path numbers its packets
	// independently (and the AEAD nonce keyed by CID sequence number keeps
	// equal packet numbers on different paths distinct).
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(1), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	transfer(t, pair, 1<<20, 20*time.Second)
	p0, p1 := pair.Server.Path(0), pair.Server.Path(1)
	s0, s1 := p0.Space.Stats(), p1.Space.Stats()
	if s0.SentPackets == 0 || s1.SentPackets == 0 {
		t.Fatal("both spaces must have been used")
	}
	// Packet numbers allocated independently: both spaces start at 0, so
	// their next PNs roughly track their own sent counts, not a shared
	// counter.
	if p0.Space.PeekPN() < uint64(s0.SentPackets) || p1.Space.PeekPN() < uint64(s1.SentPackets) {
		t.Fatal("per-space PN allocation is broken")
	}
	total := pair.Server.Stats().SentPackets
	if p0.Space.PeekPN() >= total || p1.Space.PeekPN() >= total {
		t.Fatalf("PN spaces look shared: pn0=%d pn1=%d total=%d",
			p0.Space.PeekPN(), p1.Space.PeekPN(), total)
	}
}

func TestDuplicateNewConnectionIDIdempotent(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(1), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(2 * time.Second)
	// Replay a NEW_CONNECTION_ID the client already has; nothing should
	// change or crash, and path count stays stable.
	before := len(pair.Client.Paths())
	pair.Client.handleFrame(loop.Now(), pair.Client.Paths()[0], &wire.NewConnectionIDFrame{
		Sequence:     1,
		ConnectionID: pair.Client.peerCIDs[1].Clone(),
	})
	if len(pair.Client.Paths()) != before {
		t.Fatal("duplicate NEW_CONNECTION_ID changed path state")
	}
}

func TestSecondaryPathDelay(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	ccfg.SecondaryPathDelay = 500 * time.Millisecond
	tr := obs.NewTrace("secondary-delay")
	ccfg.Tracer = tr.Origin("client")
	pair := NewPair(loop, sim.NewRNG(1), TwoPathConfig(20, 20, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(300 * time.Millisecond)
	if len(pair.Client.Paths()) != 1 {
		t.Fatalf("secondary path opened before the bring-up delay: %d paths", len(pair.Client.Paths()))
	}
	pair.RunUntil(2 * time.Second)
	if len(pair.Client.Paths()) != 2 {
		t.Fatal("secondary path must open after the delay")
	}
	if !pair.Client.Paths()[1].Usable() {
		t.Fatal("delayed secondary path should validate")
	}
	// The bring-up is a deadline of the connection timer: path 1 is added
	// exactly when it falls due, not at the next packet after it.
	evs, err := obs.ParseBytes(tr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := pair.Client.Stats().HandshakeRTT + ccfg.SecondaryPathDelay
	added := false
	for _, e := range evs {
		if e.Name == obs.EvPathAdded && e.U64("path") == 1 {
			added = true
			if e.Time != want {
				t.Errorf("path 1 added at %v, want HandshakeRTT + SecondaryPathDelay = %v", e.Time, want)
			}
		}
	}
	if !added {
		t.Error("no path:added traced for path 1")
	}
}

// TestCloseLeavesNoSecondaryTimer: a client closed while its secondary paths
// still wait out their bring-up delay leaves nothing on the event loop once
// both sides are closed. The delay is one of the connection timer's
// deadlines, so the terminal state cancels it with the rest (DESIGN.md §19).
func TestCloseLeavesNoSecondaryTimer(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	ccfg.SecondaryPathDelay = 20 * time.Second
	pair := NewPair(loop, sim.NewRNG(1), TwoPathConfig(20, 20, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(300 * time.Millisecond)
	if pair.Client.StateName() != "established" || len(pair.Client.Paths()) != 1 {
		t.Fatalf("client %s with %d paths at 300ms, want established on the primary alone",
			pair.Client.StateName(), len(pair.Client.Paths()))
	}
	pair.Client.Close(0, "bye")
	pair.RunUntil(10 * time.Second)
	if !pair.Client.Terminated() || !pair.Server.Terminated() {
		t.Fatalf("states client=%q server=%q, want closed/closed",
			pair.Client.StateName(), pair.Server.StateName())
	}
	if n := loop.Run(64); n != 0 {
		t.Fatalf("event loop still live after both sides closed: %d events ran", n)
	}
}
