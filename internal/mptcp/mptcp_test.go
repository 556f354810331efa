package mptcp

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newNet(loop *sim.Loop, seed int64, wifiMbps, lteMbps float64, wifiRTT, lteRTT time.Duration) *netem.Network {
	return netem.NewNetwork(loop, sim.NewRNG(seed), []netem.PathConfig{
		{Name: "wifi", Tech: trace.TechWiFi, Up: trace.ConstantRate("w", wifiMbps, time.Second), OneWayDelay: wifiRTT / 2},
		{Name: "lte", Tech: trace.TechLTE, Up: trace.ConstantRate("l", lteMbps, time.Second), OneWayDelay: lteRTT / 2},
	})
}

func TestDownloadCompletes(t *testing.T) {
	loop := sim.NewLoop()
	nw := newNet(loop, 1, 10, 10, 40*time.Millisecond, 120*time.Millisecond)
	var delivered uint64
	done, ok := Download(loop, nw, 2<<20, cc.AlgCubic, 60*time.Second,
		func(now time.Duration, n uint64) { delivered += n })
	if !ok {
		t.Fatal("download incomplete")
	}
	if delivered != 2<<20 {
		t.Fatalf("delivered %d bytes", delivered)
	}
	// 2 MiB over ~18 Mbit/s effective: roughly a second.
	if done > 3*time.Second {
		t.Fatalf("download took %v", done)
	}
}

func TestAggregationBeatsSinglePathRate(t *testing.T) {
	loop := sim.NewLoop()
	nw := newNet(loop, 2, 8, 8, 40*time.Millisecond, 80*time.Millisecond)
	done, ok := Download(loop, nw, 4<<20, cc.AlgCubic, 60*time.Second, nil)
	if !ok {
		t.Fatal("incomplete")
	}
	// Single 8 Mbit/s path would need ≥ 4.2s; aggregation should do much
	// better.
	if done > 3900*time.Millisecond {
		t.Fatalf("no aggregation: %v", done)
	}
}

func TestSurvivesLoss(t *testing.T) {
	loop := sim.NewLoop()
	cfgs := []netem.PathConfig{
		{Name: "a", Tech: trace.TechWiFi, Up: trace.ConstantRate("a", 10, time.Second), OneWayDelay: 20 * time.Millisecond, LossRate: 0.02},
		{Name: "b", Tech: trace.TechLTE, Up: trace.ConstantRate("b", 10, time.Second), OneWayDelay: 40 * time.Millisecond, LossRate: 0.02},
	}
	nw := netem.NewNetwork(loop, sim.NewRNG(3), cfgs)
	_, ok := Download(loop, nw, 1<<20, cc.AlgCubic, 120*time.Second, nil)
	if !ok {
		t.Fatal("download under loss incomplete")
	}
}

func TestHoLMitigationTriggersOnHeterogeneousPaths(t *testing.T) {
	loop := sim.NewLoop()
	// Very asymmetric RTTs: the slow path strands head-of-line segments.
	nw := newNet(loop, 4, 10, 2, 20*time.Millisecond, 400*time.Millisecond)
	sender := NewSender(loop, len(nw.Paths), 2<<20, cc.AlgCubic, nw.ServerSend)
	receiver := NewReceiver(loop, nw.ClientSend)
	nw.Attach(
		func(now time.Duration, pathIdx int, data []byte) { receiver.HandleDatagram(now, pathIdx, data) },
		func(now time.Duration, pathIdx int, data []byte) { sender.HandleDatagram(now, pathIdx, data) })
	sender.Start()
	loop.RunUntil(60 * time.Second)
	if !sender.Done() {
		t.Fatal("incomplete")
	}
	if sender.OpportunisticRtx == 0 {
		t.Fatal("opportunistic retransmission should trigger on heterogeneous paths")
	}
	if sender.Penalizations == 0 {
		t.Fatal("penalization should trigger alongside opportunistic rtx")
	}
}

func TestOutageRecovery(t *testing.T) {
	loop := sim.NewLoop()
	nw := newNet(loop, 5, 8, 8, 40*time.Millisecond, 80*time.Millisecond)
	loop.At(300*time.Millisecond, func(time.Duration) { nw.Paths[0].SetDown(true) })
	done, ok := Download(loop, nw, 2<<20, cc.AlgCubic, 120*time.Second, nil)
	if !ok {
		t.Fatal("download did not survive the outage")
	}
	if done > 30*time.Second {
		t.Fatalf("recovery too slow: %v", done)
	}
}

// TestDownloadFollowsTheSeed: downloads over the same seeded network
// deliver the same bytes at the same instants. A 60 ms outage of path 0
// strands a window of segments that one ACK then declares lost together, so
// the order they are queued for retransmission in shows in the delivery
// times; random loss alone rarely loses two segments in one loss pass.
func TestDownloadFollowsTheSeed(t *testing.T) {
	run := func() (digest [sha256.Size]byte, deliveries int) {
		loop := sim.NewLoop()
		nw := newNet(loop, 8, 10, 10, 40*time.Millisecond, 120*time.Millisecond)
		loop.At(300*time.Millisecond, func(time.Duration) { nw.Paths[0].SetDown(true) })
		loop.At(360*time.Millisecond, func(time.Duration) { nw.Paths[0].SetDown(false) })
		h := sha256.New()
		_, ok := Download(loop, nw, 2<<20, cc.AlgCubic, 60*time.Second, func(now time.Duration, n uint64) {
			var rec [16]byte
			binary.BigEndian.PutUint64(rec[0:], uint64(now))
			binary.BigEndian.PutUint64(rec[8:], n)
			h.Write(rec[:])
			deliveries++
		})
		if !ok {
			t.Fatal("download incomplete")
		}
		copy(digest[:], h.Sum(nil))
		return digest, deliveries
	}
	d1, n1 := run()
	for i := 0; i < 2; i++ {
		if d, n := run(); d != d1 {
			t.Fatalf("same seed, different deliveries: %d digest %x, then %d digest %x", n1, d1, n, d)
		}
	}
}

// TestReceiverDropsTruncatedData: a DATA datagram cut inside its length
// varint is no segment. The receiver delivers nothing and acknowledges
// nothing; the whole datagram is delivered and acknowledged.
func TestReceiverDropsTruncatedData(t *testing.T) {
	var seg []byte
	seg = append(seg, msgData)
	seg = wire.AppendVarint(seg, 0)    // data sequence
	seg = wire.AppendVarint(seg, 0)    // subflow sequence
	seg = wire.AppendVarint(seg, 1000) // length: a two-byte varint
	whole := append(seg, make([]byte, 1000)...)
	for _, tc := range []struct {
		name string
		data []byte
		want uint64
	}{
		{"whole", whole, 1000},
		{"cut inside the length", seg[:len(seg)-1], 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			acks := 0
			r := NewReceiver(sim.NewLoop(), func(int, []byte) { acks++ })
			r.HandleDatagram(0, 0, tc.data)
			if r.delivered != tc.want || (acks > 0) != (tc.want > 0) {
				t.Fatalf("delivered %d bytes and sent %d ACKs, want %d bytes", r.delivered, acks, tc.want)
			}
		})
	}
}

func TestMPTCPSlowerThanXLINKUnderOutage(t *testing.T) {
	// The headline comparison: on a path with an outage, XLINK's
	// re-injection recovers faster than MPTCP's RTO-driven machinery.
	total := uint64(2 << 20)

	mpLoop := sim.NewLoop()
	mpNet := newNet(mpLoop, 6, 8, 8, 40*time.Millisecond, 80*time.Millisecond)
	mpLoop.At(300*time.Millisecond, func(time.Duration) { mpNet.Paths[0].SetDown(true) })
	mpDone, mpOK := Download(mpLoop, mpNet, total, cc.AlgCubic, 120*time.Second, nil)

	// XLINK counterpart on identical paths via the transport harness.
	xlLoop := sim.NewLoop()
	paths := transport.TwoPathConfig(8, 8, 40*time.Millisecond, 80*time.Millisecond)
	params := wire.DefaultTransportParams()
	params.EnableMultipath = true
	pcfg := transport.Config{Seed: 6, Params: params}
	scfg := transport.Config{Seed: 7, Params: params, ReinjectionMode: transport.ReinjectStreamPriority}
	pair := transport.NewPair(xlLoop, sim.NewRNG(6), paths, pcfg, scfg)
	xlLoop.At(300*time.Millisecond, func(time.Duration) { pair.Network.Paths[0].SetDown(true) })
	var xlDone time.Duration
	payload := make([]byte, total)
	pair.Server.SetOnStreamOpen(func(now time.Duration, rs *transport.RecvStream) {
		ss := pair.Server.Stream(rs.ID())
		ss.Write(payload)
		ss.Close()
	})
	pair.Client.SetOnStreamData(func(now time.Duration, rs *transport.RecvStream, data []byte, fin bool) {
		if fin {
			xlDone = now
		}
	})
	pair.Client.SetOnHandshakeDone(func(now time.Duration) {
		s := pair.Client.OpenStream()
		s.Write([]byte("GET"))
		s.Close()
	})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(120 * time.Second)

	if !mpOK || xlDone == 0 {
		t.Fatalf("runs incomplete: mptcp=%v xlink=%v", mpOK, xlDone)
	}
	if xlDone > mpDone {
		t.Fatalf("XLINK (%v) should beat MPTCP (%v) under an outage", xlDone, mpDone)
	}
}
