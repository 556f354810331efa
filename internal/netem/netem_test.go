package netem

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

func newTestLink(t *testing.T, mbps float64, delay time.Duration, queue int, loss float64) (*sim.Loop, *Link, *[]time.Duration) {
	t.Helper()
	loop := sim.NewLoop()
	arrivals := &[]time.Duration{}
	tr := trace.ConstantRate("test", mbps, time.Second)
	l := NewLink(loop, LinkConfig{Trace: tr, Delay: delay, QueueBytes: queue, LossRate: loss},
		sim.NewRNG(1), func(now time.Duration, data []byte) {
			*arrivals = append(*arrivals, now)
		})
	return loop, l, arrivals
}

func TestLinkDeliversWithPropagationDelay(t *testing.T) {
	loop, l, arrivals := newTestLink(t, 12, 20*time.Millisecond, 0, 0)
	l.Send(make([]byte, 1200))
	loop.Run(0)
	if len(*arrivals) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*arrivals))
	}
	if (*arrivals)[0] < 20*time.Millisecond {
		t.Fatalf("arrival %v earlier than propagation delay", (*arrivals)[0])
	}
	st := l.Stats()
	if st.DeliveredPkts != 1 || st.DroppedPkts != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLinkThroughputMatchesTrace(t *testing.T) {
	// 12 Mbit/s = 1000 MTU packets/s. Send 200 packets; should take ~200ms
	// of virtual time to drain.
	loop, l, arrivals := newTestLink(t, 12, 0, 1500*300, 0)
	for i := 0; i < 200; i++ {
		l.Send(make([]byte, trace.MTU))
	}
	loop.Run(0)
	if len(*arrivals) != 200 {
		t.Fatalf("delivered %d, want 200", len(*arrivals))
	}
	last := (*arrivals)[len(*arrivals)-1]
	if last < 180*time.Millisecond || last > 260*time.Millisecond {
		t.Fatalf("drain time %v, want ~200ms for 200 pkts at 1000 pkt/s", last)
	}
}

func TestLinkDroptail(t *testing.T) {
	loop, l, arrivals := newTestLink(t, 1, 0, 3*trace.MTU, 0)
	for i := 0; i < 10; i++ {
		l.Send(make([]byte, trace.MTU))
	}
	st := l.Stats()
	if st.DroppedPkts != 7 {
		t.Fatalf("dropped %d, want 7 (queue limit 3)", st.DroppedPkts)
	}
	loop.Run(0)
	if len(*arrivals) != 3 {
		t.Fatalf("delivered %d, want 3", len(*arrivals))
	}
}

func TestLinkRandomLoss(t *testing.T) {
	loop, l, arrivals := newTestLink(t, 100, 0, 1500*5000, 0.3)
	const n = 3000
	for i := 0; i < n; i++ {
		l.Send(make([]byte, 100))
	}
	loop.Run(0)
	got := float64(len(*arrivals)) / n
	if got < 0.62 || got > 0.78 {
		t.Fatalf("delivery rate %.3f, want ~0.7 under 30%% loss", got)
	}
}

// TestLinkJitterFollowsTheSeed: jitter is drawn from the link's own RNG, so
// two links built with the same seed and JitterMax deliver the same packets
// at the same instants, and the jitter really reorders them.
func TestLinkJitterFollowsTheSeed(t *testing.T) {
	type arrival struct {
		at  time.Duration
		pkt byte
	}
	run := func() []arrival {
		loop := sim.NewLoop()
		var arrivals []arrival
		cfg := LinkConfig{Trace: trace.ConstantRate("test", 12, time.Second), Delay: 10 * time.Millisecond,
			QueueBytes: 200 * trace.MTU, JitterMax: 5 * time.Millisecond}
		l := NewLink(loop, cfg, sim.NewRNG(9), func(now time.Duration, data []byte) {
			arrivals = append(arrivals, arrival{now, data[0]})
		})
		for i := 0; i < 100; i++ {
			pkt := make([]byte, trace.MTU)
			pkt[0] = byte(i)
			l.Send(pkt)
		}
		loop.Run(0)
		return arrivals
	}
	a, b := run(), run()
	if len(a) != 100 || !slices.Equal(a, b) {
		t.Fatalf("same seed, different deliveries:\n%v\n%v", a, b)
	}
	if slices.IsSortedFunc(a, func(x, y arrival) int { return int(x.pkt) - int(y.pkt) }) {
		t.Fatal("100 packets under 5 ms of jitter at one per millisecond arrived in order: no jitter applied")
	}
}

func TestLinkDown(t *testing.T) {
	loop, l, arrivals := newTestLink(t, 10, 0, 0, 0)
	l.SetDown(true)
	l.Send(make([]byte, 100))
	loop.Run(0)
	if len(*arrivals) != 0 {
		t.Fatal("down link must drop")
	}
	l.SetDown(false)
	l.Send(make([]byte, 100))
	loop.Run(0)
	if len(*arrivals) != 1 {
		t.Fatal("re-enabled link must deliver")
	}
}

func TestSetDownFlushesQueue(t *testing.T) {
	// A slow link with a deep queue: everything sent is still queued when
	// the interface goes down, and none of it may deliver afterwards — an
	// interface that is switched off loses its buffer.
	loop, l, arrivals := newTestLink(t, 1, 0, 20*trace.MTU, 0)
	for i := 0; i < 10; i++ {
		l.Send(make([]byte, trace.MTU))
	}
	var down time.Duration = 5 * time.Millisecond
	loop.At(down, func(time.Duration) { l.SetDown(true) })
	loop.At(down+time.Millisecond, func(time.Duration) { l.SetDown(false) })
	loop.Run(0)
	for _, at := range *arrivals {
		if at > down {
			t.Fatalf("packet delivered at %v after link went down at %v", at, down)
		}
	}
	st := l.Stats()
	if got := uint64(len(*arrivals)) + st.DroppedPkts; got != st.SentPackets {
		t.Fatalf("accounting: delivered %d + dropped %d != sent %d",
			len(*arrivals), st.DroppedPkts, st.SentPackets)
	}
	if st.DroppedPkts == 0 {
		t.Fatal("down-transition must count flushed packets as drops")
	}
	if l.QueueLen() != 0 || l.queueBytes != 0 {
		t.Fatalf("queue not flushed: len=%d bytes=%d", l.QueueLen(), l.queueBytes)
	}
}

func TestLinkFIFOOrder(t *testing.T) {
	loop := sim.NewLoop()
	var got []byte
	tr := trace.ConstantRate("t", 5, time.Second)
	l := NewLink(loop, LinkConfig{Trace: tr}, sim.NewRNG(1),
		func(now time.Duration, data []byte) { got = append(got, data[0]) })
	for i := byte(0); i < 20; i++ {
		l.Send([]byte{i})
	}
	loop.Run(0)
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d, want 20", len(got))
	}
}

func TestLinkDataIsolation(t *testing.T) {
	loop := sim.NewLoop()
	var delivered []byte
	tr := trace.ConstantRate("t", 10, time.Second)
	l := NewLink(loop, LinkConfig{Trace: tr}, sim.NewRNG(1),
		func(now time.Duration, data []byte) { delivered = append([]byte(nil), data...) }) // data is a loan
	buf := []byte{1, 2, 3}
	l.Send(buf)
	buf[0] = 99 // mutate after send
	loop.Run(0)
	if delivered[0] != 1 {
		t.Fatal("link must copy packet data at ingress")
	}
}

func TestOutageTraceStallsLink(t *testing.T) {
	// Trace with opportunities only in the first 100ms of a 1s period.
	var del []uint64
	for ms := uint64(0); ms < 100; ms++ {
		del = append(del, ms)
	}
	tr := &trace.Trace{Name: "bursty", DeliveriesMS: del, PeriodMS: 1000}
	loop := sim.NewLoop()
	var arrivals []time.Duration
	l := NewLink(loop, LinkConfig{Trace: tr, QueueBytes: 1500 * 300}, sim.NewRNG(1),
		func(now time.Duration, data []byte) { arrivals = append(arrivals, now) })
	// Send 150 packets at t=0: 100 drain in the burst, 50 wait for wrap.
	for i := 0; i < 150; i++ {
		l.Send(make([]byte, trace.MTU))
	}
	loop.Run(0)
	if len(arrivals) != 150 {
		t.Fatalf("delivered %d, want 150", len(arrivals))
	}
	if arrivals[99] > 110*time.Millisecond {
		t.Fatalf("100th packet at %v, want within burst", arrivals[99])
	}
	if arrivals[100] < time.Second {
		t.Fatalf("101st packet at %v, want after wrap (1s)", arrivals[100])
	}
}

func TestPathRoundTrip(t *testing.T) {
	loop := sim.NewLoop()
	rng := sim.NewRNG(2)
	var serverGot, clientGot [][]byte
	cfg := PathConfig{
		Name: "wifi", Tech: trace.TechWiFi,
		Up:          trace.ConstantRate("up", 20, time.Second),
		OneWayDelay: 8 * time.Millisecond,
	}
	p := NewPath(loop, cfg, rng,
		func(now time.Duration, data []byte) { serverGot = append(serverGot, bytes.Clone(data)) }, // data is a loan
		func(now time.Duration, data []byte) { clientGot = append(clientGot, bytes.Clone(data)) })
	p.SendToServer([]byte("request"))
	p.SendToClient([]byte("response"))
	loop.Run(0)
	if len(serverGot) != 1 || string(serverGot[0]) != "request" {
		t.Fatalf("server got %q", serverGot)
	}
	if len(clientGot) != 1 || string(clientGot[0]) != "response" {
		t.Fatalf("client got %q", clientGot)
	}
}

func TestNetworkRouting(t *testing.T) {
	loop := sim.NewLoop()
	rng := sim.NewRNG(3)
	n := NewNetwork(loop, rng, []PathConfig{
		{Name: "wifi", Tech: trace.TechWiFi, Up: trace.ConstantRate("w", 20, time.Second), OneWayDelay: 5 * time.Millisecond},
		{Name: "lte", Tech: trace.TechLTE, Up: trace.ConstantRate("l", 20, time.Second), OneWayDelay: 20 * time.Millisecond},
	})
	type rx struct {
		path int
		data string
	}
	var atServer, atClient []rx
	n.Attach(
		func(now time.Duration, pathIdx int, data []byte) {
			atClient = append(atClient, rx{pathIdx, string(data)})
		},
		func(now time.Duration, pathIdx int, data []byte) {
			atServer = append(atServer, rx{pathIdx, string(data)})
		})
	n.ClientSend(0, []byte("on-wifi"))
	n.ClientSend(1, []byte("on-lte"))
	n.ServerSend(1, []byte("reply-lte"))
	n.ClientSend(5, []byte("bogus")) // out of range: silently ignored
	loop.Run(0)
	if len(atServer) != 2 {
		t.Fatalf("server received %d, want 2", len(atServer))
	}
	if atServer[0].path != 0 || atServer[0].data != "on-wifi" {
		t.Fatalf("server rx[0] = %+v", atServer[0])
	}
	if atServer[1].path != 1 {
		t.Fatalf("server rx[1] path = %d", atServer[1].path)
	}
	if len(atClient) != 1 || atClient[0].path != 1 || atClient[0].data != "reply-lte" {
		t.Fatalf("client rx = %+v", atClient)
	}
}

func TestQueueAccounting(t *testing.T) {
	loop := sim.NewLoop()
	tr := trace.ConstantRate("slow", 0.5, time.Second)
	l := NewLink(loop, LinkConfig{Trace: tr, QueueBytes: 10000}, sim.NewRNG(1), nil)
	l.Send(make([]byte, 1000))
	l.Send(make([]byte, 2000))
	if l.QueueLen() != 2 || l.queueBytes != 3000 {
		t.Fatalf("queue len=%d bytes=%d", l.QueueLen(), l.queueBytes)
	}
	loop.Run(0)
	if l.QueueLen() != 0 || l.queueBytes != 0 {
		t.Fatal("queue should drain to zero")
	}
}

func TestByteModeDrainsAcksTogether(t *testing.T) {
	// A delivery opportunity is MTU bytes of credit, not one packet: at
	// 12 Mbit/s (1000 opportunities/s), 100 ACK-sized packets drain within
	// a few opportunities instead of ~100ms.
	loop := sim.NewLoop()
	var last time.Duration
	tr := trace.ConstantRate("t", 12, time.Second)
	l := NewLink(loop, LinkConfig{Trace: tr, QueueBytes: 1 << 20},
		sim.NewRNG(1), func(now time.Duration, data []byte) { last = now })
	for i := 0; i < 100; i++ {
		l.Send(make([]byte, 40)) // ack-sized
	}
	loop.Run(0)
	if last > 10*time.Millisecond {
		t.Fatalf("drain %v, want a few ms (37 acks per MTU credit)", last)
	}
}

func TestByteGranularNoCreditBanking(t *testing.T) {
	// Credit must not accumulate across idle periods: after a long idle,
	// a burst still drains at the trace rate, not instantaneously.
	loop := sim.NewLoop()
	var arrivals []time.Duration
	tr := trace.ConstantRate("t", 12, time.Second)
	l := NewLink(loop, LinkConfig{Trace: tr, QueueBytes: 1 << 20}, sim.NewRNG(1),
		func(now time.Duration, data []byte) { arrivals = append(arrivals, now) })
	// One packet, then idle 500ms, then a burst of full-size packets.
	l.Send(make([]byte, trace.MTU))
	loop.RunUntil(500 * time.Millisecond)
	for i := 0; i < 50; i++ {
		l.Send(make([]byte, trace.MTU))
	}
	loop.Run(0)
	if len(arrivals) != 51 {
		t.Fatalf("delivered %d", len(arrivals))
	}
	burst := arrivals[len(arrivals)-1] - arrivals[1]
	// 50 MTU packets at 1000 opportunities/s => ~50ms, not near-zero.
	if burst < 30*time.Millisecond {
		t.Fatalf("burst drained in %v; credit banking across idle detected", burst)
	}
}

// TestLinkQueueReusesItsArray: dequeuing moves a head index instead of
// re-slicing, so the queue's array is reused — with the packet buffers
// pooled and deliveries scheduled by slot a warm link allocates nothing —
// QueueLen counts only what is waiting, and an interface going down drops
// exactly those.
func TestLinkQueueReusesItsArray(t *testing.T) {
	loop := sim.NewLoop()
	delivered := 0
	l := NewLink(loop, LinkConfig{Trace: trace.ConstantRate("12mbps", 12, time.Second)}, nil, // one packet a millisecond
		func(time.Duration, []byte) { delivered++ })
	pkt := make([]byte, 1200)
	sent := 0
	burst := func() {
		for i := 0; i < 5; i++ {
			l.Send(pkt)
			sent++
		}
		if l.QueueLen() != 5 || l.queueBytes != 5*len(pkt) {
			t.Fatalf("%d packets, %d bytes queued after a burst of 5", l.QueueLen(), l.queueBytes)
		}
		loop.RunUntil(loop.Now() + 8*time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		burst()
	}
	if avg := testing.AllocsPerRun(200, burst); avg != 0 && !raceEnabled {
		t.Fatalf("a burst of 5 packets costs a warm link %.1f allocations, want 0", avg)
	}

	for i := 0; i < 5; i++ {
		l.Send(pkt)
		sent++
	}
	loop.RunUntil(loop.Now() + 2500*time.Microsecond) // part of the burst delivered
	waiting := l.QueueLen()
	before := l.Stats().DroppedPkts
	l.SetDown(true)
	if got := l.Stats().DroppedPkts - before; waiting == 0 || waiting == 5 || got != uint64(waiting) || l.QueueLen() != 0 {
		t.Fatalf("going down dropped %d packets with %d of 5 waiting, %d left", got, waiting, l.QueueLen())
	}
	loop.RunUntil(loop.Now() + time.Second)
	if st := l.Stats(); delivered+waiting != sent || st.DeliveredPkts != uint64(delivered) {
		t.Fatalf("sent %d, delivered %d (stats %d), dropped while waiting %d", sent, delivered, st.DeliveredPkts, waiting)
	}
}
