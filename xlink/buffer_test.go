package xlink

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestCloseReleasesStreamBuffers closes both endpoints in the middle of a
// large transfer, with the application still holding its stream handles, and
// reads the heap while the connections sit out their drain timers: the
// stream payload must be gone at once, not three PTOs later, and the buffer
// gauges — ConnStats, the metric registry and /debug all read the same
// counters — must say so.
func TestCloseReleasesStreamBuffers(t *testing.T) {
	const size = 48 << 20
	var received atomic.Uint64
	var server *Endpoint
	var out atomic.Pointer[Stream]
	ready := make(chan struct{})
	server, err := Listen("127.0.0.1:0", LiveConfig{
		Scheme: SchemeXLINK, Seed: 5,
		OnStreamData: func(now time.Duration, s *RecvStream, data []byte, fin bool) {
			if fin {
				<-ready
				st := server.StreamFor(s.ID())
				st.Write(make([]byte, size))
				st.Close()
				out.Store(&st)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(ready)
	defer server.Close()
	var firstRecv atomic.Pointer[RecvStream]
	client, err := Dial(server.LocalAddrs()[0].String(), []string{"127.0.0.1:0", "127.0.0.1:0"},
		[]Technology{TechWiFi, TechLTE}, LiveConfig{
			Scheme: SchemeXLINK, Seed: 6,
			OnStreamData: func(now time.Duration, s *RecvStream, data []byte, fin bool) {
				firstRecv.CompareAndSwap(nil, s)
				received.Add(uint64(len(data)))
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitFor(t, 15*time.Second, client.Established, "handshake")
	base := heapAfterGC()

	req := client.OpenStream()
	req.Write([]byte("GET\n"))
	req.Close()
	waitFor(t, 15*time.Second, func() bool { return received.Load() >= 1<<20 }, "the first megabyte")

	st := server.Stats()
	if st.SendBufferedBytes < size/2 {
		t.Fatalf("mid-transfer the server buffers only %d of %d bytes; close would prove nothing", st.SendBufferedBytes, size)
	}
	if g := server.Metrics().Gauge(obs.MetricSendBufferedBytes).Value(); g < size/2 {
		t.Fatalf("gauge %s reads %.0f mid-transfer, ConnStats %d", obs.MetricSendBufferedBytes, g, st.SendBufferedBytes)
	}
	var b strings.Builder
	server.Metrics().Dump(&b)
	if dump := b.String(); !strings.Contains(dump, string(obs.MetricSendBufferedPeak)) ||
		!strings.Contains(dump, string(obs.MetricRecvBufferedBytes)) {
		t.Fatalf("exposition lacks the buffer gauges:\n%s", dump)
	}

	server.Close()
	client.Close()
	// Each Close is an op on its endpoint's shard: wait until both applied.
	for _, ep := range []*Endpoint{server, client} {
		waitFor(t, 5*time.Second, func() bool { return ep.StateName() != "established" }, "the close")
	}
	after := heapAfterGC()
	if server.Terminated() && client.Terminated() {
		t.Skip("both drain timers already fired; nothing left to observe")
	}
	for name, ep := range map[string]*Endpoint{"server": server, "client": client} {
		if s := ep.Stats(); s.SendBufferedBytes != 0 || s.RecvBufferedBytes != 0 || s.SendBufferedPeak+s.RecvBufferedPeak == 0 {
			t.Errorf("%s after Close: buffers %d / %d bytes, peaks %d / %d", name,
				s.SendBufferedBytes, s.RecvBufferedBytes, s.SendBufferedPeak, s.RecvBufferedPeak)
		}
	}
	if g := server.Metrics().Gauge(obs.MetricSendBufferedBytes).Value(); g != 0 {
		t.Errorf("gauge %s reads %.0f after Close", obs.MetricSendBufferedBytes, g)
	}
	// The handles are still reachable: at the parent commit they pinned the
	// whole payload through the drain period.
	if grown := after - base; grown > 8<<20 {
		t.Errorf("heap grew by %d MiB across a closed %d MiB transfer while the drain timers are pending", grown>>20, size>>20)
	}
	runtime.KeepAlive(out.Load())
	runtime.KeepAlive(firstRecv.Load())
	runtime.KeepAlive(req)
}
