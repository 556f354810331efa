package lb

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestExtractAndRouteShortHeader(t *testing.T) {
	r := NewRouter(8)
	var hitA, hitB int
	r.AddBackend(1, BackendFunc(func(int, []byte) { hitA++ }))
	r.AddBackend(2, BackendFunc(func(int, []byte) { hitB++ }))

	cidA := wire.ConnectionID{1, 9, 9, 9, 9, 9, 9, 9}
	pkt := wire.AppendShort(nil, cidA, 0, 1)
	pkt = append(pkt, make([]byte, 32)...)
	r.Forward(0, pkt)
	if hitA != 1 || hitB != 0 {
		t.Fatalf("routing by server ID failed: A=%d B=%d", hitA, hitB)
	}
	if r.RoutedByID != 1 {
		t.Fatal("stats")
	}
}

func TestUnknownServerIDDroppedByDefault(t *testing.T) {
	r := NewRouter(8)
	var hits int
	r.AddBackend(7, BackendFunc(func(int, []byte) { hits++ }))
	cid := wire.ConnectionID{99, 1, 2, 3, 4, 5, 6, 7} // unknown ID 99
	pkt := wire.AppendShort(nil, cid, 0, 1)
	pkt = append(pkt, make([]byte, 32)...)
	r.Forward(0, pkt)
	if hits != 0 {
		t.Fatal("unknown-ID packet must not reach a backend by default")
	}
	if r.DroppedUnknownID != 1 || r.Dropped != 1 {
		t.Fatalf("unknown-ID drop not counted: unknown=%d dropped=%d",
			r.DroppedUnknownID, r.Dropped)
	}
}

func TestLongHeaderHashConsistency(t *testing.T) {
	r := NewRouter(8)
	var got []int
	r.AddBackend(1, BackendFunc(func(int, []byte) { got = append(got, 1) }))
	r.AddBackend(2, BackendFunc(func(int, []byte) { got = append(got, 2) }))
	dcid := wire.ConnectionID{5, 6, 7, 8, 9, 10, 11, 12}
	long := wire.AppendLong(nil, dcid, wire.ConnectionID{1}, 0, 1, 64)
	long = append(long, make([]byte, 64)...)
	for i := 0; i < 5; i++ {
		r.Forward(0, long)
	}
	if len(got) != 5 {
		t.Fatalf("routed %d of 5", len(got))
	}
	for _, b := range got[1:] {
		if b != got[0] {
			t.Fatal("hash routing must be consistent")
		}
	}
}

func TestGarbageDropped(t *testing.T) {
	r := NewRouter(8)
	r.AddBackend(1, BackendFunc(func(int, []byte) {}))
	if _, ok := r.Route([]byte{0x40}); ok {
		t.Fatal("truncated packet must not route")
	}
	if r.Dropped == 0 {
		t.Fatal("drop counter")
	}
}

func TestNoBackends(t *testing.T) {
	r := NewRouter(8)
	pkt := wire.AppendShort(nil, wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}, 0, 1)
	pkt = append(pkt, make([]byte, 32)...)
	if _, ok := r.Route(pkt); ok {
		t.Fatal("routing with no backends must fail")
	}
}

// TestMultipathConnectionSticksToOneBackend runs a real multi-path
// handshake through the router with two backends and verifies both paths
// reach the backend that owns the connection.
func TestMultipathConnectionSticksToOneBackend(t *testing.T) {
	loop := sim.NewLoop()
	env := transport.SimEnv{Loop: loop}
	rng := sim.NewRNG(4)
	cfgs := []netem.PathConfig{
		{Name: "wifi", Tech: trace.TechWiFi, Up: trace.ConstantRate("w", 20, time.Second), OneWayDelay: 10 * time.Millisecond},
		{Name: "lte", Tech: trace.TechLTE, Up: trace.ConstantRate("l", 20, time.Second), OneWayDelay: 30 * time.Millisecond},
	}
	nw := netem.NewNetwork(loop, rng, cfgs)

	params := wire.DefaultTransportParams()
	params.EnableMultipath = true

	client := transport.NewConn(env, transport.NetemSender{Network: nw, Client: true},
		transport.Config{IsClient: true, Params: params, Seed: 1})
	mkServer := func(id byte) *transport.Conn {
		return transport.NewConn(env, transport.NetemSender{Network: nw},
			transport.Config{Params: params, Seed: int64(id), ServerID: id})
	}
	s1, s2 := mkServer(1), mkServer(2)

	router := NewRouter(8)
	var s1pkts, s2pkts int
	router.AddBackend(1, BackendFunc(func(netIdx int, data []byte) {
		s1pkts++
		s1.HandleDatagram(loop.Now(), netIdx, data)
	}))
	router.AddBackend(2, BackendFunc(func(netIdx int, data []byte) {
		s2pkts++
		s2.HandleDatagram(loop.Now(), netIdx, data)
	}))

	nw.Attach(
		func(now time.Duration, pathIdx int, data []byte) {
			client.HandleDatagram(now, pathIdx, data)
		},
		func(now time.Duration, pathIdx int, data []byte) {
			router.Forward(pathIdx, data)
		})

	client.AddInterface(0, trace.TechWiFi)
	client.AddInterface(1, trace.TechLTE)
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}
	// Drive some traffic across both paths.
	client.SetOnHandshakeDone(func(now time.Duration) {
		s := client.OpenStream()
		s.Write(make([]byte, 256<<10))
		s.Close()
	})
	loop.RunUntil(5 * time.Second)

	if !client.Established() {
		t.Fatal("handshake through LB failed")
	}
	if len(client.Paths()) != 2 {
		t.Fatalf("client paths %d, want 2", len(client.Paths()))
	}
	// Exactly one backend owns the connection; the other saw nothing.
	if s1pkts > 0 && s2pkts > 0 {
		t.Fatalf("connection split across backends: s1=%d s2=%d", s1pkts, s2pkts)
	}
	if s1pkts+s2pkts == 0 {
		t.Fatal("no packets reached any backend")
	}
	owner := s1
	if s2pkts > 0 {
		owner = s2
	}
	if len(owner.Paths()) != 2 {
		t.Fatalf("owning backend has %d paths, want both", len(owner.Paths()))
	}
}
