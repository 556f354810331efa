package cm

import (
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// singlePathPair builds a client/server pair with multipath disabled so
// only interface 0 carries the primary path; interface 1 is the migration
// target.
func singlePathPair(t *testing.T) *transport.Pair {
	t.Helper()
	loop := sim.NewLoop()
	params := wire.DefaultTransportParams() // multipath off
	ccfg := transport.Config{Params: params, Seed: 1}
	scfg := transport.Config{Params: params, Seed: 2}
	paths := transport.TwoPathConfig(8, 8, 40*time.Millisecond, 60*time.Millisecond)
	return transport.NewPair(loop, sim.NewRNG(1), paths, ccfg, scfg)
}

func TestMigrationRecoversTransfer(t *testing.T) {
	pair := singlePathPair(t)
	ctrl := NewController(pair.Loop, pair.Client, DefaultConfig(), []Interface{
		{NetIdx: 0, Tech: trace.TechWiFi},
		{NetIdx: 1, Tech: trace.TechLTE},
	})
	var done time.Duration
	payload := make([]byte, 1<<20)
	pair.Server.SetOnStreamOpen(func(now time.Duration, rs *transport.RecvStream) {
		ss := pair.Server.Stream(rs.ID())
		ss.Write(payload)
		ss.Close()
	})
	pair.Client.SetOnStreamData(func(now time.Duration, rs *transport.RecvStream, data []byte, fin bool) {
		if fin {
			done = now
		}
	})
	pair.Client.SetOnHandshakeDone(func(now time.Duration) {
		ctrl.Start()
		s := pair.Client.OpenStream()
		s.Write([]byte("GET"))
		s.Close()
	})
	// Kill interface 0 mid-transfer.
	pair.Loop.At(400*time.Millisecond, func(time.Duration) {
		pair.Network.Paths[0].SetDown(true)
	})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(60 * time.Second)
	if done == 0 {
		t.Fatal("transfer never completed — migration failed")
	}
	if ctrl.Migrations == 0 {
		t.Fatal("controller never migrated")
	}
	// Recovery includes detection (~400ms) plus slow-start restart; it
	// should still complete within a few seconds.
	if done > 10*time.Second {
		t.Fatalf("migration recovery too slow: %v", done)
	}
}

func TestNoMigrationWhenHealthy(t *testing.T) {
	pair := singlePathPair(t)
	ctrl := NewController(pair.Loop, pair.Client, DefaultConfig(), []Interface{
		{NetIdx: 0, Tech: trace.TechWiFi},
		{NetIdx: 1, Tech: trace.TechLTE},
	})
	payload := make([]byte, 512<<10)
	pair.Server.SetOnStreamOpen(func(now time.Duration, rs *transport.RecvStream) {
		ss := pair.Server.Stream(rs.ID())
		ss.Write(payload)
		ss.Close()
	})
	pair.Client.SetOnStreamData(func(now time.Duration, rs *transport.RecvStream, data []byte, fin bool) {
		if fin {
			ctrl.Stop() // transfer done: stop monitoring
		}
	})
	pair.Client.SetOnHandshakeDone(func(now time.Duration) {
		ctrl.Start()
		s := pair.Client.OpenStream()
		s.Write([]byte("GET"))
		s.Close()
	})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(5 * time.Second)
	if ctrl.Migrations != 0 {
		t.Fatalf("migrated %d times on a healthy path", ctrl.Migrations)
	}
}

func TestMigrationResetsCongestionState(t *testing.T) {
	pair := singlePathPair(t)
	pair.Client.SetOnHandshakeDone(func(now time.Duration) {
		// Send client data so the client's own packets get acked and its
		// RTT estimator collects samples.
		s := pair.Client.OpenStream()
		s.Write(make([]byte, 64<<10))
		s.Close()
	})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(2 * time.Second)
	if !pair.Client.Established() {
		t.Fatal("handshake failed")
	}
	p := pair.Client.Paths()[0]
	// Latest is zero exactly until the estimator takes its first sample.
	if p.RTT.Latest() == 0 {
		t.Fatal("expected RTT samples before migration")
	}
	pair.Client.MigratePrimary(1, trace.TechLTE)
	if p.RTT.Latest() != 0 || p.RTT.Smoothed() != cc.DefaultInitialRTT {
		t.Fatal("migration must reset RTT state")
	}
	if p.NetIdx != 1 || p.Tech != trace.TechLTE {
		t.Fatal("migration did not move the path")
	}
	if !p.CC.InSlowStart() {
		t.Fatal("migration must restart slow start")
	}
	// Migrating to the same interface is a no-op.
	pair.Client.MigratePrimary(1, trace.TechLTE)
	if p.NetIdx != 1 {
		t.Fatal("no-op migration changed state")
	}
}
