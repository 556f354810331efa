package xlink

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestEmulatedSessionAPI(t *testing.T) {
	res, err := RunEmulatedSession(SessionConfig{
		Scheme: SchemeXLINK,
		Paths:  TwoPathNetwork(10, 8, 40*time.Millisecond, 90*time.Millisecond),
		Video: Video{
			ID: "demo", Size: 2 << 20, BitrateBps: 2_000_000, FPS: 30,
			FirstFrameSize: 64 << 10,
		},
		Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.Metrics.Finished {
		t.Fatalf("session incomplete: %+v", res.Metrics)
	}
	if res.Metrics.FirstFrameLatency <= 0 {
		t.Fatal("missing first frame latency")
	}
}

func TestEmulatedSessionDeterminism(t *testing.T) {
	cfg := SessionConfig{
		Scheme: SchemeXLINK,
		Paths:  WalkingTracePaths(7, 10*time.Second),
		Video:  Video{ID: "d", Size: 1 << 20, BitrateBps: 1_500_000, FPS: 30, FirstFrameSize: 48 << 10},
		Seed:   7,
	}
	a, err := RunEmulatedSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Paths = WalkingTracePaths(7, 10*time.Second) // regenerate identically
	b, err := RunEmulatedSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.DownloadTime != b.DownloadTime || a.Metrics.RebufferTime != b.Metrics.RebufferTime {
		t.Fatalf("sessions not deterministic: %v/%v vs %v/%v",
			a.DownloadTime, a.Metrics.RebufferTime, b.DownloadTime, b.Metrics.RebufferTime)
	}
}

// TestLiveUDPTransfer runs the real-socket path: a server and a two-socket
// client on loopback moving half a megabyte. Both sides are traced, and each
// side's clock never goes back: every entry reads the loop it advanced to the
// wall clock, and the timers run inside that advance.
func TestLiveUDPTransfer(t *testing.T) {
	start := time.Now()
	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte(i)
	}

	var mu sync.Mutex
	var got bytes.Buffer
	doneCh := make(chan struct{})

	// Callbacks run on the endpoint's shard and can fire before Listen/Dial
	// return; the ready channels order the endpoint variable writes before
	// the closures read them.
	var server *Endpoint
	serverReady := make(chan struct{})
	server, err := Listen("127.0.0.1:0", LiveConfig{
		Scheme: SchemeXLINK,
		Tracer: obs.NewTrace("live-server"),
		OnStreamData: func(now time.Duration, s *RecvStream, data []byte, fin bool) {
			// Request arrives: respond with the payload on the stream.
			if fin {
				<-serverReady
				ss := server.StreamFor(s.ID())
				ss.Write(payload)
				ss.Close()
			}
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	close(serverReady)
	defer server.Close()

	addr := server.LocalAddrs()[0].String()
	handshakeCh := make(chan struct{})
	clientTrace := obs.NewTrace("live-client")
	client, err := Dial(addr, []string{"127.0.0.1:0", "127.0.0.1:0"},
		[]Technology{TechWiFi, TechLTE}, LiveConfig{
			Scheme: SchemeXLINK,
			Tracer: clientTrace,
			OnStreamData: func(now time.Duration, s *RecvStream, data []byte, fin bool) {
				mu.Lock()
				got.Write(data)
				done := fin
				mu.Unlock()
				if done {
					close(doneCh)
				}
			},
			OnHandshakeDone: func(now time.Duration) {
				close(handshakeCh)
			},
			Seed: 2,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Concurrent observer: under -race this proves the readers (the
	// Stats/StateName/Terminated snapshot, and TraceBytes, which waits for the
	// shard) are safe to call from any goroutine while the connection is
	// moving data.
	readerStop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		for {
			select {
			case <-readerStop:
				return
			default:
			}
			_ = client.Stats()
			_ = client.StateName()
			_ = client.Terminated()
			_ = client.TraceBytes()
			_ = server.Stats()
			_ = server.StateName()
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() {
		close(readerStop)
		readerDone.Wait()
	}()

	select {
	case <-handshakeCh:
	case <-time.After(10 * time.Second):
		t.Fatal("handshake timed out")
	}
	s := client.OpenStream()
	s.Write([]byte("GET /video\n"))
	s.Close()

	select {
	case <-doneCh:
	case <-time.After(30 * time.Second):
		mu.Lock()
		n := got.Len()
		mu.Unlock()
		t.Fatalf("live transfer timed out with %d of %d bytes", n, len(payload))
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("payload mismatch: got %d bytes", got.Len())
	}
	if !client.Established() || !server.Established() {
		t.Fatal("endpoints should be established")
	}
	if client.StateName() != "established" {
		t.Fatalf("client state %q, want established", client.StateName())
	}

	// The live trace must parse and contain the transport's core events.
	evs, err := obs.ParseBytes(client.TraceBytes())
	if err != nil {
		t.Fatalf("live trace does not parse: %v", err)
	}
	var sent, recv int
	for _, e := range evs {
		switch e.Name {
		case obs.EvPacketSent:
			sent++
		case obs.EvPacketReceived:
			recv++
		}
	}
	if sent == 0 || recv == 0 {
		t.Fatalf("live trace missing packet events: %d sent, %d received", sent, recv)
	}
	// Stats are read after the trace snapshot and only ever grow, so the
	// trace count bounds the counter from below (exact reconciliation is
	// the deterministic chaos suite's job).
	st := client.Stats()
	if uint64(recv) > st.RecvPackets {
		t.Fatalf("trace has %d packet_received, stats say only %d", recv, st.RecvPackets)
	}

	// Each side's trace read through Close: every event, the close's
	// conn:scorecard among them, is on the endpoint's clock, which starts
	// with the endpoint — so never later than this test has run — and
	// never goes back.
	client.Close()
	server.Close()
	for _, ep := range []*Endpoint{client, server} {
		evs, err := obs.ParseBytes(ep.TraceBytes())
		if err != nil {
			t.Fatalf("live trace does not parse after Close: %v", err)
		}
		ran := time.Since(start)
		scorecards := 0
		last := map[string]obs.Event{}
		for _, e := range evs {
			if prev, ok := last[e.Origin]; ok && e.Time < prev.Time {
				t.Fatalf("%s clock went back: %s at %v after %s at %v", e.Origin, e.Name, e.Time, prev.Name, prev.Time)
			}
			if e.Time > ran {
				t.Fatalf("%s traced %s at %v, after the %v this test has run", e.Origin, e.Name, e.Time, ran)
			}
			last[e.Origin] = e
			if e.Name == obs.EvScorecard {
				scorecards++
			}
		}
		if scorecards != 1 {
			t.Fatalf("trace holds %d %s events after Close, want 1", scorecards, obs.EvScorecard)
		}
	}
}

// TestServerReportsItsSocketOnce: a server learns one path per client
// address but answers all of them from the one socket it bound, so after a
// two-path dial LocalAddrs still names that socket once (and Close closes it
// once).
func TestServerReportsItsSocketOnce(t *testing.T) {
	server, err := Listen("127.0.0.1:0", LiveConfig{Scheme: SchemeXLINK, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(server.LocalAddrs()[0].String(), []string{"127.0.0.1:0", "127.0.0.1:0"},
		[]Technology{TechWiFi, TechLTE}, LiveConfig{Scheme: SchemeXLINK, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitFor(t, 10*time.Second, func() bool {
		var paths int
		server.onShard(func() { paths = len(server.peer) })
		return paths == 2
	}, "the server to learn both client paths")
	if addrs := server.LocalAddrs(); len(addrs) != 1 {
		t.Errorf("server LocalAddrs = %v, want its one socket", addrs)
	}
	if addrs := client.LocalAddrs(); len(addrs) != 2 {
		t.Errorf("client LocalAddrs = %v, want one socket per interface", addrs)
	}
}

// TestServerOpensServerInitiatedStreams: a server's OpenStream hands out
// server-initiated stream IDs (RFC 9000 §2.1: the low bit set), so a stream
// it opens while it answers the client's stream 0 is a new stream to the
// client, not more bytes of the request stream.
func TestServerOpensServerInitiatedStreams(t *testing.T) {
	var server *Endpoint
	ready := make(chan struct{})
	pushID := make(chan uint64, 1)
	server, err := Listen("127.0.0.1:0", LiveConfig{
		Scheme: SchemeXLINK, Seed: 13,
		OnStreamData: func(_ time.Duration, s *RecvStream, _ []byte, fin bool) {
			if !fin {
				return
			}
			<-ready
			push := server.OpenStream()
			pushID <- push.ID()
			push.Write([]byte("push"))
			push.Close()
			resp := server.StreamFor(s.ID())
			resp.Write([]byte("resp"))
			resp.Close()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(ready)
	defer server.Close()
	var mu sync.Mutex
	got := map[uint64]string{}
	fins := make(chan struct{}, 2)
	client, err := Dial(server.LocalAddrs()[0].String(), []string{"127.0.0.1:0"},
		[]Technology{TechWiFi}, LiveConfig{
			Scheme: SchemeXLINK, Seed: 14,
			OnStreamData: func(_ time.Duration, s *RecvStream, data []byte, fin bool) {
				mu.Lock()
				got[s.ID()] += string(data)
				mu.Unlock()
				if fin {
					fins <- struct{}{}
				}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitFor(t, 10*time.Second, client.Established, "handshake")
	req := client.OpenStream()
	req.Write([]byte("req"))
	req.Close()
	for i := 0; i < 2; i++ {
		select {
		case <-fins:
		case <-time.After(10 * time.Second):
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("%d of 2 streams finished: %q", i, got)
		}
	}
	id := <-pushID
	mu.Lock()
	defer mu.Unlock()
	if id&3 != 1 || got[req.ID()] != "resp" || got[id] != "push" {
		t.Fatalf("server opened stream %d; client received %q", id, got)
	}
}
