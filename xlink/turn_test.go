package xlink

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// Tests for the shard turn (DESIGN.md §16): a connection is held while its
// shard handles a run of datagrams and the callbacks they raise, and a user
// call made outside a turn holds it and posts a wake, so every send pass of a
// turn runs once, at its end.

// tinyPair is a server that answers every request stream — once its FIN
// arrives — with a 1 000 B response and a FIN, written from the callback, and
// a client that signals each response's FIN on done.
type tinyPair struct {
	server, client *Endpoint
	done           chan uint64
}

func newTinyPair(tb testing.TB, seed int64) *tinyPair {
	tb.Helper()
	tp := &tinyPair{done: make(chan uint64, 1)}
	resp := bytes.Repeat([]byte{0x7e}, 1000)
	ready := make(chan struct{})
	server, err := Listen("127.0.0.1:0", LiveConfig{
		Scheme: SchemeXLINK, Seed: seed,
		OnStreamData: func(_ time.Duration, s *RecvStream, _ []byte, fin bool) {
			if !fin {
				return
			}
			<-ready
			st := tp.server.StreamFor(s.ID())
			st.Write(resp)
			st.Close()
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tp.server = server
	close(ready)
	tb.Cleanup(server.Close)
	client, err := Dial(server.LocalAddrs()[0].String(), []string{"127.0.0.1:0"},
		[]Technology{TechWiFi}, LiveConfig{
			Scheme: SchemeXLINK, Seed: seed + 1,
			OnStreamData: func(_ time.Duration, s *RecvStream, _ []byte, fin bool) {
				if fin {
					tp.done <- s.ID()
				}
			},
		})
	if err != nil {
		tb.Fatal(err)
	}
	tp.client = client
	tb.Cleanup(client.Close)
	waitFor(tb, 10*time.Second, client.Established, "handshake")
	return tp
}

// exchange writes a 64 B request and its FIN from the calling goroutine and
// waits for the response's FIN.
func (tp *tinyPair) exchange(tb testing.TB, req []byte) {
	st := tp.client.OpenStream()
	st.Write(req)
	st.Close()
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	select {
	case id := <-tp.done:
		if id != st.ID() {
			tb.Fatalf("response FIN on stream %d, want %d", id, st.ID())
		}
	case <-timeout.C:
		tb.Fatalf("no response on stream %d", st.ID())
	}
}

// TestLiveTinyExchangeOneDatagramEachWay runs 50 sequential tiny exchanges
// after a warm one. The client's request and FIN, written from a goroutine
// that is no shard's, leave in one datagram at the turn of the wake the Write
// posted (the ACK of the previous response rides on it); the server's ACK,
// response and FIN, the last two written from its data callback, leave in one
// datagram at the end of the turn that delivered the request. A send pass per
// call would take about three datagrams per side.
func TestLiveTinyExchangeOneDatagramEachWay(t *testing.T) {
	tp := newTinyPair(t, 61)
	req := make([]byte, 64)
	tp.exchange(t, req)
	srv0, cli0 := tp.server.Stats().SentPackets, tp.client.Stats().SentPackets
	const n = 50
	for i := 0; i < n; i++ {
		tp.exchange(t, req)
	}
	srv := tp.server.Stats().SentPackets - srv0
	cli := tp.client.Stats().SentPackets - cli0
	t.Logf("%d exchanges: server sent %d datagrams, client %d", n, srv, cli)
	if srv > n*11/10 || cli > n*11/10 {
		t.Fatalf("%d tiny exchanges took %d server and %d client datagrams, want at most %d each", n, srv, cli, n*11/10)
	}
}

// TestLiveCallbackWritesManyStreamsInOneTurn has a server callback open,
// write and finish 200 streams in one turn: more than the shard's channel
// holds. The calls join the open turn instead of posting a wake to the shard
// they run on, which would block on a full channel that only that goroutine
// drains.
func TestLiveCallbackWritesManyStreamsInOneTurn(t *testing.T) {
	const streams = 200
	var server *Endpoint
	ready := make(chan struct{})
	server, err := Listen("127.0.0.1:0", LiveConfig{
		Scheme: SchemeXLINK, Seed: 63,
		OnStreamData: func(_ time.Duration, _ *RecvStream, _ []byte, fin bool) {
			if !fin {
				return
			}
			<-ready
			for i := 0; i < streams; i++ {
				st := server.OpenStream()
				st.Write([]byte{byte(i)})
				st.Close()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(ready)
	defer server.Close()
	fins := make(chan struct{}, streams)
	client, err := Dial(server.LocalAddrs()[0].String(), []string{"127.0.0.1:0"},
		[]Technology{TechWiFi}, LiveConfig{
			Scheme: SchemeXLINK, Seed: 64,
			OnStreamData: func(_ time.Duration, _ *RecvStream, _ []byte, fin bool) {
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
	st := client.OpenStream()
	st.Write([]byte("go"))
	st.Close()
	deadline := time.After(10 * time.Second)
	for got := 0; got < streams; got++ {
		select {
		case <-fins:
		case <-deadline:
			t.Fatalf("%d of %d server streams finished", got, streams)
		}
	}
}

// TestLiveWriteBeforeCloseReachesPeer writes a stream and finishes it, then
// closes the endpoint at once: the hold the writes took is released before
// CONNECTION_CLOSE, so the bytes leave ahead of it and the peer receives all
// of them.
func TestLiveWriteBeforeCloseReachesPeer(t *testing.T) {
	const size = 3000
	payload := bytes.Repeat([]byte{0x3c}, size)
	var mu sync.Mutex
	got, fin := 0, false
	server, err := Listen("127.0.0.1:0", LiveConfig{
		Scheme: SchemeXLINK, Seed: 65,
		OnStreamData: func(_ time.Duration, _ *RecvStream, data []byte, f bool) {
			mu.Lock()
			got += len(data)
			fin = fin || f
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(server.LocalAddrs()[0].String(), []string{"127.0.0.1:0"},
		[]Technology{TechWiFi}, LiveConfig{Scheme: SchemeXLINK, Seed: 66})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, client.Established, "handshake")
	st := client.OpenStream()
	st.Write(payload)
	st.Close()
	client.Close()
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got == size && fin
	}, "the bytes written before Close")
}
