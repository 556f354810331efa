package xlink

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestDebugHandlerLive runs a small live transfer while the /metrics and
// /debug endpoints are scraped concurrently (under -race this proves the
// handler's locking discipline), then checks that closing the endpoint
// lands the session scorecard in the exposition.
func TestDebugHandlerLive(t *testing.T) {
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}

	var server *Endpoint
	serverReady := make(chan struct{})
	server, err := Listen("127.0.0.1:0", LiveConfig{
		Scheme: SchemeXLINK,
		OnStreamData: func(now time.Duration, s *RecvStream, data []byte, fin bool) {
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

	doneCh := make(chan struct{})
	handshakeCh := make(chan struct{})
	var once sync.Once
	client, err := Dial(server.LocalAddrs()[0].String(),
		[]string{"127.0.0.1:0", "127.0.0.1:0"},
		[]Technology{TechWiFi, TechLTE}, LiveConfig{
			Scheme: SchemeXLINK,
			OnStreamData: func(now time.Duration, s *RecvStream, data []byte, fin bool) {
				if fin {
					once.Do(func() { close(doneCh) })
				}
			},
			OnHandshakeDone: func(now time.Duration) { close(handshakeCh) },
			Seed:            2,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// No Tracer was configured, so TraceBytes keeps its nil contract while
	// the internal flight trace still backs the debug surface.
	if client.TraceBytes() != nil {
		t.Error("TraceBytes should be nil without a configured Tracer")
	}

	srv := httptest.NewServer(client.DebugHandler())
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}

	// Scrape continuously while the transfer runs.
	scrapeStop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-scrapeStop:
				return
			default:
			}
			get("/metrics")
			get("/debug")
			time.Sleep(time.Millisecond)
		}
	}()

	select {
	case <-handshakeCh:
	case <-time.After(10 * time.Second):
		t.Fatal("handshake timed out")
	}
	s := client.OpenStream()
	s.Write([]byte("GET /x\n"))
	s.Close()
	select {
	case <-doneCh:
	case <-time.After(30 * time.Second):
		t.Fatal("transfer timed out")
	}
	close(scrapeStop)
	scraper.Wait()

	// Live /debug reflects the established connection.
	var dbg struct {
		State       string `json:"state"`
		Established bool   `json:"established"`
		OpenStreams *struct {
			Send, Recv int
		} `json:"open_streams"`
		RecentEvents string `json:"recent_events"`
		Scorecard    struct {
			StreamBytes uint64 `json:"stream_bytes"`
			Paths       []struct {
				SentPackets uint64 `json:"sent_packets"`
			} `json:"paths"`
		} `json:"scorecard"`
	}
	// The FIN's callback runs inside the client's turn, and /debug reads the
	// snapshot the turn publishes at its end: scrape until it has.
	waitFor(t, 5*time.Second, func() bool {
		dbg.OpenStreams = nil
		if err := json.Unmarshal([]byte(get("/debug")), &dbg); err != nil {
			t.Fatalf("/debug is not valid JSON: %v", err)
		}
		return dbg.OpenStreams != nil && dbg.OpenStreams.Recv == 0
	}, "the snapshot of the turn that delivered the FIN")
	if !dbg.Established || dbg.State != "established" {
		t.Errorf("/debug state = %q established = %v", dbg.State, dbg.Established)
	}
	if len(dbg.Scorecard.Paths) == 0 {
		t.Error("/debug scorecard has no paths")
	}
	// The flight recorder's ring: the last events of the exchange, as
	// NDJSON a trace tool reads.
	if recent, err := obs.ParseBytes([]byte(dbg.RecentEvents)); err != nil {
		t.Errorf("/debug recent_events is not NDJSON: %v", err)
	} else if len(recent) == 0 || recent[len(recent)-1].Origin != "client" {
		t.Errorf("/debug recent_events holds %d events, want the client's latest", len(recent))
	}
	// The exchange is over: the response's receive half is forgotten, and
	// the request's send half is too unless a copy of it is still in flight.
	if o := dbg.OpenStreams; o == nil || o.Send > 1 || o.Recv != 0 {
		t.Errorf("/debug open_streams = %+v, want at most 1 send and no receive half", o)
	}

	// /metrics before close: the trace-event families exist, no session yet.
	if m := get("/metrics"); strings.Contains(m, "xlink_sessions_total 1") {
		t.Error("session counted before Close")
	}

	// Close emits and merges the scorecard exactly once.
	client.Close()
	client.Close() // idempotent: must not double-merge
	// Close is an op on the client's shard: wait until it is applied.
	waitFor(t, 5*time.Second, func() bool { return client.StateName() != "established" }, "the close")
	m := get("/metrics")
	if !strings.Contains(m, "xlink_sessions_total 1") {
		t.Errorf("/metrics after Close missing session rollup:\n%s", m)
	}
	if !strings.Contains(m, "xlink_path_sent_packets_total") {
		t.Errorf("/metrics missing per-path family:\n%s", m)
	}
	// Every scrape refreshes the stream-buffer and open-stream gauges
	// through Metrics(), so this one carries them, and every line must be one
	// a Prometheus server accepts: a metric name that breaks the grammar drops
	// the whole scrape.
	for _, name := range []obs.MetricName{obs.MetricSendBufferedBytes, obs.MetricSendBufferedPeak,
		obs.MetricRecvBufferedBytes, obs.MetricRecvBufferedPeak,
		obs.MetricOpenStreams.With("half", "send"), obs.MetricOpenStreams.With("half", "recv")} {
		if !strings.Contains(m, "\n"+string(name)+" ") {
			t.Errorf("/metrics missing the %s family", name)
		}
	}
	for i, line := range strings.Split(strings.TrimSuffix(m, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sample := sampleLine.FindStringSubmatch(line)
		if sample == nil {
			t.Errorf("/metrics line %d breaks the exposition grammar: %q", i+1, line)
		} else if _, err := strconv.ParseFloat(sample[1], 64); err != nil {
			t.Errorf("/metrics line %d: value %q is not a float", i+1, sample[1])
		}
	}

	// And the registry accessor agrees with the exposition.
	if n := client.Metrics().Counter(obs.MetricSessions).Value(); n != 1 {
		t.Errorf("MetricSessions = %d, want 1", n)
	}
}

// sampleLine is one sample of the Prometheus text exposition format: a
// metric name, an optional {label="value",...} set, the value (checked as a
// float separately) and an optional timestamp.
var sampleLine = func() *regexp.Regexp {
	label := `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"`
	return regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{(?:` + label + `(?:,` + label + `)*,?)?\})? (\S+)(?: -?[0-9]+)?$`)
}()

// TestServeDebugCleanExit proves the debug scrape server has a real
// shutdown path: ServeDebug's goroutine serves requests, stop() blocks
// until the goroutine has exited, and the port no longer accepts
// connections afterwards. Run under -race this catches both a leaked
// server goroutine and unsynchronized handler state.
func TestServeDebugCleanExit(t *testing.T) {
	ep, err := Listen("127.0.0.1:0", LiveConfig{Scheme: SchemeXLINK, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	addr, stop, err := ep.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/metrics", "/debug"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop() did not return: serve goroutine leaked")
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("debug server still serving after stop()")
	}
}
