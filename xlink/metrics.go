package xlink

import (
	"encoding/json"
	"net"
	"net/http"

	"repro/internal/obs"
)

// debugState is the JSON document served at /debug: the snapshot the
// endpoint's shard published at the end of its last turn, plus the flight
// recorder's recent events and anomaly post-mortems, copied on the shard.
type debugState struct {
	State       string          `json:"state"`
	Established bool            `json:"established"`
	Terminated  bool            `json:"terminated"`
	Stats       json.RawMessage `json:"stats"`
	OpenStreams openStreamsJSON `json:"open_streams"`
	Scorecard   scorecardJSON   `json:"scorecard"`
	Anomalies   uint64          `json:"anomalies"`
	FirstReason string          `json:"first_anomaly,omitempty"`
	Dumps       []anomalyJSON   `json:"anomaly_dumps,omitempty"`
	// RecentEvents is the flight recorder's ring as NDJSON, oldest first.
	RecentEvents string `json:"recent_events"`
}

// openStreamsJSON is Conn.OpenStreams: the stream halves the connection
// holds.
type openStreamsJSON struct {
	Send int `json:"send"`
	Recv int `json:"recv"`
}

// scorecardJSON mirrors obs.Scorecard with JSON-friendly field names and
// durations in seconds.
type scorecardJSON struct {
	RCTSeconds        float64    `json:"rct_seconds"`
	Completed         bool       `json:"completed"`
	RebufferSeconds   float64    `json:"rebuffer_seconds"`
	RebufferCount     uint64     `json:"rebuffer_count"`
	QoEDecisions      uint64     `json:"qoe_decisions"`
	QoEEnables        uint64     `json:"qoe_enables"`
	QoETransitions    uint64     `json:"qoe_transitions"`
	StreamBytes       uint64     `json:"stream_bytes"`
	RtxBytes          uint64     `json:"rtx_bytes"`
	ReinjBytes        uint64     `json:"reinj_bytes"`
	FECRecoveredBytes uint64     `json:"fec_recovered_bytes"`
	CloseCode         uint64     `json:"close_code"`
	Paths             []pathJSON `json:"paths"`
}

type pathJSON struct {
	ID           uint64 `json:"id"`
	SentPackets  uint64 `json:"sent_packets"`
	LostPackets  uint64 `json:"lost_packets"`
	SentBytes    uint64 `json:"sent_bytes"`
	ReinjBytes   uint64 `json:"reinj_bytes"`
	UtilPermille uint64 `json:"util_permille"`
	LossPermille uint64 `json:"loss_permille"`
}

// anomalyJSON serializes one flight-recorder dump; Events is the NDJSON
// window as text (json.Marshal would base64 the []byte).
type anomalyJSON struct {
	Reason      string  `json:"reason"`
	TimeSeconds float64 `json:"time_seconds"`
	Events      string  `json:"events"`
}

func scorecardToJSON(card obs.Scorecard) scorecardJSON {
	out := scorecardJSON{
		RCTSeconds:        card.RCT.Seconds(),
		Completed:         card.Completed,
		RebufferSeconds:   card.RebufferTime.Seconds(),
		RebufferCount:     card.RebufferCount,
		QoEDecisions:      card.QoEDecisions,
		QoEEnables:        card.QoEEnables,
		QoETransitions:    card.QoETransitions,
		StreamBytes:       card.StreamBytes,
		RtxBytes:          card.RtxBytes,
		ReinjBytes:        card.ReinjBytes,
		FECRecoveredBytes: card.FECRecoveredBytes,
		CloseCode:         card.CloseCode,
		Paths:             []pathJSON{},
	}
	for i := 0; i < card.NumPaths; i++ {
		p := card.Paths[i]
		out.Paths = append(out.Paths, pathJSON{
			ID: p.ID, SentPackets: p.SentPackets, LostPackets: p.LostPackets,
			SentBytes: p.SentBytes, ReinjBytes: p.ReinjBytes,
			UtilPermille: p.UtilPermille, LossPermille: p.LossPermille,
		})
	}
	return out
}

// DebugHandler returns an http.Handler exposing the endpoint's telemetry:
//
//	/metrics — the metric registry in Prometheus text exposition
//	/debug   — a JSON snapshot: lifecycle state, transport counters, the
//	           stream halves held, the current scorecard, the
//	           flight recorder's recent events and any anomaly dumps
//
// /metrics reads the internally-synchronized registry and the endpoint's
// snapshot; /debug also waits for the shard to copy the flight recorder, so
// it is safe to scrape while the connection moves data, but not from a
// callback.
// Mount it on a server you own the lifetime of — ServeDebug below does
// exactly that — rather than a fire-and-forget ListenAndServe goroutine,
// which has no shutdown path.
func (ep *Endpoint) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		ep.Metrics().Dump(w)
	})
	mux.HandleFunc("/debug", func(w http.ResponseWriter, r *http.Request) {
		snap := ep.snapshot()
		stats, _ := json.Marshal(snap.stats)
		st := debugState{
			State:       snap.state,
			Established: snap.established,
			Terminated:  snap.terminated,
			Stats:       stats,
			OpenStreams: openStreamsJSON{Send: snap.openSend, Recv: snap.openRecv},
			Scorecard:   scorecardToJSON(snap.card),
		}
		ep.onShard(func() {
			fr := ep.trace.Flight()
			st.RecentEvents = string(fr.Snapshot())
			st.Anomalies = fr.Anomalies()
			st.FirstReason = fr.FirstAnomaly()
			for _, d := range fr.Dumps() {
				st.Dumps = append(st.Dumps, anomalyJSON{
					Reason:      d.Reason,
					TimeSeconds: d.Time.Seconds(),
					Events:      string(d.Events),
				})
			}
		})
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
	return mux
}

// ServeDebug binds addr (e.g. "127.0.0.1:0") and serves DebugHandler from a
// background goroutine with a provable exit: the returned stop function
// closes the server's listener, which makes Serve return, and then waits on
// the goroutine's exited channel before returning. Callers therefore cannot
// leak the scrape server. The bound address is returned so tests and
// operators can bind port 0.
func (ep *Endpoint) ServeDebug(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: ep.DebugHandler()}
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		srv.Serve(ln)
	}()
	stop := func() {
		srv.Close()
		<-exited
	}
	return ln.Addr().String(), stop, nil
}
