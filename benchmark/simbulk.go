package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/video"
)

// simBulk is the sim-bulk-clean / sim-bulk-lossy workload: one emulated
// XLINK session fetching one long video, driven through core.NewSession.
type simBulk struct {
	wl    string
	lossy bool
	// corrupt, when set, makes the client flip one byte of the first response
	// data delivered on a stream it reports true for (the smoke test's
	// failure check).
	corrupt func(streamID uint64) bool
}

func (w simBulk) name() string { return w.wl }

// bulkNetworkSeed fixes the emulated network's random draws (which packets
// the lossy links drop). It is part of the workload's definition, like the
// link rates, and not derived from -seed: on this code the CPU cost of a
// lossy session varies 2.6x with the loss pattern (39 to 103 ms/MiB over
// ten seeds), which would drown any change being measured.
const bulkNetworkSeed = 20210823

// sessionConfig builds the workload's inputs from the seed: the video ID, and
// with it every content byte the server synthesizes and the requester
// checks. The program under test receives nothing else.
func (w simBulk) sessionConfig(sc scale, seed int64) core.SessionConfig {
	cfg := core.SessionConfig{
		Scheme: core.SchemeXLINK,
		Video: video.Video{
			ID:             fmt.Sprintf("bulk-%d", seed),
			Size:           sc.videoBytes,
			BitrateBps:     8_000_000,
			FPS:            30,
			FirstFrameSize: 80 << 10,
		},
		Requester: video.RequesterConfig{ChunkSize: 512 << 10, MaxConcurrent: 2},
		Seed:      bulkNetworkSeed,
	}
	if w.lossy {
		// Capacity barely above the bitrate keeps the play-time left low,
		// so Alg. 1's gate opens and the recovery lanes run constantly.
		cfg.Paths = transport.TwoPathConfig(6, 4, 20*time.Millisecond, 60*time.Millisecond)
		cfg.Paths[0].LossRate, cfg.Paths[1].LossRate = 0.02, 0.02
		cfg.Requester.MaxBufferAhead = 2500 * time.Millisecond
	} else {
		cfg.Paths = transport.TwoPathConfig(200, 100, 20*time.Millisecond, 60*time.Millisecond)
	}
	return cfg
}

// simOutcome is everything a finished sim session exposes publicly that the
// benchmark checks or reports.
type simOutcome struct {
	server, client transport.ConnStats
	card           obs.Scorecard
	metrics        video.Metrics
	rcts           []time.Duration
	chunks         int // chunk requests the video needs
	completed      int // chunk requests that finished by the deadline
	verifyErrors   int
	events         uint64
	links          netem.LinkStats // summed over both directions of all paths
}

// failedOps counts chunk requests that missed the virtual deadline or whose
// content differed from video.SynthesizeContent.
func (o simOutcome) failedOps() int {
	failed := o.chunks - o.completed + o.verifyErrors
	if failed > o.chunks {
		failed = o.chunks
	}
	return failed
}

func chunkCount(cfg core.SessionConfig) int {
	cs := cfg.Requester.ChunkSize
	return int((cfg.Video.Size + cs - 1) / cs)
}

func sumLinks(nw *netem.Network) netem.LinkStats {
	var t netem.LinkStats
	for _, p := range nw.Paths {
		for _, l := range []*netem.Link{p.Up(), p.Down()} {
			s := l.Stats()
			t.SentPackets += s.SentPackets
			t.DroppedPkts += s.DroppedPkts
		}
	}
	return t
}

func outcomeOf(s *core.Session, res core.SessionResult, cfg core.SessionConfig) simOutcome {
	return simOutcome{
		server: res.ServerStats, client: res.ClientStats, card: res.Scorecard,
		metrics: res.Metrics, rcts: res.ChunkRCTs,
		chunks: chunkCount(cfg), completed: len(s.Requester.Results),
		verifyErrors: s.Requester.VerifyErrors(),
		events:       s.Loop.Fired(),
		links:        sumLinks(s.Pair.Network),
	}
}

// sameRun reports whether two outcomes are the same deterministic run.
func (o simOutcome) sameRun(p simOutcome) bool {
	return o.server == p.server && o.client == p.client && o.card == p.card
}

// setup is one set-up unit: generate the inputs, build the session at set-up
// scale, run it and check its output.
func (w simBulk) setup(sc scale, seed int64) error {
	cfg := w.sessionConfig(sc, seed)
	s := core.NewSession(cfg)
	res, err := s.Run()
	if err != nil {
		return err
	}
	if o := outcomeOf(s, res, cfg); o.failedOps() != 0 {
		return fmt.Errorf("%s set-up session: %d of %d chunk requests failed", w.wl, o.failedOps(), o.chunks)
	}
	return nil
}

// run executes one full session and measures it; base is the live heap
// before the run's first session was built.
func (w simBulk) run(sc scale, seed int64, base int64) (repSample, simOutcome, error) {
	cfg := w.sessionConfig(sc, seed)
	runtime.GC() // every repetition starts from a collected heap
	start := readUsage()
	s := core.NewSession(cfg)
	if w.corrupt != nil {
		corrupted := false
		s.Pair.Client.SetOnStreamData(func(now time.Duration, rs *transport.RecvStream, data []byte, fin bool) {
			if !corrupted && len(data) > 0 && w.corrupt(rs.ID()) {
				corrupted = true
				data = append([]byte(nil), data...)
				data[0] ^= 0xff
			}
			s.Requester.OnStreamData(now, rs, data, fin)
		})
	}
	res, err := s.Run()
	c := readUsage().since(start)
	if err != nil {
		return repSample{}, simOutcome{}, err
	}
	retained := liveHeap() - base
	runtime.KeepAlive(s)
	o := outcomeOf(s, res, cfg)
	verified := uint64(0)
	if o.verifyErrors == 0 {
		for _, r := range s.Requester.Results {
			verified += r.Length
		}
	}
	return repSample{
		cost: c, appBytes: verified, goodputBytes: verified, goodputWallS: c.wallS,
		serverPkts: o.server.SentPackets,
		retained:   retained, playedS: o.metrics.PlayTime.Seconds(),
		attempted: o.chunks, failed: o.failedOps(),
	}, o, nil
}

// rep is one timed repetition; first is the outcome of the run's first
// repetition, which every later one must reproduce exactly.
func (w simBulk) rep(sc scale, seed int64, base int64, first *simOutcome) (repSample, error) {
	r, o, err := w.run(sc, seed, base)
	if err != nil {
		return r, err
	}
	switch {
	case first.chunks == 0:
		*first = o
	case !o.sameRun(*first):
		r.broken = "ConnStats/Scorecard differ from the first repetition (determinism break)"
		r.failed = r.attempted
	}
	return r, nil
}

// qoeValues are the virtual-time QoE outputs of a set of sessions.
func qoeValues(rcts []time.Duration, firstFrames []time.Duration, rebuffer time.Duration, sessions int) map[string]float64 {
	ms := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = float64(d) / float64(time.Millisecond)
		}
		return out
	}
	r, f := ms(rcts), ms(firstFrames)
	return map[string]float64{
		"video.rct_p50_ms":              percentile(r, 50),
		"video.rct_p95_ms":              percentile(r, 95),
		"video.first_frame_p50_ms":      percentile(f, 50),
		"video.rebuffer_ms_per_session": ratio(float64(rebuffer)/float64(time.Millisecond), float64(sessions)),
	}
}
