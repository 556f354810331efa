package core

import (
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Bulk is one bulk download over an emulated network: the client sends GET
// once the handshake completes, the server answers the stream with size
// zero bytes, and the transfer is done when the client reads FIN. Between
// NewBulk and Run a caller may schedule its own timers on Loop or read
// Pair's per-path state.
type Bulk struct {
	Loop *sim.Loop
	Pair *transport.Pair
	// OnStart runs at handshake completion, before the client sends GET;
	// OnDone runs when the client reads FIN. Either may be nil.
	OnStart, OnDone func(now time.Duration)

	done time.Duration
}

// NewBulk builds a bulk download of size bytes with explicit transport
// configs; seed drives the emulated network.
func NewBulk(ccfg, scfg transport.Config, paths []netem.PathConfig, size uint64, seed int64) *Bulk {
	loop := sim.NewLoop()
	b := &Bulk{Loop: loop, Pair: transport.NewPair(loop, sim.NewRNG(seed), paths, ccfg, scfg)}
	client, server := b.Pair.Client, b.Pair.Server
	server.SetOnStreamOpen(func(now time.Duration, rs *transport.RecvStream) {
		ss := server.Stream(rs.ID())
		ss.Write(make([]byte, size))
		ss.Close()
	})
	client.SetOnStreamData(func(now time.Duration, rs *transport.RecvStream, data []byte, fin bool) {
		if fin {
			b.done = now
			if b.OnDone != nil {
				b.OnDone(now)
			}
		}
	})
	client.SetOnHandshakeDone(func(now time.Duration) {
		if b.OnStart != nil {
			b.OnStart(now)
		}
		s := client.OpenStream()
		s.Write([]byte("GET"))
		s.Close()
	})
	return b
}

// Run starts the download and drives it to deadline. It returns the
// completion time, or deadline and false when the transfer did not finish.
func (b *Bulk) Run(deadline time.Duration) (time.Duration, bool) {
	if err := b.Pair.Start(); err != nil {
		return deadline, false
	}
	b.Loop.RunUntil(deadline)
	if b.done == 0 {
		return deadline, false
	}
	return b.done, true
}

// Download runs one bulk transfer with explicit transport configs.
func Download(ccfg, scfg transport.Config, paths []netem.PathConfig, size uint64, seed int64, deadline time.Duration) (time.Duration, bool) {
	return NewBulk(ccfg, scfg, paths, size, seed).Run(deadline)
}
