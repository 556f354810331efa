package transport

import (
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Pair wires a client and server connection over an emulated multi-path
// network, the standard topology for the controlled experiments
// (Appendix B): the client is multi-homed, the server reachable over every
// path.
type Pair struct {
	Loop    *sim.Loop
	Network *netem.Network
	Client  *Conn
	Server  *Conn
}

// NewPair builds the topology. pathCfgs describe the emulated paths in
// client-interface order; interface i of the client maps to path i. The
// configs' IsClient fields are set by this helper.
func NewPair(loop *sim.Loop, rng *sim.RNG, pathCfgs []netem.PathConfig, clientCfg, serverCfg Config) *Pair {
	nw := netem.NewNetwork(loop, rng, pathCfgs)
	env := SimEnv{Loop: loop}

	clientCfg.IsClient = true
	serverCfg.IsClient = false
	client := NewConn(env, NetemSender{Network: nw, Client: true}, clientCfg)
	server := NewConn(env, NetemSender{Network: nw}, serverCfg)

	nw.Attach(
		func(now time.Duration, pathIdx int, data []byte) {
			client.HandleDatagram(now, pathIdx, data)
		},
		func(now time.Duration, pathIdx int, data []byte) {
			server.HandleDatagram(now, pathIdx, data)
		})

	for i, pc := range pathCfgs {
		client.AddInterface(i, pc.Tech)
	}
	return &Pair{Loop: loop, Network: nw, Client: client, Server: server}
}

// NetemSender implements DatagramSender over one side of an emulated
// network: the client's uplinks when Client is set, the server's downlinks
// otherwise. It reaches Link.SendBatch, whose per-packet admission keeps a
// batched pair event-identical to an unbatched one — the property the chaos
// determinism suite pins down.
type NetemSender struct {
	Network *netem.Network
	Client  bool
}

// SendBatch implements DatagramSender.
func (s NetemSender) SendBatch(netIdx int, pkts [][]byte) int {
	if s.Client {
		return s.Network.ClientSendBatch(netIdx, pkts)
	}
	return s.Network.ServerSendBatch(netIdx, pkts)
}

// Start launches the client handshake.
func (p *Pair) Start() error { return p.Client.Start() }

// RunUntil drives the simulation to the deadline.
func (p *Pair) RunUntil(d time.Duration) { p.Loop.RunUntil(d) }

// TwoPathConfig is a convenience two-path (Wi-Fi + LTE) topology with
// constant-rate links.
func TwoPathConfig(wifiMbps, lteMbps float64, wifiDelay, lteDelay time.Duration) []netem.PathConfig {
	return []netem.PathConfig{
		{
			Name: "wifi", Tech: trace.TechWiFi,
			Up:          trace.ConstantRate("wifi", wifiMbps, time.Second),
			OneWayDelay: wifiDelay / 2,
		},
		{
			Name: "lte", Tech: trace.TechLTE,
			Up:          trace.ConstantRate("lte", lteMbps, time.Second),
			OneWayDelay: lteDelay / 2,
		},
	}
}
