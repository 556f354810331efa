package netem

import (
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// PathConfig describes one bidirectional emulated path between a client and
// a server, the unit replayed by mpshell: a technology label, per-direction
// traces, and a symmetric propagation delay.
type PathConfig struct {
	// Name labels the path in output ("wifi", "lte", ...).
	Name string
	// Tech is the wireless access technology of the path, used by
	// wireless-aware primary path selection.
	Tech trace.Technology
	// Up and Down are the client->server and server->client traces.
	// If Down is nil, Up is used for both directions.
	Up, Down *trace.Trace
	// OneWayDelay is the propagation delay per direction.
	OneWayDelay time.Duration
	// QueueBytes and LossRate configure both directions.
	QueueBytes int
	LossRate   float64
	// JitterMax and CorruptRate configure both directions (see
	// LinkConfig).
	JitterMax   time.Duration
	CorruptRate float64
}

// Path is a bidirectional emulated path: an uplink and a downlink.
type Path struct {
	Name string
	Tech trace.Technology
	up   *Link // client -> server
	down *Link // server -> client
}

// NewPath builds a Path on loop. toServer and toClient receive packets that
// complete the respective direction.
func NewPath(loop *sim.Loop, cfg PathConfig, rng *sim.RNG, toServer, toClient DeliverFunc) *Path {
	down := cfg.Down
	if down == nil {
		down = cfg.Up
	}
	upLink := NewLink(loop, LinkConfig{
		Trace: cfg.Up, Delay: cfg.OneWayDelay,
		QueueBytes: cfg.QueueBytes, LossRate: cfg.LossRate,
		JitterMax: cfg.JitterMax, CorruptRate: cfg.CorruptRate,
	}, rng.Fork(cfg.Name+"-up"), toServer)
	downLink := NewLink(loop, LinkConfig{
		Trace: down, Delay: cfg.OneWayDelay,
		QueueBytes: cfg.QueueBytes, LossRate: cfg.LossRate,
		JitterMax: cfg.JitterMax, CorruptRate: cfg.CorruptRate,
	}, rng.Fork(cfg.Name+"-down"), toClient)
	return &Path{Name: cfg.Name, Tech: cfg.Tech, up: upLink, down: downLink}
}

// SendToServer offers a client-originated packet to the uplink.
func (p *Path) SendToServer(data []byte) { p.up.Send(data) }

// SendToClient offers a server-originated packet to the downlink.
func (p *Path) SendToClient(data []byte) { p.down.Send(data) }

// SendToServerBatch offers a batch of client-originated packets to the
// uplink (see Link.SendBatch for the equivalence contract).
func (p *Path) SendToServerBatch(pkts [][]byte) int { return p.up.SendBatch(pkts) }

// SendToClientBatch offers a batch of server-originated packets to the
// downlink.
func (p *Path) SendToClientBatch(pkts [][]byte) int { return p.down.SendBatch(pkts) }

// SetDown disables or enables both directions.
func (p *Path) SetDown(down bool) {
	p.up.SetDown(down)
	p.down.SetDown(down)
}

// Alive reports whether both directions are administratively up.
func (p *Path) Alive() bool { return !p.up.IsDown() && !p.down.IsDown() }

// SetExtraDelay adds d to the propagation delay of both directions (an RTT
// spike of 2d).
func (p *Path) SetExtraDelay(d time.Duration) {
	p.up.SetExtraDelay(d)
	p.down.SetExtraDelay(d)
}

// SetDropFuncs installs per-packet drop models on the two directions (nil
// removes).
func (p *Path) SetDropFuncs(up, down DropFunc) {
	p.up.SetDropFunc(up)
	p.down.SetDropFunc(down)
}

// SetDuplicate sets the duplication rate on both directions.
func (p *Path) SetDuplicate(rate float64) {
	p.up.SetDuplicate(rate)
	p.down.SetDuplicate(rate)
}

// SetReorder sets the reordering fault on both directions.
func (p *Path) SetReorder(rate float64, extra time.Duration) {
	p.up.SetReorder(rate, extra)
	p.down.SetReorder(rate, extra)
}

// Up returns the uplink for inspection.
func (p *Path) Up() *Link { return p.up }

// Down returns the downlink for inspection.
func (p *Path) Down() *Link { return p.down }

// Network wires a multi-homed client to a server over a set of emulated
// paths, the Fig 2 topology. Packets are delivered to per-side handlers
// along with the index of the path they arrived on.
type Network struct {
	Loop  *sim.Loop
	Paths []*Path

	clientRx Handler
	serverRx Handler
}

// Handler receives packets at an endpoint: the path index and payload. As
// with DeliverFunc, data is on loan from the link for the call only.
type Handler func(now time.Duration, pathIdx int, data []byte)

// NewNetwork builds a network with the given path configurations. The
// handlers may be set later with Attach before any traffic is sent.
func NewNetwork(loop *sim.Loop, rng *sim.RNG, cfgs []PathConfig) *Network {
	n := &Network{Loop: loop}
	for i, cfg := range cfgs {
		i := i
		p := NewPath(loop, cfg, rng,
			func(now time.Duration, data []byte) {
				if n.serverRx != nil {
					n.serverRx(now, i, data)
				}
			},
			func(now time.Duration, data []byte) {
				if n.clientRx != nil {
					n.clientRx(now, i, data)
				}
			})
		n.Paths = append(n.Paths, p)
	}
	return n
}

// Attach registers the client- and server-side receive handlers.
func (n *Network) Attach(clientRx, serverRx Handler) {
	n.clientRx = clientRx
	n.serverRx = serverRx
}

// ClientSend transmits a client packet on path idx.
func (n *Network) ClientSend(idx int, data []byte) {
	if idx >= 0 && idx < len(n.Paths) {
		n.Paths[idx].SendToServer(data)
	}
}

// ServerSend transmits a server packet on path idx.
func (n *Network) ServerSend(idx int, data []byte) {
	if idx >= 0 && idx < len(n.Paths) {
		n.Paths[idx].SendToClient(data)
	}
}

// ClientSendBatch transmits a batch of client packets on path idx.
func (n *Network) ClientSendBatch(idx int, pkts [][]byte) int {
	if idx >= 0 && idx < len(n.Paths) {
		return n.Paths[idx].SendToServerBatch(pkts)
	}
	return 0
}

// ServerSendBatch transmits a batch of server packets on path idx.
func (n *Network) ServerSendBatch(idx int, pkts [][]byte) int {
	if idx >= 0 && idx < len(n.Paths) {
		return n.Paths[idx].SendToClientBatch(pkts)
	}
	return 0
}
