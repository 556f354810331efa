package xlink

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/assert"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qoe"
	"repro/internal/sim"
	"repro/internal/transport"
)

// liveEnv is a live connection's transport.Env (DESIGN.md §20): its timer
// waits in its shard's sim.Loop, as in the sim, and the shard advances that
// loop to the wall clock at the start and the end of every turn, so the
// connection reads one clock that never goes back. The connection's clock
// starts at zero when its endpoint is made (origin is the shard's wall
// instant then). The connection holds at most one arm (transport.Env), so
// the env has one: fn is the pending arm's (nil: none), timer its event,
// and cancel, bound once, serves every arm, so a warm arm allocates
// nothing. The arm is delivered through the env (Fire), which joins the
// endpoint to the turn before the connection's fn runs and drops the fn of
// a closed endpoint. Only the shard goroutine calls it.
type liveEnv struct {
	ep     *Endpoint
	loop   *sim.Loop
	origin time.Duration
	fn     func(now time.Duration)
	timer  sim.Timer
	cancel func()
}

// Now implements transport.Env with the loop's clock.
func (e *liveEnv) Now() time.Duration { return e.loop.Now() - e.origin }

// Schedule implements transport.Env: fn waits in the loop.
func (e *liveEnv) Schedule(at time.Duration, fn func(now time.Duration)) func() {
	assert.That(e.fn == nil, "live timer armed while another arm is pending")
	if e.cancel == nil {
		e.cancel = func() {
			e.timer.Stop()
			e.fn, e.timer = nil, sim.Timer{}
		}
	}
	e.fn = fn
	e.timer = e.loop.AtRecv(e.origin+at, e, 0)
	return e.cancel
}

// Fire implements sim.Receiver: the arm came due.
func (e *liveEnv) Fire(now time.Duration, _ int) {
	fn := e.fn
	e.fn, e.timer = nil, sim.Timer{}
	if e.ep.closed {
		return // no timer of a closed endpoint runs
	}
	e.ep.join()
	fn(now - e.origin)
}

// Endpoint is a live XLINK endpoint over real UDP sockets: a server with
// one socket, or a multi-homed client with one socket per interface. Its
// connection belongs to its shard (DESIGN.md §16): only the shard goroutine
// touches it. The methods below post ops to the shard's FIFO, read the
// snapshot the shard publishes at the end of each turn, or, where noted,
// wait for the shard; any goroutine, a callback included, may call them.
// The snapshot, and the channel a writer waiting on the backlog is woken
// by, are read and written only with snapMu held.
type Endpoint struct {
	// Set before the endpoint is published and read-only after.
	shard *eventLoopShard
	// ownedLoops is the private single-shard group made when the user
	// supplied no LiveConfig.Loops; the endpoint's close tears it down.
	ownedLoops *EventLoopGroup
	// socks are the bound sockets: a client's one per interface, a server's
	// one, which answers every path.
	socks []*net.UDPConn
	// client is set on a dialed endpoint; label is this side's trace origin
	// ("client" or "server").
	client bool
	label  string
	// userTrace records whether cfg.Tracer was supplied; TraceBytes keeps
	// its nil-return contract when it was not.
	userTrace bool
	// done is closed by the shard once it has closed the endpoint and
	// published its last snapshot: from then on the shard no longer touches
	// it.
	done chan struct{}
	// opened counts the locally initiated streams OpenStream has reserved.
	opened atomic.Uint64
	// queued counts the Write bytes posted and not yet in a published
	// snapshot's send buffer.
	queued atomic.Int64

	// The shard's alone once the endpoint is published.
	env  liveEnv
	conn *transport.Conn
	peer []netip.AddrPort // per netIdx: where to send (client side / learned), unmapped
	// trace is the user's Tracer, or an internal ring-only flight trace —
	// either way with a flight recorder attached, so a live connection keeps
	// a last-N event ring for anomaly post-mortems (DESIGN.md §14).
	trace *obs.Trace
	// ctrl is the Alg. 1 controller when the scheme wires one (server side).
	ctrl   *qoe.Controller
	closed bool
	// inTurn records that the endpoint joined the shard's current turn: its
	// connection is held (transport Conn.Hold) until the turn's end.
	inTurn bool
	// applied counts the Write bytes this turn applied to the connection.
	// queued still counts them until publish takes them out, under snapMu,
	// in the step that puts them in the snapshot's send buffer.
	applied int64

	snapMu sync.Mutex
	snap   snapshot
	// drained, made by a writer that waits in awaitBacklog, is closed by the
	// shard's next snapshot.
	drained chan struct{}
}

// snapshot is what the value readers see: the connection as the last turn
// that touched it left it.
type snapshot struct {
	stats              transport.ConnStats
	state              string
	established        bool
	terminated         bool
	card               obs.Scorecard
	openSend, openRecv int
}

// Stream is the sending half of a stream on a live endpoint: its endpoint
// and its ID, passed by value. Each call posts an op that the endpoint's
// shard applies in the order posted, resolving the stream by ID, so a
// Stream is safe to use from any goroutine, a callback included. See the
// internal documentation for WriteFrame's video-frame priority semantics.
type Stream struct {
	ep *Endpoint
	id uint64
}

// ID returns the stream ID.
func (st Stream) ID() uint64 { return st.id }

// Write queues a copy of data for sending. The data leaves at the end of the
// shard turn that applies the write, together with whatever else the turn
// queued, not before Write returns. On a goroutine that is no shard's, Write
// first waits while the endpoint's send backlog is over writeBacklog; a
// callback never waits.
func (st Stream) Write(data []byte) { st.ep.postWrite(st.id, data, false, 0) }

// WriteFrame queues a copy of one video frame with a priority.
func (st Stream) WriteFrame(data []byte, prio int) { st.ep.postWrite(st.id, data, true, prio) }

// Close marks the stream finished after all queued data. A Write and a
// Close made in a row leave together when one turn applies both.
func (st Stream) Close() { st.ep.post(op{kind: opClose, ep: st.ep, id: st.id}) }

// RecvStream is the receiving half of a stream.
type RecvStream = transport.RecvStream

// LiveConfig configures a live endpoint.
type LiveConfig struct {
	// Scheme and Options select the transport behaviour.
	Scheme  Scheme
	Options Options
	// PSK must match between client and server (stands in for TLS; see
	// DESIGN.md).
	PSK []byte
	// OnStreamData receives in-order stream data. It runs on the endpoint's
	// shard, inside the transport call that delivered the data, as in the
	// sim. data is the transport's, valid for the call only, so a callback
	// that keeps bytes copies them. What a callback writes leaves after it
	// returns, with the rest of its shard turn. A stream the peer resets
	// gets one last call with no data and fin set, on which s.IsReset() is
	// true.
	OnStreamData func(now time.Duration, s *RecvStream, data []byte, fin bool)
	// OnStreamOpen announces peer-initiated streams.
	OnStreamOpen func(now time.Duration, s *RecvStream)
	// OnHandshakeDone fires once the connection is established.
	OnHandshakeDone func(now time.Duration)
	// QoEProvider supplies client player feedback. The shard calls it for
	// the ACKs a send pass builds.
	QoEProvider func() QoESignal
	// Tracer, when set, collects the connection's structured event stream.
	// Only the endpoint's shard emits to it (obs.Trace itself is
	// goroutine-confined; only its Registry is internally synchronized);
	// read it with Endpoint.TraceBytes, which copies it on the shard.
	// Timestamps come from the shard's loop, which every turn advances to
	// the wall clock, so they never decrease, but — unlike sim traces — live
	// traces are not byte-reproducible across runs. nil skips the NDJSON
	// stream but not the flight recorder: the endpoint always keeps a
	// last-N event ring and a metric registry (see DebugHandler).
	Tracer *obs.Trace
	Seed   int64
	// Loops, when set, shards this endpoint's packet processing onto a
	// shared EventLoopGroup (one endpoint maps to one shard, round-robin).
	// Server fleets share one per-core group so N endpoints cost N socket
	// readers plus a fixed number of event loops, not N processing
	// goroutines. nil gives the endpoint a private single-shard group that
	// its Close tears down.
	Loops *EventLoopGroup
}

// Listen starts a live server endpoint on addr (e.g. "127.0.0.1:4242").
func Listen(addr string, cfg LiveConfig) (*Endpoint, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	sock, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}
	x := core.New(cfg.Scheme, cfg.Options)
	ep := newEndpoint([]*net.UDPConn{sock}, x.ServerConfig(cfg.Seed), x.Controller, cfg)
	go ep.readLoop(0, sock)
	return ep, nil
}

// Dial starts a live client endpoint connecting every local interface
// (one "ifaceAddrs" local bind per path, which may be ":0") to the remote
// server. The handshake starts on the endpoint's shard after Dial returns.
func Dial(remote string, ifaceAddrs []string, techs []Technology, cfg LiveConfig) (*Endpoint, error) {
	if len(ifaceAddrs) == 0 || len(ifaceAddrs) != len(techs) {
		return nil, fmt.Errorf("xlink: need one local address and technology per interface")
	}
	raddr, err := net.ResolveUDPAddr("udp", remote)
	if err != nil {
		return nil, err
	}
	var socks []*net.UDPConn
	for _, la := range ifaceAddrs {
		laddr, err := net.ResolveUDPAddr("udp", la)
		if err != nil {
			return nil, err
		}
		sock, err := net.ListenUDP("udp", laddr)
		if err != nil {
			return nil, err
		}
		socks = append(socks, sock)
	}
	x := core.New(cfg.Scheme, cfg.Options)
	tcfg := x.ClientConfig(cfg.Seed)
	tcfg.IsClient = true
	ep := newEndpoint(socks, tcfg, x.Controller, cfg)
	for i, tech := range techs {
		ep.peer = append(ep.peer, unmapped(raddr.AddrPort()))
		ep.conn.AddInterface(i, tech)
	}
	ep.post(op{kind: opStart, ep: ep})
	for i, sock := range socks {
		// One reader per dialed interface: readLoop exits when the close
		// closes its socket and ep.done.
		go ep.readLoop(i, sock)
	}
	return ep, nil
}

// newEndpoint binds a new endpoint to a shard of cfg.Loops, or of a private
// single-shard group when there is none, and makes its connection with the
// user's callbacks and trace. The endpoint is published to the shard by its
// first op or datagram.
func newEndpoint(socks []*net.UDPConn, tcfg transport.Config, ctrl *qoe.Controller, cfg LiveConfig) *Endpoint {
	ep := &Endpoint{
		socks: socks,
		peer:  make([]netip.AddrPort, 0, len(socks)),
		done:  make(chan struct{}),
		ctrl:  ctrl,
	}
	g := cfg.Loops
	if g == nil {
		g = NewEventLoopGroup(1)
		ep.ownedLoops = g
	}
	ep.shard = g.attach()
	ep.env = liveEnv{ep: ep, loop: ep.shard.loop, origin: ep.shard.wall.Now()}
	if len(cfg.PSK) > 0 {
		tcfg.PSK = cfg.PSK
	}
	ep.client, ep.label = tcfg.IsClient, "server"
	if ep.client {
		ep.label = "client"
	}
	// The user's Tracer or an internal ring-only flight trace, either way
	// with a flight recorder attached.
	ep.userTrace = cfg.Tracer != nil
	ep.trace = cfg.Tracer
	if ep.trace == nil {
		ep.trace = obs.NewFlightTrace("live-"+ep.label, 0)
	}
	ep.trace.AttachFlightRecorder(0)
	tcfg.Tracer = ep.trace.Origin(ep.label)
	ep.conn = transport.NewConn(&ep.env, ep, tcfg)
	// The callbacks run inline on the shard, inside the transport call that
	// raised them.
	ep.conn.SetOnStreamData(cfg.OnStreamData)
	ep.conn.SetOnStreamOpen(cfg.OnStreamOpen)
	ep.conn.SetOnHandshakeDone(cfg.OnHandshakeDone)
	ep.conn.SetQoEProvider(cfg.QoEProvider)
	ep.publish()
	return ep
}

// SendBatch implements transport.DatagramSender over the sockets: one write
// per packet on the interface's socket (the stdlib exposes no sendmmsg, so
// the syscall batching point stays behind this single seam), returning how
// many were written. The transport-side win — one virtual dispatch and one
// flush per batch — is independent of the syscall count. Only the shard
// calls it, through its connection.
func (ep *Endpoint) SendBatch(netIdx int, pkts [][]byte) int {
	if netIdx >= len(ep.peer) || !ep.peer[netIdx].IsValid() {
		return 0
	}
	// A client sends on the interface's socket; a server has one socket.
	sock := ep.socks[min(netIdx, len(ep.socks)-1)]
	sent := 0
	for _, d := range pkts {
		if _, err := sock.WriteToUDPAddrPort(d, ep.peer[netIdx]); err == nil {
			sent++
		}
	}
	return sent
}

// readBufSize fits any datagram the transport seals (MaxDatagramSize plus
// headroom); every read buffer is this large.
const readBufSize = 2048

// readBufs is the process-wide pool of socket read buffers. A reader takes
// one per datagram and the shard gives it back once it delivered the datagram.
var readBufs bufPool[*[readBufSize]byte]

// writeChunkSize is the size of the chunks a Write's payload is copied into.
// It is above the transport's 4 KiB small first segment, so the first chunk
// of a larger Write takes a whole pooled segment, as one transport call with
// the whole payload does; read-buffer-sized chunks would fill every such
// stream's small segment first and then copy it into a whole one.
const writeChunkSize = 8 << 10

// writeChunks is the process-wide pool of Write chunks: a Write takes one
// per chunk of its copy, and the shard gives it back once the op is applied.
var writeChunks bufPool[*[writeChunkSize]byte]

// bufPool is a process-wide pool of byte buffers of one size, held as P, a
// pointer to the array, so that Put boxes nothing (DESIGN.md §19, the pool
// rule). The collector empties it, so an idle process holds none.
type bufPool[P *[readBufSize]byte | *[writeChunkSize]byte] struct{ pool sync.Pool }

// get returns a whole buffer, reused if the pool has one.
func (bp *bufPool[P]) get() P {
	b, _ := bp.pool.Get().(P)
	// Pool empty: it grows to the most buffers in use at once since the last collection.
	if b == nil {
		b = P(make([]byte, len(b))) // len of a nil array pointer is the array's
	}
	return b
}

// put gives a buffer back to the pool: any slice of one that starts at its
// first byte. Under xlinkdebug it is overwritten first, so a consumer that
// kept the bytes (the transport past HandleDatagram or SendStream.Write)
// reads 0xdb instead of the buffer's next use.
func (bp *bufPool[P]) put(buf []byte) {
	whole := buf[:cap(buf)]
	if assert.Enabled {
		for i := range whole {
			whole[i] = 0xdb
		}
	}
	bp.pool.Put(P(whole))
}

// liveBatchSize caps how many raw packets one shard turn drains.
const liveBatchSize = 16

// rawPacket is one datagram handed from a socket reader to its endpoint's
// shard. buf is a read buffer from readBufs: the shard gives it back right
// after delivering it, and the transport's receive boundary (see
// transport.DatagramSender's ownership note) guarantees the connection does
// not retain it past HandleDatagram, though the turn still holds the
// connection and its send pass is owed.
type rawPacket struct {
	ep   *Endpoint
	sock int // receiving socket's netIdx (client); servers resolve per packet
	from netip.AddrPort
	buf  []byte
}

// opKind says what an op does on the shard.
type opKind uint8

const (
	opWrite opKind = iota
	opClose
	opStart // the client's handshake (Dial)
	opCloseEndpoint
	opCall // fn, for a caller that waits (onShard)
)

// op is one user call on its way to the shard, held by value in the
// shard's FIFO so that posting it allocates nothing.
type op struct {
	kind opKind
	ep   *Endpoint
	id   uint64 // the stream
	// arg is, on a WriteFrame's last chunk, the length of the frame, of
	// priority prio, that ends with it.
	arg  uint64
	prio int
	buf  []byte // opWrite's bytes: a writeChunks chunk
	fn   func()
}

// post queues o on its endpoint's shard and wakes the shard. It never
// blocks, so a callback may post to its own shard.
func (ep *Endpoint) post(o op) {
	if ep.isDone() {
		return
	}
	sh := ep.shard
	sh.mu.Lock()
	sh.ops = append(sh.ops, o)
	sh.mu.Unlock()
	sh.wake()
}

// postWrite queues a copy of data for stream id as one op per Write chunk,
// posted together so no other op comes between them.
func (ep *Endpoint) postWrite(id uint64, data []byte, frame bool, prio int) {
	if ep.isDone() {
		return
	}
	ep.awaitBacklog()
	n, sh := len(data), ep.shard
	ep.queued.Add(int64(n))
	sh.mu.Lock()
	for first := true; first || len(data) > 0; first = false {
		o := op{kind: opWrite, ep: ep, id: id}
		if len(data) > 0 {
			o.buf = writeChunks.get()[:]
			o.buf = o.buf[:copy(o.buf, data)]
			data = data[len(o.buf):]
		}
		if len(data) == 0 && frame {
			o.arg, o.prio = uint64(n), prio
		}
		sh.ops = append(sh.ops, o)
	}
	sh.mu.Unlock()
	sh.wake()
}

// isDone reports whether the endpoint is closed: its ops would do nothing,
// and its shard may be gone.
func (ep *Endpoint) isDone() bool {
	select {
	case <-ep.done:
		return true
	default:
		return false
	}
}

// apply runs o on the shard. An op for a closed endpoint does nothing.
func (o *op) apply() {
	ep := o.ep
	if !ep.closed {
		ep.join()
		switch o.kind {
		case opWrite:
			s := ep.conn.Stream(o.id)
			end := s.Buffered() + uint64(len(o.buf))
			s.Write(o.buf)
			// A frame is tagged only if its last chunk was written: a finished
			// or reset stream drops a Write, and every Write after it.
			if o.arg > 0 && s.Buffered() == end {
				s.MarkFrame(end-o.arg, end, o.prio)
			}
		case opClose:
			ep.conn.Stream(o.id).Close()
		case opStart:
			if ep.conn.Start() != nil {
				ep.shut()
			}
		case opCloseEndpoint:
			ep.shut()
		case opCall:
			o.fn()
		}
	}
	if o.buf != nil {
		ep.applied += int64(len(o.buf))
		writeChunks.put(o.buf)
	}
}

// onShard runs fn on the endpoint's shard after every op posted before it
// and waits for it to return; once the endpoint is closed, when the shard no
// longer touches it, fn runs on the caller's goroutine instead. It must not
// be called from a callback, which would wait for its own shard.
func (ep *Endpoint) onShard(fn func()) {
	ran := make(chan struct{})
	ep.post(op{kind: opCall, ep: ep, fn: func() { fn(); close(ran) }})
	select {
	case <-ran:
	case <-ep.done:
		select {
		case <-ran:
		default:
			fn()
		}
	}
}

// EventLoopGroup shards live endpoints across per-core event loops. Each
// shard goroutine is the only one that touches its endpoints' connections
// (DESIGN.md §16): socket readers post raw packets to it over a channel,
// user calls post ops to its FIFO, and its one timer stands for the
// earliest deadline of its one sim.Loop. Endpoints attach round-robin at
// creation, so all traffic for a connection stays on one shard and batches
// form naturally under load.
//
// A group may be shared by many endpoints (LiveConfig.Loops); endpoints
// without one get a private single-shard group. Close the endpoints first,
// then the group: Close signals the shard goroutines to apply the ops
// already posted — the endpoints' closes among them — and exit, and Wait
// joins them.
type EventLoopGroup struct {
	shards []*eventLoopShard
	next   atomic.Uint64
	wg     sync.WaitGroup
	done   chan struct{}
	closed atomic.Bool
}

// eventLoopShard is one event loop. in is written by socket readers and
// ops by any goroutine under mu, a leaf lock never held across a transport
// call or a callback; everything else is the shard goroutine's. No channel
// is ever closed — lifecycle runs through the group's done channel.
type eventLoopShard struct {
	in   chan rawPacket
	kick chan struct{} // one slot: ops were posted
	mu   sync.Mutex
	ops  []op

	loop  *sim.Loop
	wall  *sim.RealClock
	timer *time.Timer
	// timerAt is the loop instant the timer goes off at, -1 when it is not
	// set.
	timerAt time.Duration
	spare   []op        // the FIFO's other array, swapped in by applyOps
	turn    []*Endpoint // the endpoints joined to the current turn
	batch   []rawPacket
}

// NewEventLoopGroup starts a group of n shard goroutines (n <= 0 means one
// per CPU core).
func NewEventLoopGroup(n int) *EventLoopGroup {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	g := &EventLoopGroup{done: make(chan struct{})}
	for i := 0; i < n; i++ {
		sh := &eventLoopShard{
			in:   make(chan rawPacket, 4*liveBatchSize),
			kick: make(chan struct{}, 1),
			loop: sim.NewLoop(),
			wall: sim.NewRealClock(),
			// The one wall-clock timer of the live plane: a real-time
			// adapter, the shard's timer goes off on the wall clock.
			timer:   time.NewTimer(time.Hour),
			timerAt: -1,
			batch:   make([]rawPacket, 0, liveBatchSize),
		}
		sh.timer.Stop()
		g.shards = append(g.shards, sh)
		g.wg.Add(1)
		// One goroutine per shard, joined by Close/Wait via g.done and g.wg:
		// the only one that drives its endpoints' connections, which reach
		// it through its FIFO and its channel (DESIGN.md §16).
		go g.run(sh)
	}
	return g
}

// Close signals every shard goroutine to exit after one last turn. It does
// not wait (an endpoint's close may run it from a shard goroutine); use
// Wait to join.
func (g *EventLoopGroup) Close() {
	if g.closed.CompareAndSwap(false, true) {
		close(g.done)
	}
}

// Wait joins the shard goroutines after Close. Must not be called from a
// callback (it would wait on itself).
func (g *EventLoopGroup) Wait() { g.wg.Wait() }

// attach assigns the next endpoint to a shard, round-robin.
func (g *EventLoopGroup) attach() *eventLoopShard {
	return g.shards[int(g.next.Add(1)-1)%len(g.shards)]
}

// run is one shard's event loop: block for a datagram, an op or the timer,
// drain whatever other datagrams are already queued (up to liveBatchSize),
// and run a turn.
func (g *EventLoopGroup) run(sh *eventLoopShard) {
	defer g.wg.Done()
	defer sh.timer.Stop()
	id := goid()
	shardGoroutines.Store(id, true)
	defer shardGoroutines.Delete(id)
	for {
		select {
		case <-g.done:
			// The ops posted before the group's Close run in a last turn.
			sh.runTurn()
			return
		case rp := <-sh.in:
			sh.batch = append(sh.batch, rp)
		drain:
			for len(sh.batch) < liveBatchSize {
				select {
				case rp2 := <-sh.in:
					sh.batch = append(sh.batch, rp2)
				default:
					break drain
				}
			}
		case <-sh.kick:
		case <-sh.timer.C:
			sh.timerAt = -1
		}
		sh.runTurn()
	}
}

// wake makes sure the shard runs a turn after the ops posted so far.
func (sh *eventLoopShard) wake() {
	select {
	case sh.kick <- struct{}{}:
	default:
	}
}

// runTurn is one turn of the shard (DESIGN.md §16): advance the loop to the
// wall clock, which runs the timers that came due; hand each datagram to its
// endpoint's held connection, whose callbacks run inline; apply the ops
// posted so far; advance again; then release every endpoint the turn
// joined, which runs its one send pass, publish its snapshot (a closed
// endpoint's last, after which its done channel closes), and point the
// timer at the loop's next deadline. This is the per-batch hot loop: its
// steady state allocates nothing.
func (sh *eventLoopShard) runTurn() {
	sh.loop.RunUntil(sh.wall.Now())
	sh.ingest()
	sh.applyOps()
	sh.loop.RunUntil(sh.wall.Now())
	for i, ep := range sh.turn {
		ep.inTurn = false
		ep.conn.Release() // a no-op once shut closed the connection
		ep.publish()
		if ep.closed {
			close(ep.done)
		}
		sh.turn[i] = nil
	}
	sh.turn = sh.turn[:0]
	if at, ok := sh.loop.Next(); ok && at != sh.timerAt {
		sh.timerAt = at
		// The loop's clock is at or behind the wall's, so the timer never
		// goes off before at. A stale one costs an empty turn.
		sh.timer.Reset(at - sh.loop.Now())
	}
}

// ingest delivers the turn's datagrams in arrival order and gives each read
// buffer back once it is delivered.
func (sh *eventLoopShard) ingest() {
	for k := range sh.batch {
		rp := &sh.batch[k]
		if !rp.ep.closed {
			rp.ep.deliver(rp)
		}
		readBufs.put(rp.buf)
		*rp = rawPacket{}
	}
	sh.batch = sh.batch[:0]
}

// applyOps applies the ops posted so far, in the order posted; ops posted
// meanwhile wait for the next turn. It advances the loop to the wall clock
// once it has taken them, so a timer due before an op was posted runs
// before the op.
func (sh *eventLoopShard) applyOps() {
	sh.mu.Lock()
	ops := sh.ops
	sh.ops = sh.spare
	sh.mu.Unlock()
	sh.loop.RunUntil(sh.wall.Now())
	for i := range ops {
		ops[i].apply()
		ops[i] = op{}
	}
	// A burst's array is left to the collector.
	if cap(ops) > 1024 {
		ops = nil
	}
	sh.spare = ops[:0]
}

// join makes the endpoint part of the shard's current turn: its connection
// is held until the turn's end, so that every send pass the turn asks for
// runs once, at the release.
func (ep *Endpoint) join() {
	if !ep.inTurn {
		ep.inTurn = true
		ep.conn.Hold()
		ep.shard.turn = append(ep.shard.turn, ep)
	}
}

// deliver hands one datagram to the endpoint's connection, held for the
// turn. Servers resolve the interface index per datagram.
func (ep *Endpoint) deliver(rp *rawPacket) {
	ep.join()
	idx := rp.sock
	if !ep.conn.IsClient() {
		idx = ep.learnPeer(rp.from)
	}
	ep.conn.HandleDatagram(ep.env.Now(), idx, rp.buf)
}

// publish copies the connection's state into the snapshot the value
// readers see.
func (ep *Endpoint) publish() {
	s := snapshot{
		stats:       ep.conn.Stats(),
		state:       ep.conn.StateName(),
		established: ep.conn.Established(),
		terminated:  ep.conn.Terminated(),
		card:        ep.scorecard(),
	}
	s.openSend, s.openRecv = ep.conn.OpenStreams()
	ep.snapMu.Lock()
	ep.snap = s
	ep.queued.Add(-ep.applied)
	ep.applied = 0
	if ep.drained != nil {
		close(ep.drained)
		ep.drained = nil
	}
	ep.snapMu.Unlock()
}

// snapshot returns the last published snapshot.
func (ep *Endpoint) snapshot() snapshot {
	ep.snapMu.Lock()
	defer ep.snapMu.Unlock()
	return ep.snap
}

// shut closes the endpoint on its shard, in a turn it has joined. What the
// turn queued leaves before CONNECTION_CLOSE; the connection's scorecard is
// emitted (conn:scorecard) and merged into the registry once, so /metrics
// served after shutdown carries the session rollup; the sockets are closed,
// and a private group with them. The turn's end publishes the last snapshot
// and closes done.
func (ep *Endpoint) shut() {
	ep.closed = true
	ep.conn.Release()
	card := ep.scorecard()
	ep.trace.Origin(ep.label).Scorecard(ep.env.Now(), &card)
	ep.trace.Registry().MergeScorecard(&card)
	ep.conn.Close(0, "closed")
	for _, s := range ep.socks {
		s.Close()
	}
	if ep.ownedLoops != nil {
		ep.ownedLoops.Close()
	}
}

// readLoop pumps one socket into the endpoint's shard. It owns no
// connection state: each datagram lands in a buffer from readBufs and is
// posted over the handoff channel; the shard gives the buffer back after
// delivery (see rawPacket). The steady state allocates nothing: the source
// address comes back by value.
func (ep *Endpoint) readLoop(netIdx int, sock *net.UDPConn) {
	sh := ep.shard
	for {
		buf := readBufs.get()[:]
		n, from, err := sock.ReadFromUDPAddrPort(buf)
		if err != nil {
			readBufs.put(buf)
			return // socket closed by Endpoint.Close
		}
		select {
		case sh.in <- rawPacket{ep: ep, sock: netIdx, from: unmapped(from), buf: buf[:n]}:
		case <-ep.done:
			readBufs.put(buf)
			return
		}
	}
}

// learnPeer maps a client source address to a stable interface index,
// appending new addresses as new paths. All of them are answered from the
// server's one socket (SendBatch).
func (ep *Endpoint) learnPeer(from netip.AddrPort) int {
	for i, p := range ep.peer {
		if p == from {
			return i
		}
	}
	ep.peer = append(ep.peer, from)
	return len(ep.peer) - 1
}

// unmapped returns ap with an IPv4-mapped IPv6 address turned back into the
// IPv4 one, the form the peer table and rawPacket.from hold: a dual-stack
// socket reports an IPv4 source mapped, and the two must compare equal.
func unmapped(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// OpenStream opens a new locally initiated stream. It reserves the stream's
// ID at once and never waits: the stream comes into being on the shard with
// the first op on it.
func (ep *Endpoint) OpenStream() Stream {
	return Stream{ep: ep, id: transport.LocalStreamID(ep.client, ep.opened.Add(1)-1)}
}

// StreamFor returns the send half of a stream ID — how a server responds on
// a client-initiated stream.
func (ep *Endpoint) StreamFor(id uint64) Stream { return Stream{ep: ep, id: id} }

// Established reports handshake completion.
func (ep *Endpoint) Established() bool { return ep.snapshot().established }

// Stats returns the transport counters as of the end of the last shard
// turn that touched the connection.
func (ep *Endpoint) Stats() transport.ConnStats { return ep.snapshot().stats }

// StateName returns the connection lifecycle state.
func (ep *Endpoint) StateName() string { return ep.snapshot().state }

// Terminated reports terminal closure.
func (ep *Endpoint) Terminated() bool { return ep.snapshot().terminated }

// TraceBytes copies the NDJSON trace accumulated so far (nil when no Tracer
// was configured — the internal flight trace keeps a ring, not a stream).
// It waits for the endpoint's shard to take the copy, so it must not be
// called from a callback.
func (ep *Endpoint) TraceBytes() []byte {
	if !ep.userTrace {
		return nil
	}
	var out []byte
	ep.onShard(func() { out = append([]byte(nil), ep.trace.Bytes()...) })
	return out
}

// The open-stream gauges' labeled names, derived once: With allocates.
var (
	metricOpenSendStreams = obs.MetricOpenStreams.With("half", "send")
	metricOpenRecvStreams = obs.MetricOpenStreams.With("half", "recv")
)

// Metrics returns the endpoint's metric registry (the trace's registry; an
// internal one when no Tracer was configured), with the stream-buffer and
// open-stream gauges brought up to the last snapshot — the same numbers
// ConnStats, Conn.OpenStreams and /debug report. The registry is internally
// synchronized, so callers may read it from any goroutine.
func (ep *Endpoint) Metrics() *obs.Registry {
	s := ep.snapshot()
	reg := ep.trace.Registry()
	reg.Gauge(obs.MetricSendBufferedBytes).Set(float64(s.stats.SendBufferedBytes))
	reg.Gauge(obs.MetricSendBufferedPeak).Set(float64(s.stats.SendBufferedPeak))
	reg.Gauge(obs.MetricRecvBufferedBytes).Set(float64(s.stats.RecvBufferedBytes))
	reg.Gauge(obs.MetricRecvBufferedPeak).Set(float64(s.stats.RecvBufferedPeak))
	reg.Gauge(metricOpenSendStreams).Set(float64(s.openSend))
	reg.Gauge(metricOpenRecvStreams).Set(float64(s.openRecv))
	return reg
}

// Scorecard returns the connection's per-session QoE rollup as of the last
// snapshot: the transport base (lane attribution, per-path
// utilization/loss) plus Alg. 1 activity when this side runs the
// controller. The player-level fields (RCT, rebuffer, Completed) are the
// application's to fill — a live endpoint moves bytes, not video.
func (ep *Endpoint) Scorecard() obs.Scorecard { return ep.snapshot().card }

// scorecard composes the rollup on the shard.
func (ep *Endpoint) scorecard() obs.Scorecard {
	card := ep.conn.Scorecard()
	if c := ep.ctrl; c != nil {
		card.QoEDecisions, card.QoEEnables = c.Stats()
		card.QoETransitions = c.Transitions()
	}
	return card
}

// LocalAddrs returns the bound socket addresses.
func (ep *Endpoint) LocalAddrs() []net.Addr {
	out := make([]net.Addr, len(ep.socks))
	for i, s := range ep.socks {
		out[i] = s.LocalAddr()
	}
	return out
}

// Close shuts the endpoint down. It posts the close to the endpoint's shard
// and returns at once, so a callback may call it. The shard applies it after
// every op posted before it, so bytes written before Close leave ahead of
// CONNECTION_CLOSE; the first Close emits the connection's scorecard
// (conn:scorecard) and merges it into the registry, so /metrics served
// after shutdown carries the session rollup. StateName reports the close
// once it is applied.
func (ep *Endpoint) Close() { ep.post(op{kind: opCloseEndpoint, ep: ep}) }
