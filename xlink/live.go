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
	"repro/internal/wire"
)

// realEnv adapts wall-clock time and time.AfterFunc timers to the
// transport's event-driven environment. All connection entry points are
// serialized by a mutex owned by the Endpoint; user callbacks are deferred
// until the lock is released (see Endpoint.flushCallbacks) so they can
// safely call back into the endpoint. This is the real-time boundary of
// the deterministic core: time flows in only through sim.RealClock and the
// recycled timers below.
type realEnv struct {
	clock *sim.RealClock
	ep    *Endpoint
}

// Now implements transport.Env.
func (e realEnv) Now() time.Duration { return e.clock.Now() }

// Schedule implements transport.Env with a timer off the endpoint's free list,
// restarted for at (DESIGN.md §20). Like every transport call it runs under
// ep.mu.
func (e realEnv) Schedule(at time.Duration, fn func(now time.Duration)) func() {
	ep := e.ep
	// Free list empty: one timer per high-water mark of timers armed at once.
	if len(ep.timerFree) == 0 {
		ep.timerFree = append(ep.timerFree, newLiveTimer(ep))
	}
	n := len(ep.timerFree) - 1
	lt := ep.timerFree[n]
	ep.timerFree[n] = nil
	ep.timerFree = ep.timerFree[:n]
	lt.fn, lt.at = fn, at
	lt.start(at - e.Now())
	return lt.cancel
}

// liveTimer is one recyclable timer of an endpoint: a time.Timer made once and
// restarted with Reset for each arm it serves. fn is the armed function, nil
// while the timer is on the free list; fn and at are guarded by ep.mu. A
// cancelled arm's callback may still run (time.Timer.Stop cannot always
// prevent it) — possibly after the timer was armed again — so fire runs fn
// only if the arm is current and its instant has come.
type liveTimer struct {
	ep     *Endpoint
	t      *time.Timer
	fn     func(now time.Duration)
	at     time.Duration
	cancel func() // lt.stop, bound once: what Schedule hands out
}

func newLiveTimer(ep *Endpoint) *liveTimer {
	lt := &liveTimer{ep: ep}
	lt.cancel = lt.stop
	//xlinkvet:ignore determinism — real-time adapter: timers must fire on the wall clock
	lt.t = time.AfterFunc(time.Hour, lt.fire)
	lt.t.Stop()
	return lt
}

// start (re)starts the timer to fire after d.
func (lt *liveTimer) start(d time.Duration) {
	if d < 0 {
		d = 0
	}
	lt.t.Reset(d)
}

// fire is the time.AfterFunc callback. Timer callbacks are the transport's
// own event-loop turns: they run under the endpoint lock like every other
// entry point, and anything user-visible they produce is deferred through
// cbQ. One that fires while the connection is held — a wake posted, or a
// shard turn open — joins that turn: its send pass runs at the release.
func (lt *liveTimer) fire() {
	ep := lt.ep
	ep.mu.Lock()
	now := ep.env.Now()
	// With fn nil this is a cancelled arm's callback and the timer is free.
	if fn := lt.fn; fn != nil {
		if now < lt.at {
			// The callback of an arm cancelled and re-armed for later (or
			// an early wake-up): wait for the current arm's instant.
			lt.start(lt.at - now)
		} else {
			lt.fn = nil
			ep.timerFree = append(ep.timerFree, lt)
			fn(now) //xlinkvet:ignore lockheld — transport-internal timer body, not a user callback
		}
	}
	ep.mu.Unlock()
	ep.flushCallbacks()
}

// stop cancels the armed fn and frees the timer. The transport calls it under
// ep.mu, at most once per arm and never after fn ran (transport.Env).
func (lt *liveTimer) stop() {
	armed := lt.fn != nil
	assert.That(armed, "live timer cancelled twice or after it fired")
	if !armed {
		return // already free: a second entry on the free list would serve two arms
	}
	lt.t.Stop()
	lt.fn = nil
	lt.ep.timerFree = append(lt.ep.timerFree, lt)
}

// Endpoint is a live XLINK endpoint over real UDP sockets: a server with
// one socket, or a multi-homed client with one socket per interface.
type Endpoint struct {
	mu   sync.Mutex
	env  realEnv
	conn *transport.Conn // xlinkvet:guardedby mu
	// socks are the bound sockets: a client's one per interface, a server's
	// one, which answers every path.
	// xlinkvet:guardedby mu
	socks []*net.UDPConn
	// xlinkvet:guardedby mu
	peer []netip.AddrPort // per netIdx: where to send (client side / learned), unmapped
	// trace is always non-nil once the endpoint is published: the user's
	// Tracer when one was configured, otherwise an internal ring-only
	// flight trace — either way with a flight recorder attached, so a live
	// connection keeps a last-N event ring for anomaly post-mortems
	// (DESIGN.md §14). Emitted to under mu.
	// xlinkvet:guardedby mu
	trace *obs.Trace
	// userTrace records whether cfg.Tracer was supplied; TraceBytes keeps
	// its nil-return contract when it was not.
	userTrace bool
	// label is this side's trace origin ("client" or "server").
	label string
	// ctrl is the Alg. 1 controller when the scheme wires one (server
	// side); driven by the transport under mu.
	ctrl *qoe.Controller // xlinkvet:guardedby mu
	// closed gates the one-shot scorecard emission at Close.
	closed bool // xlinkvet:guardedby mu
	done   chan struct{}
	// held records that the endpoint holds its connection (transport
	// Conn.Hold) for a shard turn: the one open now, or the one a user call
	// posted a wake for. The turn's end releases it (DESIGN.md §16).
	held bool // xlinkvet:guardedby mu
	// cbQ holds user callbacks raised while the lock was held; they run
	// after release so they may re-enter the endpoint. It is borrowed from
	// batches while callbacks are queued and nil otherwise, so an idle
	// endpoint holds no queue. flushing marks the goroutine currently
	// draining cbQ so a second flusher (every shard turn, the timer
	// goroutines, Dial and Close flush) cannot pop a later callback and run it
	// ahead of an earlier one — user callbacks must observe stream data in
	// delivery order.
	cbQ      *callbackBatch // xlinkvet:guardedby mu
	flushing bool           // xlinkvet:guardedby mu
	// The user's callbacks, set by applyLive before the endpoint is
	// published and read-only after.
	onStreamData    func(now time.Duration, s *RecvStream, data []byte, fin bool)
	onStreamOpen    func(now time.Duration, s *RecvStream)
	onHandshakeDone func(now time.Duration)
	// timerFree holds the transport's timers not armed now (see realEnv);
	// like every Env call it is touched under mu.
	timerFree []*liveTimer
	// shard is the event loop this endpoint's packets are processed on,
	// assigned once at creation (before any readLoop starts) and immutable
	// after. ownedLoops is the private single-shard group created when the
	// user supplied no LiveConfig.Loops; Close signals it.
	shard      *eventLoopShard
	ownedLoops *EventLoopGroup
}

// cbKind says which user callback a pendingCallback runs.
type cbKind uint8

const (
	cbStreamData cbKind = iota
	cbStreamOpen
	cbHandshakeDone
)

// pendingCallback is one deferred user callback, held as a value so that
// queuing it allocates nothing. A data callback's bytes are
// arena[off:off+n] of its batch.
type pendingCallback struct {
	kind   cbKind
	fin    bool
	now    time.Duration
	s      *RecvStream
	off, n int
}

// callbackBatch is an endpoint's queue while it is not empty: the callbacks
// in the order raised, and the bytes of the data ones, copied out of the
// transport's buffers, which are valid for the transport's call only.
type callbackBatch struct {
	q     []pendingCallback
	arena []byte
}

// batches lends the endpoints their callback batches.
var batches sync.Pool

// push queues cb, with a copy of data, on b — on a batch from the pool when
// b is nil — and returns the batch.
func (b *callbackBatch) push(cb pendingCallback, data []byte) *callbackBatch {
	if b == nil {
		b, _ = batches.Get().(*callbackBatch)
		// Pool empty: one batch per endpoint with callbacks queued at once.
		if b == nil {
			b = new(callbackBatch)
		}
	}
	cb.off, cb.n = len(b.arena), len(data)
	b.arena = append(b.arena, data...)
	b.q = append(b.q, cb)
	return b
}

// queueStreamData is the OnStreamData applyLive hands the transport. The
// transport's data is valid for this call only, and the user's callback runs
// after it returns, so push copies the bytes into the batch.
func (ep *Endpoint) queueStreamData(now time.Duration, s *RecvStream, data []byte, fin bool) {
	ep.enqueue(pendingCallback{kind: cbStreamData, now: now, s: s, fin: fin}, data)
}

// queueStreamOpen is the OnStreamOpen applyLive hands the transport.
func (ep *Endpoint) queueStreamOpen(now time.Duration, s *RecvStream) {
	ep.enqueue(pendingCallback{kind: cbStreamOpen, now: now, s: s}, nil)
}

// queueHandshakeDone is the OnHandshakeDone applyLive hands the transport.
func (ep *Endpoint) queueHandshakeDone(now time.Duration) {
	ep.enqueue(pendingCallback{kind: cbHandshakeDone, now: now}, nil)
}

// enqueue defers a user callback; the endpoint lock must be held. It is
// invoked only from the transport callbacks installed by applyLive, and the
// transport itself only runs under ep.mu (every entry point in this file
// locks before calling in), so the guard holds — but the proof is one hop
// beyond what the analyzer's caller credit covers.
func (ep *Endpoint) enqueue(cb pendingCallback, data []byte) {
	ep.cbQ = ep.cbQ.push(cb, data) //xlinkvet:ignore guardedby — transport-invoked under ep.mu; see comment above
}

// flushCallbacks runs deferred user callbacks outside the lock, in order.
// Only one goroutine drains at a time: a concurrent caller returns
// immediately and leaves its callbacks to the active drainer, which loops
// until the queue is empty. Without that exclusivity two flushers could
// each pop a callback and race to run them, reordering OnStreamData
// deliveries under scheduler pressure.
func (ep *Endpoint) flushCallbacks() {
	ep.mu.Lock()
	if ep.flushing {
		ep.mu.Unlock()
		return
	}
	ep.flushing = true
	// Popped by index under the lock, since an enqueue may append while a
	// callback runs. Entries are cleared as they are taken so a finished
	// stream is not pinned by the array. A data callback's bytes stay put
	// while it runs: the arena is only appended to (a reallocation leaves
	// them in the old array). The batch goes back to the pool once empty.
	if b := ep.cbQ; b != nil {
		for i := 0; i < len(b.q); i++ {
			cb := b.q[i]
			b.q[i] = pendingCallback{}
			var data []byte
			if cb.n > 0 {
				data = b.arena[cb.off : cb.off+cb.n : cb.off+cb.n]
			}
			ep.mu.Unlock()
			ep.run(cb, data)
			ep.mu.Lock()
		}
		b.q, b.arena = b.q[:0], b.arena[:0]
		batches.Put(b)
		ep.cbQ = nil
	}
	ep.flushing = false
	ep.mu.Unlock()
}

// run calls the user callback cb names, with data for a data callback.
func (ep *Endpoint) run(cb pendingCallback, data []byte) {
	switch cb.kind {
	case cbStreamData:
		ep.onStreamData(cb.now, cb.s, data, cb.fin)
	case cbStreamOpen:
		ep.onStreamOpen(cb.now, cb.s)
	case cbHandshakeDone:
		ep.onHandshakeDone(cb.now)
	}
}

// Stream is the sending half of a stream on a live endpoint. It wraps the
// transport stream with the endpoint lock, making it safe to use from any
// goroutine — the transport itself is single-threaded by design. It is a
// handle of two pointers, passed by value, so opening a stream costs the
// transport's stream and nothing more. See the internal documentation for
// WriteFrame's video-frame priority semantics.
type Stream struct {
	ep *Endpoint
	s  *transport.SendStream // xlinkvet:guardedby ep.mu
}

// ID returns the stream ID.
func (st Stream) ID() uint64 {
	st.ep.mu.Lock()
	defer st.ep.mu.Unlock()
	return st.s.ID()
}

// Write queues data for sending. The data leaves at the end of the shard turn
// the call joins (see joinTurnLocked), together with whatever else the turn
// queued, not before Write returns.
//
// The lockheld suppressions on the transport calls below (and in Close,
// AbandonPath, readLoop, Dial and Endpoint.Close) share one justification:
// the endpoint deliberately drives the single-threaded transport under
// ep.mu. Callbacks the transport may invoke on that path are either
// deferred through cbQ by the applyLive wrappers (OnStreamData,
// OnStreamOpen, OnHandshakeDone) or synchronous pure providers
// (QoEProvider, CCFactory) that do not re-enter the endpoint; OnClosed is
// never installed in live mode.
func (st Stream) Write(data []byte) {
	st.ep.mu.Lock()
	st.ep.joinTurnLocked()
	st.s.Write(data) //xlinkvet:ignore lockheld — transport driven under ep.mu by design; see Write doc
	st.ep.mu.Unlock()
}

// WriteFrame queues one video frame with a priority.
func (st Stream) WriteFrame(data []byte, prio int) {
	st.ep.mu.Lock()
	st.ep.joinTurnLocked()
	st.s.WriteFrame(data, prio) //xlinkvet:ignore lockheld — transport driven under ep.mu by design; see Write doc
	st.ep.mu.Unlock()
}

// SetPriority sets the stream priority.
func (st Stream) SetPriority(p int) {
	st.ep.mu.Lock()
	st.s.SetPriority(p)
	st.ep.mu.Unlock()
}

// Close marks the stream finished after all queued data. Like Write, it
// joins a shard turn: a Write and a Close made in a row leave together.
func (st Stream) Close() {
	st.ep.mu.Lock()
	st.ep.joinTurnLocked()
	st.s.Close() //xlinkvet:ignore lockheld — transport driven under ep.mu by design; see Write doc
	st.ep.mu.Unlock()
}

// Reset abandons the stream with an error code.
func (st Stream) Reset(code uint64) {
	st.ep.mu.Lock()
	st.ep.joinTurnLocked()
	st.s.Reset(code) //xlinkvet:ignore lockheld — transport driven under ep.mu by design; see Write doc
	st.ep.mu.Unlock()
}

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
	// OnStreamData receives in-order stream data. data is valid for the call
	// only: the endpoint reuses its buffer once the callback returns, so a
	// callback that keeps bytes copies them. What a callback writes on its
	// endpoint leaves after it returns, with the rest of its shard turn.
	OnStreamData func(now time.Duration, s *RecvStream, data []byte, fin bool)
	// OnStreamOpen announces peer-initiated streams.
	OnStreamOpen func(now time.Duration, s *RecvStream)
	// OnHandshakeDone fires once the connection is established.
	OnHandshakeDone func(now time.Duration)
	// QoEProvider supplies client player feedback.
	QoEProvider func() QoESignal
	// Tracer, when set, collects the connection's structured event stream.
	// The trace is driven under the endpoint mutex (obs.Trace itself is
	// goroutine-confined; only its Registry is internally synchronized);
	// read it with Endpoint.TraceBytes, which snapshots under the same
	// lock. Timestamps come from the endpoint's monotonic clock, so live
	// traces are time-consistent but — unlike sim traces — not
	// byte-reproducible across runs. nil skips the NDJSON stream but not
	// the flight recorder: the endpoint always keeps a last-N event ring
	// and a metric registry (see DebugHandler).
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
	ep := newEndpoint([]*net.UDPConn{sock})
	ep.attachLoops(cfg.Loops)
	x := core.New(cfg.Scheme, cfg.Options)
	tcfg := x.ServerConfig(cfg.Seed)
	tr := applyLive(ep, &tcfg, cfg)
	conn := transport.NewConn(ep.env, ep, tcfg)
	ep.mu.Lock()
	ep.trace = tr
	ep.userTrace = cfg.Tracer != nil
	ep.ctrl = x.Controller
	ep.conn = conn
	ep.mu.Unlock()
	go ep.readLoop(0, sock)
	return ep, nil
}

// Dial starts a live client endpoint connecting every local interface
// (one "ifaceAddrs" local bind per path, which may be ":0") to the remote
// server.
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
	ep := newEndpoint(socks)
	ep.attachLoops(cfg.Loops)
	peers := make([]netip.AddrPort, 0, len(socks))
	for range socks {
		peers = append(peers, unmapped(raddr.AddrPort()))
	}
	x := core.New(cfg.Scheme, cfg.Options)
	tcfg := x.ClientConfig(cfg.Seed)
	tcfg.IsClient = true
	tr := applyLive(ep, &tcfg, cfg)
	conn := transport.NewConn(ep.env, ep, tcfg)
	for i, tech := range techs {
		conn.AddInterface(i, tech)
	}
	ep.mu.Lock()
	ep.trace = tr
	ep.userTrace = cfg.Tracer != nil
	ep.ctrl = x.Controller
	ep.peer = peers
	ep.conn = conn
	err = conn.Start() //xlinkvet:ignore lockheld — transport driven under ep.mu by design; see Stream.Write doc
	ep.mu.Unlock()
	ep.flushCallbacks()
	if err != nil {
		ep.Close()
		return nil, err
	}
	for i, sock := range socks {
		// One reader per dialed interface: readLoop exits when Close closes its
		// socket and ep.done.
		go ep.readLoop(i, sock)
	}
	return ep, nil
}

func newEndpoint(socks []*net.UDPConn) *Endpoint {
	ep := &Endpoint{
		socks: socks,
		peer:  make([]netip.AddrPort, 0, len(socks)),
		done:  make(chan struct{}),
	}
	ep.env = realEnv{clock: sim.NewRealClock(), ep: ep}
	return ep
}

// attachLoops binds the endpoint to a shard of the given group, creating a
// private single-shard group when the user supplied none. Must run before
// any readLoop starts (shard is immutable after publication).
func (ep *Endpoint) attachLoops(g *EventLoopGroup) {
	if g == nil {
		g = NewEventLoopGroup(1)
		ep.ownedLoops = g
	}
	ep.shard = g.attach()
}

// applyLive copies the user callbacks into the transport config, wrapping
// each so it is deferred past the endpoint lock, and resolves the trace:
// the user's Tracer or an internal ring-only flight trace, either way with
// a flight recorder attached. It returns the trace for Listen/Dial to
// assign under the lock; it must run before the endpoint is published.
func applyLive(ep *Endpoint, tcfg *transport.Config, cfg LiveConfig) *obs.Trace {
	if len(cfg.PSK) > 0 {
		tcfg.PSK = cfg.PSK
	}
	ep.onStreamData, ep.onStreamOpen, ep.onHandshakeDone = cfg.OnStreamData, cfg.OnStreamOpen, cfg.OnHandshakeDone
	if cfg.OnStreamData != nil {
		tcfg.OnStreamData = ep.queueStreamData
	}
	if cfg.OnStreamOpen != nil {
		tcfg.OnStreamOpen = ep.queueStreamOpen
	}
	if cfg.OnHandshakeDone != nil {
		tcfg.OnHandshakeDone = ep.queueHandshakeDone
	}
	if cfg.QoEProvider != nil {
		// The provider is a pure read; it runs inline (no re-entrancy).
		tcfg.QoEProvider = func() wire.QoESignal { return cfg.QoEProvider() }
	}
	label := "server"
	if tcfg.IsClient {
		label = "client"
	}
	ep.label = label
	tr := cfg.Tracer
	if tr == nil {
		tr = obs.NewFlightTrace("live-"+label, 0)
	}
	tr.AttachFlightRecorder(0)
	tcfg.Tracer = tr.Origin(label)
	return tr
}

// SendBatch implements transport.DatagramSender over the sockets: one write
// per packet on the interface's socket (the stdlib exposes no sendmmsg, so
// the syscall batching point stays behind this single seam), returning how
// many were written. The transport-side win — one virtual dispatch and one
// flush per batch — is independent of the syscall count.
//
// The transport only invokes it while the endpoint holds ep.mu (every entry
// point in this file locks before driving the connection), so the guarded
// fields are safe to read here — taking the lock again would self-deadlock.
// That inversion (callee relies on its caller's caller holding the lock) is
// beyond the analyzer's one-level caller credit, hence the suppression.
func (ep *Endpoint) SendBatch(netIdx int, pkts [][]byte) int {
	socks, peer := ep.socks, ep.peer //xlinkvet:ignore guardedby — invoked by the transport under ep.mu; see doc comment
	if netIdx >= len(peer) || !peer[netIdx].IsValid() {
		return 0
	}
	// A client sends on the interface's socket; a server has one socket.
	sock := socks[min(netIdx, len(socks)-1)]
	sent := 0
	for _, d := range pkts {
		if _, err := sock.WriteToUDPAddrPort(d, peer[netIdx]); err == nil {
			sent++
		}
	}
	return sent
}

// readBufSize fits any datagram the transport seals (MaxDatagramSize plus
// headroom); every read buffer is this large.
const readBufSize = 2048

// readBufs is the process-wide pool of socket read buffers, held as
// *[readBufSize]byte so that Put boxes nothing (DESIGN.md §19, the pool
// rule). A reader takes one per datagram and the shard gives it back once
// the batch was delivered; the collector empties the pool, so an idle group
// holds none.
var readBufs sync.Pool

// getReadBuf returns a whole read buffer, reused if the pool has one.
func getReadBuf() []byte {
	b, _ := readBufs.Get().(*[readBufSize]byte)
	// Pool empty: one buffer per datagram in flight at the high-water mark since the last collection.
	if b == nil {
		b = new([readBufSize]byte)
	}
	return b[:]
}

// putReadBuf gives a read buffer back to the pool. Under xlinkdebug it is
// overwritten first, so a consumer that kept the datagram past
// HandleDatagramBatch reads 0xdb instead of the next datagram.
func putReadBuf(buf []byte) {
	whole := (*[readBufSize]byte)(buf[:readBufSize])
	if assert.Enabled {
		for i := range whole {
			whole[i] = 0xdb
		}
	}
	readBufs.Put(whole)
}

// liveBatchSize caps how many raw packets one shard turn drains into a
// single locked HandleDatagramBatch pass.
const liveBatchSize = 16

// rawPacket is one datagram handed from a socket reader to its endpoint's
// shard. buf is a read buffer from readBufs: the shard gives it back after
// the batch is delivered, and the transport's receive boundary (see
// transport.DatagramSender's ownership note) guarantees the connection does
// not retain it past HandleDatagramBatch. A rawPacket with no buf is a wake:
// a user call asking for a turn of its endpoint (joinTurnLocked).
type rawPacket struct {
	ep   *Endpoint
	sock int // receiving socket's netIdx (client); servers resolve per packet
	from netip.AddrPort
	buf  []byte
}

// EventLoopGroup shards live-endpoint packet processing across per-core
// event loops. Socket readers never touch a connection: they post raw
// packets to their endpoint's shard over a channel (the lock-free handoff),
// and the shard goroutine drains up to liveBatchSize packets per turn,
// delivering each endpoint's run as one HandleDatagramBatch under one lock
// acquisition. Endpoints attach round-robin at creation, so all traffic for
// a connection stays on one shard and batches form naturally under load.
//
// A group may be shared by many endpoints (LiveConfig.Loops); endpoints
// without one get a private single-shard group. Close the endpoints first,
// then the group: Close signals the shard goroutines to exit and Wait joins
// them.
type EventLoopGroup struct {
	shards []*eventLoopShard
	next   atomic.Uint64
	wg     sync.WaitGroup
	done   chan struct{}
	closed atomic.Bool
}

// eventLoopShard is one event loop: its inbound raw-packet channel,
// written by socket readers and drained only by the shard goroutine. The
// channel is never closed — lifecycle runs through the group's done channel.
type eventLoopShard struct {
	in chan rawPacket
}

// NewEventLoopGroup starts a group of n shard goroutines (n <= 0 means one
// per CPU core).
func NewEventLoopGroup(n int) *EventLoopGroup {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	g := &EventLoopGroup{done: make(chan struct{})}
	for i := 0; i < n; i++ {
		sh := &eventLoopShard{in: make(chan rawPacket, 4*liveBatchSize)}
		g.shards = append(g.shards, sh)
		g.wg.Add(1)
		// One goroutine per shard, joined by Close/Wait via g.done and g.wg.
		go g.run(sh)
	}
	return g
}

// Close signals every shard goroutine to exit after its current batch. It
// does not wait (an endpoint callback may Close re-entrantly from a shard
// goroutine); use Wait to join.
func (g *EventLoopGroup) Close() {
	if g.closed.CompareAndSwap(false, true) {
		close(g.done)
	}
}

// Wait joins the shard goroutines after Close. Must not be called from a
// shard-delivered callback (it would wait on itself).
func (g *EventLoopGroup) Wait() { g.wg.Wait() }

// attach assigns the next endpoint to a shard, round-robin.
func (g *EventLoopGroup) attach() *eventLoopShard {
	return g.shards[int(g.next.Add(1)-1)%len(g.shards)]
}

// run is one shard's event loop: block for the first packet of a turn,
// opportunistically drain whatever else is already queued (up to
// liveBatchSize), and deliver the turn as per-endpoint batches. This is the
// per-batch hot loop: its steady state allocates nothing — buffers come
// from readBufs and the batch scratch is reused across turns.
func (g *EventLoopGroup) run(sh *eventLoopShard) {
	defer g.wg.Done()
	batch := make([]rawPacket, 0, liveBatchSize)
	pkts := make([][]byte, 0, liveBatchSize)
	for {
		select {
		case <-g.done:
			return
		case rp := <-sh.in:
			batch = append(batch[:0], rp)
		drain:
			for len(batch) < liveBatchSize {
				select {
				case rp2 := <-sh.in:
					batch = append(batch, rp2)
				default:
					break drain
				}
			}
			dispatch(batch, &pkts)
		}
	}
}

// dispatch splits a turn's packets into contiguous per-endpoint runs,
// delivers each run under that endpoint's lock, and gives the read buffers
// back.
func dispatch(batch []rawPacket, pkts *[][]byte) {
	i := 0
	for i < len(batch) {
		ep := batch[i].ep
		j := i + 1
		for j < len(batch) && batch[j].ep == ep {
			j++
		}
		ep.deliverBatch(batch[i:j], pkts)
		i = j
	}
	for k := range batch {
		if batch[k].buf != nil {
			putReadBuf(batch[k].buf)
		}
		batch[k] = rawPacket{}
	}
}

// deliverBatch runs one turn of an endpoint (DESIGN.md §16): it holds the
// connection, ingests the run of raw packets under a single lock
// acquisition — contiguous same-interface packets as one HandleDatagramBatch
// call, wakes skipped — runs the user callbacks the packets raised, and then
// releases the hold. The send pass that every packet, callback and user call
// in the turn asked for runs once, at the release, so an ACK, the response a
// callback wrote and its FIN leave in one datagram. Servers resolve the
// interface index per packet (learnPeerLocked needs ep.mu, which is held
// here).
func (ep *Endpoint) deliverBatch(run []rawPacket, pkts *[][]byte) {
	ep.mu.Lock()
	if !ep.held {
		ep.held = true
		ep.conn.Hold() //xlinkvet:ignore lockheld — transport driven under ep.mu by design; see Stream.Write doc
	}
	now := ep.env.Now()
	isClient := ep.conn.IsClient()
	for i := 0; i < len(run); {
		if run[i].buf == nil {
			i++ // a wake: the turn itself is what it asked for
			continue
		}
		idx := run[i].sock
		if !isClient {
			idx = ep.learnPeerLocked(run[i].from)
		}
		ps := append((*pkts)[:0], run[i].buf)
		j := i + 1
		for ; j < len(run); j++ {
			if run[j].buf == nil {
				continue
			}
			jdx := run[j].sock
			if !isClient {
				jdx = ep.learnPeerLocked(run[j].from)
			}
			if jdx != idx {
				break
			}
			ps = append(ps, run[j].buf)
		}
		ep.conn.HandleDatagramBatch(now, idx, ps) //xlinkvet:ignore lockheld — transport driven under ep.mu by design; see Stream.Write doc
		*pkts = ps[:0]
		i = j
	}
	ep.mu.Unlock()
	ep.flushCallbacks()
	ep.mu.Lock()
	ep.releaseLocked() //xlinkvet:ignore lockheld — transport driven under ep.mu by design; see Stream.Write doc
	ep.mu.Unlock()
}

// joinTurnLocked makes the user call about to drive the connection part of a
// shard turn, so that its send pass runs once, at the turn's release, on the
// shard goroutine. A call made while a turn is open — a callback's write —
// or while a posted wake is pending joins that turn. Otherwise the call holds
// the connection and posts a wake, a rawPacket with no buffer, to the
// endpoint's shard: it costs a channel slot and no allocation. The post never
// blocks: the caller may be the shard's own goroutine (a callback writing to
// another endpoint on the same shard), which a full channel would deadlock,
// so a full channel leaves the call unheld, and it sends before it returns.
// A closed endpoint takes no hold: its shard may be gone.
func (ep *Endpoint) joinTurnLocked() {
	if ep.held || ep.closed {
		return
	}
	select {
	case ep.shard.in <- rawPacket{ep: ep}:
		ep.held = true
		ep.conn.Hold() //xlinkvet:ignore lockheld — transport driven under ep.mu by design; see Stream.Write doc
	default:
	}
}

// releaseLocked ends the endpoint's hold, if it has one, running the send
// pass the turn owes.
func (ep *Endpoint) releaseLocked() {
	if ep.held {
		ep.held = false
		ep.conn.Release() //xlinkvet:ignore lockheld — transport driven under ep.mu by design; see Stream.Write doc
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
		buf := getReadBuf()
		n, from, err := sock.ReadFromUDPAddrPort(buf)
		if err != nil {
			putReadBuf(buf)
			return // socket closed by Endpoint.Close
		}
		select {
		case sh.in <- rawPacket{ep: ep, sock: netIdx, from: unmapped(from), buf: buf[:n]}:
		case <-ep.done:
			putReadBuf(buf)
			return
		}
	}
}

// learnPeerLocked maps a client source address to a stable interface
// index, appending new addresses as new paths. All of them are answered
// from the server's one socket (SendBatch).
func (ep *Endpoint) learnPeerLocked(from netip.AddrPort) int {
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

// OpenStream opens a new stream.
func (ep *Endpoint) OpenStream() Stream {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return Stream{ep: ep, s: ep.conn.OpenStream()}
}

// StreamFor returns (creating if needed) the send half of a stream ID —
// how a server responds on a client-initiated stream.
func (ep *Endpoint) StreamFor(id uint64) Stream {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return Stream{ep: ep, s: ep.conn.Stream(id)}
}

// AbandonPath closes one path of a live connection explicitly — e.g. the
// app detected that Wi-Fi was switched off (Sec 6, "Path close").
func (ep *Endpoint) AbandonPath(id uint64) {
	ep.mu.Lock()
	ep.joinTurnLocked()
	ep.conn.AbandonPath(id) //xlinkvet:ignore lockheld — transport driven under ep.mu by design; see Stream.Write doc
	ep.mu.Unlock()
}

// Established reports handshake completion.
func (ep *Endpoint) Established() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.conn.Established()
}

// Stats returns a copy of the transport counters, taken under the endpoint
// lock. The transport.Conn itself is lock-free and event-loop-confined;
// every cross-goroutine read must go through one of these locked accessors
// (the ConnStats value type has no reference fields, so the copy is a
// consistent snapshot).
func (ep *Endpoint) Stats() transport.ConnStats {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.conn.Stats()
}

// StateName returns the connection lifecycle state, read under the lock.
func (ep *Endpoint) StateName() string {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.conn.StateName()
}

// Terminated reports terminal closure, read under the lock.
func (ep *Endpoint) Terminated() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.conn.Terminated()
}

// TraceBytes snapshots the NDJSON trace accumulated so far (nil when no
// Tracer was configured — the internal flight trace keeps a ring, not a
// stream). The copy is taken under the endpoint lock, so it is safe to
// call while the connection is live.
func (ep *Endpoint) TraceBytes() []byte {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !ep.userTrace {
		return nil
	}
	return append([]byte(nil), ep.trace.Bytes()...)
}

// The open-stream gauges' labeled names, derived once: With allocates.
var (
	metricOpenSendStreams = obs.MetricOpenStreams.With("half", "send")
	metricOpenRecvStreams = obs.MetricOpenStreams.With("half", "recv")
)

// Metrics returns the endpoint's metric registry (the trace's registry; an
// internal one when no Tracer was configured), with the stream-buffer and
// open-stream gauges brought up to date — the same numbers ConnStats,
// Conn.OpenStreams and /debug report. The registry is internally
// synchronized, so callers may read it from any goroutine.
func (ep *Endpoint) Metrics() *obs.Registry {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	reg, st := ep.trace.Registry(), ep.conn.Stats()
	reg.Gauge(obs.MetricSendBufferedBytes).Set(float64(st.SendBufferedBytes))
	reg.Gauge(obs.MetricSendBufferedPeak).Set(float64(st.SendBufferedPeak))
	reg.Gauge(obs.MetricRecvBufferedBytes).Set(float64(st.RecvBufferedBytes))
	reg.Gauge(obs.MetricRecvBufferedPeak).Set(float64(st.RecvBufferedPeak))
	send, recv := ep.conn.OpenStreams()
	reg.Gauge(metricOpenSendStreams).Set(float64(send))
	reg.Gauge(metricOpenRecvStreams).Set(float64(recv))
	return reg
}

// Scorecard composes the connection's per-session QoE rollup as of now:
// the transport base (lane attribution, per-path utilization/loss) plus
// Alg. 1 activity when this side runs the controller. The player-level
// fields (RCT, rebuffer, Completed) are the application's to fill — a live
// endpoint moves bytes, not video.
func (ep *Endpoint) Scorecard() obs.Scorecard {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.scorecardLocked()
}

func (ep *Endpoint) scorecardLocked() obs.Scorecard {
	card := ep.conn.Scorecard()
	if c := ep.ctrl; c != nil {
		card.QoEDecisions, card.QoEEnables = c.Stats()
		card.QoETransitions = c.Transitions()
	}
	return card
}

// LocalAddrs returns the bound socket addresses.
func (ep *Endpoint) LocalAddrs() []net.Addr {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	out := make([]net.Addr, len(ep.socks))
	for i, s := range ep.socks {
		out[i] = s.LocalAddr()
	}
	return out
}

// Close shuts the endpoint down. The first Close emits the connection's
// scorecard (conn:scorecard) and merges it into the registry, so /metrics
// served after shutdown carries the session rollup.
func (ep *Endpoint) Close() {
	ep.mu.Lock()
	if ep.conn != nil {
		// What a held call queued leaves before CONNECTION_CLOSE.
		ep.releaseLocked() //xlinkvet:ignore lockheld — transport driven under ep.mu by design; see Stream.Write doc
		if !ep.closed {
			ep.closed = true
			card := ep.scorecardLocked()
			ep.trace.Origin(ep.label).Scorecard(ep.env.Now(), &card) //xlinkvet:ignore lockheld — the live trace is driven under ep.mu by design; see Stream.Write doc
			ep.trace.Registry().MergeScorecard(&card)
		}
		ep.conn.Close(0, "closed") //xlinkvet:ignore lockheld — transport driven under ep.mu by design; see Stream.Write doc
	}
	// Read under the lock: done may be closed by a concurrent Close.
	socks := ep.socks
	select {
	case <-ep.done:
	default:
		close(ep.done)
	}
	ep.mu.Unlock()
	for _, s := range socks {
		s.Close()
	}
	// A privately owned event loop group dies with its endpoint; Close only
	// signals (a user callback may Close re-entrantly from the shard
	// goroutine), the goroutine exits after its current batch.
	if ep.ownedLoops != nil {
		ep.ownedLoops.Close()
	}
	// Like every entry point, run what is still queued — data that arrived
	// before the close — so the batch goes back to the pool now rather than
	// with the endpoint.
	ep.flushCallbacks()
}
