package transport

import (
	"fmt"
	"time"

	"repro/internal/assert"
	"repro/internal/cc"
	"repro/internal/crypto"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// connState tracks the connection lifecycle (DESIGN.md §8): handshake →
// established → closing (we sent CONNECTION_CLOSE and answer stray packets
// with it) or draining (the peer closed; we go silent) → closed (terminal).
type connState int

const (
	stateHandshake connState = iota
	stateEstablished
	// stateClosing: we initiated the close. The close frame is retained
	// and re-sent (rate-limited) in response to incoming packets until the
	// drain deadline passes.
	stateClosing
	// stateDraining: the peer closed. Nothing is sent; the state exists so
	// late in-flight packets are not mistaken for a new connection.
	stateDraining
	// stateClosed is terminal: all timers cancelled, OnClosed fired.
	stateClosed
)

// String names the state for stats and debugging.
func (s connState) String() string {
	switch s {
	case stateHandshake:
		return "handshake"
	case stateEstablished:
		return "established"
	case stateClosing:
		return "closing"
	case stateDraining:
		return "draining"
	default:
		return "closed"
	}
}

// Interface describes one local network interface available to a client.
type Interface struct {
	// NetIdx is the index the DatagramSender understands.
	NetIdx int
	// Tech is the wireless technology, driving primary path selection.
	Tech trace.Technology
}

// packetMeta is the scheduler bookkeeping attached to each sent ack-eliciting
// packet. It is one record with the recovery.SentPacket it rides on (sp, whose
// Meta points back here): the record pool recycles the pair, chunk and
// control-frame storage included, once the packet is resolved (DESIGN.md §18).
type packetMeta struct {
	sp     *recovery.SentPacket
	chunks []chunk
	ctrl   []wire.Frame
	// reinjected marks that this packet's data was already duplicated
	// onto another path, so it is not re-injected twice.
	reinjected bool
}

// Poison implements recovery.Poisoner: under xlinkdebug a record going back to
// the pool forgets what its packet carried, so that a reader holding on to it
// retransmits and re-queues nothing and the stream it belonged to stalls
// visibly instead of sending another packet's data.
func (m *packetMeta) Poison() {
	clear(m.chunks[:cap(m.chunks)])
	clear(m.ctrl[:cap(m.ctrl)])
	m.chunks, m.ctrl = m.chunks[:0], m.ctrl[:0]
}

// ctrlItem is a queued control frame, optionally pinned to a path.
type ctrlItem struct {
	frame wire.Frame
	// pathID pins the frame to a path (-1 = any path).
	pathID int64
	// reliable frames are re-queued when the carrying packet is lost.
	reliable bool
}

// ConnStats aggregates connection counters for experiments.
type ConnStats struct {
	SentPackets uint64
	RecvPackets uint64
	SentBytes   uint64
	RecvBytes   uint64
	// StreamBytesSent counts first transmissions of stream data.
	StreamBytesSent uint64
	// RtxBytesSent counts loss-triggered retransmissions.
	RtxBytesSent uint64
	// ReinjectedBytesSent counts re-injection duplicates — the paper's
	// cost overhead metric.
	ReinjectedBytesSent uint64
	// DuplicateBytesRecv counts received bytes already present.
	DuplicateBytesRecv uint64
	// HandshakeRTT is when the handshake completed.
	HandshakeRTT time.Duration
	// CloseErrorCode, CloseReason and CloseLocal describe how the
	// connection ended (valid once Closed() reports true). CloseLocal is
	// true when this endpoint initiated or detected the failure.
	CloseErrorCode uint64
	CloseReason    string
	CloseLocal     bool
	// AutoAbandonedPaths counts paths dropped by the PTO give-up rule.
	AutoAbandonedPaths uint64
	// FEC lane counters (DESIGN.md §13). Sender side: windows/repairs
	// emitted and retransmissions suppressed by peer recovery reports.
	// Receiver side: windows/repairs ingested, bytes rebuilt, give-ups.
	FECWindowsSent     uint64
	FECRepairsSent     uint64
	FECRepairBytesSent uint64
	FECWindowsRecv     uint64
	FECRepairsRecv     uint64
	FECRecoveredBytes  uint64
	FECDecoderGiveUps  uint64
	FECSuppressedBytes uint64
	// Stream buffer occupancy (DESIGN.md §17): what the send and receive
	// buffers of all streams hold now and held at most, each stream counted
	// from the start of its oldest segment to the highest byte stored.
	SendBufferedBytes uint64
	SendBufferedPeak  uint64
	RecvBufferedBytes uint64
	RecvBufferedPeak  uint64
}

// RedundancyRatio returns re-injected bytes over all stream bytes sent, the
// paper's traffic-cost metric.
func (s ConnStats) RedundancyRatio() float64 {
	total := s.StreamBytesSent + s.RtxBytesSent + s.ReinjectedBytesSent
	if total == 0 {
		return 0
	}
	return float64(s.ReinjectedBytesSent) / float64(total)
}

// Conn is one endpoint of a multi-path connection. It is event-driven and
// must only be touched from its Env's event loop: it holds no locks, and
// every entry point — a datagram, a timer, a user call — is made by the one
// goroutine that owns it, the sim harness or, live, the xlink endpoint's
// shard goroutine (DESIGN.md §16). A goroutine that is not the owner hands
// its call to the owner instead of touching the connection.
type Conn struct {
	env    Env
	sender DatagramSender
	cfg    Config
	rng    *sim.RNG

	state     connState
	multipath bool
	// fecEnabled is the negotiated FEC lane switch (both sides offered
	// enable_fec); fecEnc/fecDec are the lane's send/receive state.
	fecEnabled bool
	fecEnc     fecEncoder
	fecDec     fecDecoder

	// Handshake.
	initialDCID     wire.ConnectionID
	initTxSealer    *crypto.Sealer
	initRxSealer    *crypto.Sealer
	initSpace       *recovery.Space
	initRTT         *cc.RTTEstimator
	initLargestRecv int64
	localRandom     [32]byte
	helloPayload    []byte // our CRYPTO payload, for retransmission
	handshakeDone   bool   // peer's 1-RTT (or server initial) confirmed

	txSealer *crypto.Sealer
	rxSealer *crypto.Sealer

	localCIDs []wire.ConnectionID
	peerCIDs  []wire.ConnectionID
	// peerCIDLimit is the peer's active_connection_id_limit: how many of
	// localCIDs it is willing to hold (RFC 9000 §5.1.1).
	peerCIDLimit uint64

	interfaces []Interface
	paths      map[uint64]*Path
	pathOrder  []uint64

	// Open stream halves; an ended one leaves for sendClosed/recvClosed (§17).
	sendStreams  map[uint64]*SendStream
	recvStreams  map[uint64]*RecvStream
	sendClosed   streamIDSet
	recvClosed   streamIDSet
	localStreams uint64 // locally initiated streams opened so far (LocalStreamID)

	// Connection-level flow control.
	connSent       uint64 // sum of stream send offsets (new data)
	peerMaxData    uint64
	peerMaxStrData uint64 // the peer's initial per-stream limit
	localMaxData   uint64
	connDelivered  uint64
	recvHighest    uint64 // sum of the receive streams' highest offsets

	// Stream buffer accounting (DESIGN.md §17).
	sendAcct, recvAcct bufAcct

	ctrlQ []ctrlItem
	// reinjExamined counts the sent packets scanReinjections has looked at,
	// for the test that its work does not grow with the connection's age.
	reinjExamined uint64
	// pullHook, when set, replaces pullChunk: the seam through which the
	// test-only reference scheduler drives a connection.
	pullHook func(now time.Duration, p *Path, maxLen int) (chunk, bool)

	// timerCancel cancels the timer the Env holds (nil: none pending), which
	// fires at timerAt; timerDue is when onTimer's body must next run (0:
	// never). timerAt <= timerDue while a timer is pending — see rearmTimer.
	// secondaryAt is when the client's delayed secondary paths come up (0:
	// not waiting), one of nextDeadline's terms.
	timerCancel       func()
	timerAt, timerDue time.Duration
	secondaryAt       time.Duration
	inSend            bool
	// held marks a hold (Hold/Release): every send pass and timer re-arm is
	// deferred, and passOwed records that one was asked for meanwhile.
	held, passOwed bool
	// onTimerFn is c.onTimer bound once, so re-arming the timer does not
	// build a new method value per packet.
	onTimerFn func(now time.Duration)

	// Hot-path scratch (DESIGN.md §11). Event-loop confined like the rest of
	// the mutable core; each buffer is valid only until the next packet is
	// assembled (send side) or delivered (recv side), so nothing below may be
	// retained across events. gather holds the chunks of the packet being
	// assembled that straddle two send segments (§17). decoder owns the
	// storage of the frames in recvFrames (§18). inRecv guards against
	// reentrant datagram delivery clobbering all three mid-dispatch.
	gather     []byte
	sendFrames []wire.Frame
	sfScratch  []*wire.StreamFrame
	sfUsed     int
	recvBuf    []byte
	recvFrames []wire.Frame
	decoder    wire.Decoder
	inRecv     bool

	// Batch I/O state (DESIGN.md §16). sealFree is the free list of seal
	// buffers; inside a send pass a packet's buffer is on its path's
	// batchPend from emit until SendBatch returns, so the list stays within
	// paths × sendBatchSize. batchOrder is the first-touch flush order;
	// outside a pass, sendOne hands each packet over in the reusable oneBatch.
	sealFree   [][]byte
	batchOrder []*Path
	oneBatch   [1][]byte

	// streamOrder is (priority, id) over the send streams not retired, kept
	// across send passes and edited in place (streamsInOrder, DESIGN.md §11)
	// instead of re-sorted on every one.
	streamOrder   []*SendStream
	sendablePaths []*Path // usableSendPaths' result scratch

	// Lifecycle hardening state (DESIGN.md §8).
	lastRecvActivity time.Duration              // last successfully processed packet
	drainDeadline    time.Duration              // closing/draining → closed transition
	closeFrame       *wire.ConnectionCloseFrame // retained for closing-state resends
	closeRecvCount   uint64                     // incoming packets while closing
	closedFired      bool                       // OnClosed delivered

	// tr is the structured event tracer (nil = no-op; every emit below is
	// nil-receiver-safe and free when disabled).
	tr *obs.Origin

	stats ConnStats
}

// NewConn creates a connection. Clients must AddInterface then Start;
// servers receive their first datagram via HandleDatagram.
func NewConn(env Env, sender DatagramSender, cfg Config) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{
		env:         env,
		sender:      sender,
		cfg:         cfg,
		rng:         sim.NewRNG(cfg.Seed ^ 0x5eed),
		paths:       make(map[uint64]*Path),
		sendStreams: make(map[uint64]*SendStream),
		recvStreams: make(map[uint64]*RecvStream),
		initRTT:     cc.NewRTTEstimator(),
		peerMaxData: 0,
	}
	c.initSpace = recovery.NewSpace(c.initRTT)
	c.initLargestRecv = -1
	c.localMaxData = cfg.Params.InitialMaxData
	c.tr = cfg.Tracer
	c.onTimerFn = c.onTimer
	return c
}

// SetTracer installs (or clears) the structured event tracer. Call before
// traffic flows; a nil origin disables tracing at zero cost.
func (c *Conn) SetTracer(o *obs.Origin) { c.tr = o }

// Stats returns a copy of the connection counters.
func (c *Conn) Stats() ConnStats {
	st := c.stats
	st.SendBufferedBytes, st.SendBufferedPeak = c.sendAcct.bytes, c.sendAcct.peak
	st.RecvBufferedBytes, st.RecvBufferedPeak = c.recvAcct.bytes, c.recvAcct.peak
	return st
}

// SetOnStreamData installs the in-order stream data callback
// (Config.OnStreamData: data is valid for the call only). Call before
// traffic flows.
func (c *Conn) SetOnStreamData(fn func(now time.Duration, s *RecvStream, data []byte, fin bool)) {
	c.cfg.OnStreamData = fn
}

// SetOnStreamOpen installs the peer-initiated stream callback.
func (c *Conn) SetOnStreamOpen(fn func(now time.Duration, s *RecvStream)) {
	c.cfg.OnStreamOpen = fn
}

// SetOnHandshakeDone installs the handshake-completion callback.
func (c *Conn) SetOnHandshakeDone(fn func(now time.Duration)) {
	c.cfg.OnHandshakeDone = fn
}

// SetOnClosed installs the connection-termination callback. It fires exactly
// once, when the connection leaves service for any reason: local Close, peer
// CONNECTION_CLOSE, idle timeout, or handshake failure.
func (c *Conn) SetOnClosed(fn func(now time.Duration, code uint64, reason string, local bool)) {
	c.cfg.OnClosed = fn
}

// SetQoEProvider installs the client-side QoE signal source piggybacked on
// outgoing ACK_MP frames.
func (c *Conn) SetQoEProvider(fn func() wire.QoESignal) {
	c.cfg.QoEProvider = fn
}

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// Closed reports whether the connection has left service: it is closing,
// draining, or fully terminated. Traffic no longer flows in any of these.
func (c *Conn) Closed() bool { return c.state >= stateClosing }

// Terminated reports whether the connection reached the terminal closed
// state: all timers cancelled, no further events will fire.
func (c *Conn) Terminated() bool { return c.state == stateClosed }

// StateName returns the lifecycle state for logging and tests.
func (c *Conn) StateName() string { return c.state.String() }

// MultipathEnabled reports whether multi-path was negotiated.
func (c *Conn) MultipathEnabled() bool { return c.multipath }

// IsClient reports the connection role.
func (c *Conn) IsClient() bool { return c.cfg.IsClient }

// Paths returns the paths in creation order.
func (c *Conn) Paths() []*Path {
	out := make([]*Path, 0, len(c.pathOrder))
	for _, id := range c.pathOrder {
		out = append(out, c.paths[id])
	}
	return out
}

// Path returns the path with the given ID, or nil.
func (c *Conn) Path(id uint64) *Path { return c.paths[id] }

// AddInterface registers a local interface (client side). Call before
// Start.
func (c *Conn) AddInterface(netIdx int, tech trace.Technology) {
	c.interfaces = append(c.interfaces, Interface{NetIdx: netIdx, Tech: tech})
}

// newCID mints a fresh connection ID, embedding the configured server ID in
// the first byte for QUIC-LB routing.
func (c *Conn) newCID() wire.ConnectionID {
	cid := make(wire.ConnectionID, cidLen)
	cid[0] = c.cfg.ServerID
	for i := 1; i < len(cid); i++ {
		cid[i] = byte(c.rng.Intn(256))
	}
	return cid
}

// selectPrimaryInterface implements wireless-aware primary path selection
// (Sec 5.3): prefer the interface whose technology ranks best, unless the
// configuration pins the first one.
func (c *Conn) selectPrimaryInterface() Interface {
	best := c.interfaces[0]
	if c.cfg.ForcePrimary {
		return best
	}
	for _, itf := range c.interfaces[1:] {
		if itf.Tech.PrimaryPreference() < best.Tech.PrimaryPreference() {
			best = itf
		}
	}
	return best
}

// Start begins the client handshake, once, on a connection that has not
// started. The primary path uses the wireless-aware best interface.
func (c *Conn) Start() error {
	if !c.cfg.IsClient {
		return fmt.Errorf("transport: Start is client-only")
	}
	if len(c.interfaces) == 0 {
		return fmt.Errorf("transport: no interfaces")
	}
	primary := c.selectPrimaryInterface()
	p := newPath(0, primary.NetIdx, primary.Tech, c.cfg.CCAlgorithm)
	p.State = PathActive // primary is validated by the handshake itself
	c.paths[0] = p
	c.pathOrder = append(c.pathOrder, 0)

	c.localCIDs = []wire.ConnectionID{c.newCID()}
	c.initialDCID = c.newCID()
	var err error
	if c.initTxSealer, err = crypto.NewSealer(c.initialDCID, "client-initial"); err != nil {
		return err
	}
	if c.initRxSealer, err = crypto.NewSealer(c.initialDCID, "server-initial"); err != nil {
		return err
	}
	for i := range c.localRandom {
		c.localRandom[i] = byte(c.rng.Intn(256))
	}
	c.helloPayload = append(append([]byte(nil), c.localRandom[:]...), c.cfg.Params.Append(nil)...)
	now := c.env.Now()
	c.lastRecvActivity = now // idle clock starts at first send
	c.tr.PathAdded(now, 0, primary.NetIdx, primary.Tech.String())
	c.sendInitial()
	c.rearmTimer()
	return nil
}

// sendInitial (re)transmits the handshake CRYPTO payload.
func (c *Conn) sendInitial() {
	now := c.env.Now()
	var payload []byte
	cf := &wire.CryptoFrame{Offset: 0, Data: c.helloPayload}
	payload = cf.Append(payload)
	pn := c.initSpace.NextPN()
	var scid wire.ConnectionID
	if len(c.localCIDs) > 0 {
		scid = c.localCIDs[0]
	}
	dcid := c.initialDCID
	if !c.cfg.IsClient && len(c.peerCIDs) > 0 {
		dcid = c.peerCIDs[0]
	}
	pkt := sealLong(c.initTxSealer, dcid, scid, pn, c.initSpace.LargestAcked(), payload)
	c.initSpace.OnPacketSent(&recovery.SentPacket{
		PN: pn, SentAt: now, Bytes: len(pkt), AckEliciting: true,
	})
	netIdx := 0
	if p := c.paths[0]; p != nil {
		netIdx = p.NetIdx
	}
	c.sendOne(netIdx, pkt)
	c.stats.SentPackets++
	c.stats.SentBytes += uint64(len(pkt))
	c.tr.PacketSent(now, 0, pn, len(pkt), "initial")
}

// deriveSessionKeys computes 1-RTT sealers from the PSK and both randoms.
func (c *Conn) deriveSessionKeys(clientRandom, serverRandom []byte) error {
	secret := append(append(append([]byte(nil), c.cfg.PSK...), clientRandom...), serverRandom...)
	txLabel, rxLabel := "client", "server"
	if !c.cfg.IsClient {
		txLabel, rxLabel = "server", "client"
	}
	var err error
	if c.txSealer, err = crypto.NewSealer(secret, txLabel); err != nil {
		return err
	}
	if c.rxSealer, err = crypto.NewSealer(secret, rxLabel); err != nil {
		return err
	}
	return nil
}

// Hold defers the connection's send passes and timer re-arms until Release
// (DESIGN.md §16, the live turn). While it is held, wakeSend, the trailing
// pass of HandleDatagram and the timer's pass only note that a pass is
// owed, so the frames that several calls queue leave together. The
// simulator never holds a connection; a live endpoint holds its connection
// for a shard turn.
func (c *Conn) Hold() { c.held = true }

// Release ends a hold and runs the pass it deferred, if one was owed: one
// maybeSend and one rearmTimer, however many calls asked for a pass.
// Releasing a connection that is not held does nothing.
func (c *Conn) Release() {
	c.held = false
	if !c.passOwed {
		return
	}
	c.passOwed = false
	c.maybeSend(c.env.Now())
	c.rearmTimer()
}

// HandleDatagram ingests a received UDP payload that arrived on local
// interface netIdx: lifecycle guards, stats, trace, decrypt and frame
// dispatch, then one send pass and one timer re-arm — both deferred to
// Release while the connection is held (DESIGN.md §16). data is borrowed
// for the duration of the call (see DatagramSender's ownership note).
func (c *Conn) HandleDatagram(now time.Duration, netIdx int, data []byte) {
	if c.state == stateClosed || len(data) == 0 {
		return
	}
	if c.state == stateDraining {
		// RFC 9000 §10.2.2: in draining we send nothing, but keep absorbing
		// the peer's stragglers until the drain deadline.
		c.stats.RecvPackets++
		c.stats.RecvBytes += uint64(len(data))
		c.tr.PacketReceived(now, netIdx, len(data))
		return
	}
	if c.state == stateClosing {
		// §10.2.1: answer stray packets with the retained CONNECTION_CLOSE,
		// exponentially rate-limited (every 1st, 2nd, 4th, 8th... packet) so
		// a closing pair cannot ping-pong forever.
		c.stats.RecvPackets++
		c.stats.RecvBytes += uint64(len(data))
		c.tr.PacketReceived(now, netIdx, len(data))
		c.closeRecvCount++
		if c.closeRecvCount&(c.closeRecvCount-1) == 0 {
			c.resendClose(now)
		}
		return
	}
	c.stats.RecvPackets++
	c.stats.RecvBytes += uint64(len(data))
	c.tr.PacketReceived(now, netIdx, len(data))
	if wire.IsLongHeader(data[0]) {
		c.handleInitialDatagram(now, netIdx, data)
	} else {
		c.handleShortPacket(now, netIdx, data)
	}
	c.maybeSend(now)
	c.rearmTimer()
}

// handleInitialDatagram processes a long-header (handshake) packet.
func (c *Conn) handleInitialDatagram(now time.Duration, netIdx int, data []byte) {
	if c.cfg.IsClient {
		c.clientHandleServerInitial(now, data)
		return
	}
	c.serverHandleClientInitial(now, netIdx, data)
}

func (c *Conn) serverHandleClientInitial(now time.Duration, netIdx int, data []byte) {
	if c.initRxSealer == nil {
		// Derive initial keys from the client's chosen DCID.
		pnOff, _, err := longPNOffset(data)
		if err != nil || pnOff < 7 {
			return
		}
		dcidLen := int(data[5])
		if 6+dcidLen > len(data) {
			return
		}
		initialDCID := wire.ConnectionID(data[6 : 6+dcidLen])
		if c.initRxSealer, err = crypto.NewSealer(initialDCID, "client-initial"); err != nil {
			return
		}
		if c.initTxSealer, err = crypto.NewSealer(initialDCID, "server-initial"); err != nil {
			return
		}
	}
	hdr, payload, _, err := openLong(c.initRxSealer, data, c.initLargestRecv)
	if err != nil {
		return
	}
	c.lastRecvActivity = now
	if int64(hdr.PacketNumber) > c.initLargestRecv {
		c.initLargestRecv = int64(hdr.PacketNumber)
	}
	frames, err := wire.ParseAll(payload)
	if err != nil {
		return
	}
	for _, f := range frames {
		cf, ok := f.(*wire.CryptoFrame)
		if !ok || len(cf.Data) < 32 {
			continue
		}
		if c.state != stateHandshake || c.handshakeDone {
			continue // duplicate hello
		}
		clientRandom := cf.Data[:32]
		peerParams, err := wire.ParseTransportParams(cf.Data[32:])
		if err != nil {
			return
		}
		c.multipath = peerParams.EnableMultipath && c.cfg.Params.EnableMultipath
		c.fecEnabled = peerParams.EnableFEC && c.cfg.Params.EnableFEC
		c.peerCIDs = []wire.ConnectionID{hdr.SCID.Clone()}
		c.localCIDs = []wire.ConnectionID{c.newCID()}
		c.peerCIDLimit = peerParams.ActiveCIDLimit
		c.peerMaxData = peerParams.InitialMaxData
		c.peerMaxStrData = peerParams.InitialMaxStrData
		p := newPath(0, netIdx, trace.TechWiFi, c.cfg.CCAlgorithm)
		p.State = PathActive
		p.DCID = c.peerCIDs[0]
		c.paths[0] = p
		c.pathOrder = append(c.pathOrder, 0)
		c.tr.PathAdded(now, 0, netIdx, trace.TechWiFi.String())
		for i := range c.localRandom {
			c.localRandom[i] = byte(c.rng.Intn(256))
		}
		if err := c.deriveSessionKeys(clientRandom, c.localRandom[:]); err != nil {
			return
		}
		c.helloPayload = append(append([]byte(nil), c.localRandom[:]...), c.cfg.Params.Append(nil)...)
		c.sendInitial()
		c.becomeEstablished(now)
		// Announce additional CIDs so the client can open paths, and
		// confirm the handshake.
		c.queueCtrl(&wire.HandshakeDoneFrame{}, -1, true)
		c.issueCIDs()
	}
}

func (c *Conn) clientHandleServerInitial(now time.Duration, data []byte) {
	hdr, payload, _, err := openLong(c.initRxSealer, data, c.initLargestRecv)
	if err != nil {
		return
	}
	c.lastRecvActivity = now
	if int64(hdr.PacketNumber) > c.initLargestRecv {
		c.initLargestRecv = int64(hdr.PacketNumber)
	}
	frames, err := wire.ParseAll(payload)
	if err != nil {
		return
	}
	for _, f := range frames {
		cf, ok := f.(*wire.CryptoFrame)
		if !ok || len(cf.Data) < 32 {
			continue
		}
		if c.state != stateHandshake {
			continue
		}
		serverRandom := cf.Data[:32]
		peerParams, err := wire.ParseTransportParams(cf.Data[32:])
		if err != nil {
			return
		}
		c.multipath = peerParams.EnableMultipath && c.cfg.Params.EnableMultipath
		c.fecEnabled = peerParams.EnableFEC && c.cfg.Params.EnableFEC
		c.peerCIDs = []wire.ConnectionID{hdr.SCID.Clone()}
		c.peerCIDLimit = peerParams.ActiveCIDLimit
		c.peerMaxData = peerParams.InitialMaxData
		c.peerMaxStrData = peerParams.InitialMaxStrData
		c.paths[0].DCID = c.peerCIDs[0]
		if err := c.deriveSessionKeys(c.localRandom[:], serverRandom); err != nil {
			return
		}
		c.handshakeDone = true // server initial received: stop retransmitting
		c.becomeEstablished(now)
		c.issueCIDs()
		c.maybeInitSecondaryPaths(now)
	}
}

// becomeEstablished transitions from handshake to established, once.
func (c *Conn) becomeEstablished(now time.Duration) {
	if c.state != stateHandshake {
		return
	}
	c.state = stateEstablished
	c.stats.HandshakeRTT = now
	if c.fecEnabled {
		c.fecInit()
	}
	c.tr.ConnStateChanged(now, stateHandshake.String(), stateEstablished.String(), 0, "")
	if c.cfg.OnHandshakeDone != nil {
		c.cfg.OnHandshakeDone(now)
	}
}

// issueCIDs provisions the peer with additional CIDs for path setup, as many
// as its active_connection_id_limit lets it hold.
func (c *Conn) issueCIDs() {
	if !c.multipath {
		return
	}
	for seq := len(c.localCIDs); seq < cidLimit(c.peerCIDLimit); seq++ {
		cid := c.newCID()
		c.localCIDs = append(c.localCIDs, cid)
		c.queueCtrl(&wire.NewConnectionIDFrame{
			Sequence:     uint64(seq),
			ConnectionID: cid,
		}, -1, true)
	}
}

// maybeInitSecondaryPaths opens a path for each remaining client interface
// once peer CIDs are available (Fig 9's path initialization).
func (c *Conn) maybeInitSecondaryPaths(now time.Duration) {
	if !c.cfg.IsClient || !c.multipath || c.state != stateEstablished {
		return
	}
	if d := c.cfg.SecondaryPathDelay; d > 0 {
		if ready := c.stats.HandshakeRTT + d; now < ready {
			c.secondaryAt = ready // onTimer calls back once it is due
			return
		}
	}
	c.secondaryAt = 0
	primaryNet := c.paths[0].NetIdx
	for _, itf := range c.interfaces {
		if itf.NetIdx == primaryNet {
			continue
		}
		if c.pathForNetIdx(itf.NetIdx) != nil {
			continue
		}
		seq := uint64(len(c.pathOrder))
		if seq >= uint64(len(c.peerCIDs)) || seq >= uint64(len(c.localCIDs)) {
			continue // need more CIDs first
		}
		p := newPath(seq, itf.NetIdx, itf.Tech, c.cfg.CCAlgorithm)
		p.DCID = c.peerCIDs[seq]
		c.paths[seq] = p
		c.pathOrder = append(c.pathOrder, seq)
		c.tr.PathAdded(now, seq, itf.NetIdx, itf.Tech.String())
		c.startPathValidation(now, p)
	}
}

// pathForNetIdx finds the path bound to a local interface.
func (c *Conn) pathForNetIdx(netIdx int) *Path {
	for _, id := range c.pathOrder {
		if c.paths[id].NetIdx == netIdx {
			return c.paths[id]
		}
	}
	return nil
}

// startPathValidation sends a PATH_CHALLENGE on the path.
func (c *Conn) startPathValidation(now time.Duration, p *Path) {
	for i := range p.pendingChallenge {
		p.pendingChallenge[i] = byte(c.rng.Intn(256))
	}
	p.challengeSent = true
	c.tr.PathStateChanged(now, p.ID, p.State.String(), "challenge-sent")
	ch := &wire.PathChallengeFrame{Data: p.pendingChallenge}
	c.queueCtrl(ch, int64(p.ID), true)
	c.wakeSend()
}

// queueCtrl enqueues a control frame.
func (c *Conn) queueCtrl(f wire.Frame, pathID int64, reliable bool) {
	c.ctrlQ = append(c.ctrlQ, ctrlItem{frame: f, pathID: pathID, reliable: reliable})
	c.wakeSend()
}

// handleShortPacket processes a 1-RTT packet.
func (c *Conn) handleShortPacket(now time.Duration, netIdx int, data []byte) {
	if c.rxSealer == nil {
		return // keys not ready
	}
	if len(data) < 1+cidLen {
		return
	}
	dcid := wire.ConnectionID(data[1 : 1+cidLen])
	seq := c.localCIDSeq(dcid)
	if seq < 0 {
		return // not our CID
	}
	pathID := uint64(seq)
	p := c.paths[pathID]
	if p == nil {
		if !c.multipath {
			return
		}
		// New path discovered (server side): create and validate it.
		p = newPath(pathID, netIdx, trace.TechLTE, c.cfg.CCAlgorithm)
		if pathID < uint64(len(c.peerCIDs)) && c.peerCIDs[pathID] != nil {
			// The matching peer CID is known: replies can flow at once.
			p.DCID = c.peerCIDs[pathID]
		}
		// Otherwise leave DCID nil; the pending NEW_CONNECTION_ID for this
		// sequence number fills it in. Replying with a mismatched CID
		// sequence would be sealed under the wrong per-path nonce.
		c.paths[pathID] = p
		c.pathOrder = append(c.pathOrder, pathID)
		c.tr.PathAdded(now, pathID, netIdx, trace.TechLTE.String())
	}
	p.NetIdx = netIdx // follow the packet (handles migration)
	// Decrypt and parse into the connection's receive scratch. A handler
	// below may synchronously trigger the peer to deliver another datagram
	// back to us (direct-delivery test harnesses); the inRecv guard makes
	// that nested delivery fall back to fresh allocations instead of
	// clobbering the buffers this frame loop is still reading.
	reentrant := c.inRecv
	var pn uint64
	var payload []byte
	var err error
	if reentrant {
		pn, payload, _, err = openShort(c.rxSealer, nil, data, cidLen, uint32(pathID), p.largestRecvPN)
	} else {
		c.inRecv = true
		defer func() { c.inRecv = false }()
		var buf []byte
		pn, payload, buf, err = openShort(c.rxSealer, c.recvBuf, data, cidLen, uint32(pathID), p.largestRecvPN)
		c.recvBuf = buf
	}
	if err != nil {
		return
	}
	c.lastRecvActivity = now
	if !c.handshakeDone {
		// Receiving 1-RTT confirms the peer has our keys.
		c.handshakeDone = true
	}
	var frames []wire.Frame
	if reentrant {
		frames, err = wire.ParseAll(payload)
	} else {
		frames, err = c.decoder.AppendFrames(c.recvFrames[:0], payload)
		if frames != nil {
			c.recvFrames = frames[:0]
		}
	}
	if err != nil {
		return
	}
	eliciting := false
	for _, f := range frames {
		if wire.AckEliciting(f) {
			eliciting = true
			break
		}
	}
	dup := p.recordRecv(pn, now, eliciting)
	c.unsuspectPath(now, p) // receiving on the path proves it alive
	if dup {
		return
	}
	p.RecvPackets++
	p.RecvBytes += uint64(len(data))
	for _, f := range frames {
		c.handleFrame(now, p, f)
		if c.state >= stateClosing {
			return // a CONNECTION_CLOSE ended the connection mid-packet
		}
	}
}

// localCIDSeq resolves one of our CIDs to its sequence number, -1 if
// unknown.
func (c *Conn) localCIDSeq(cid wire.ConnectionID) int {
	for i, lc := range c.localCIDs {
		if lc.Equal(cid) {
			return i
		}
	}
	return -1
}

// handleFrame dispatches one received frame on path p.
func (c *Conn) handleFrame(now time.Duration, p *Path, f wire.Frame) {
	switch fr := f.(type) {
	case *wire.PaddingFrame, *wire.PingFrame:
		// Nothing beyond ack-eliciting bookkeeping.
	case *wire.HandshakeDoneFrame:
		c.handshakeDone = true
		c.maybeInitSecondaryPaths(now)
	case *wire.NewConnectionIDFrame:
		if fr.Sequence >= uint64(cidLimit(c.cfg.Params.ActiveCIDLimit)) {
			c.Close(ErrCodeConnectionIDLimit, "connection ID sequence beyond the limit")
			return
		}
		for uint64(len(c.peerCIDs)) <= fr.Sequence {
			c.peerCIDs = append(c.peerCIDs, nil)
		}
		c.peerCIDs[fr.Sequence] = fr.ConnectionID.Clone()
		if pp := c.paths[fr.Sequence]; pp != nil && pp.DCID == nil {
			pp.DCID = c.peerCIDs[fr.Sequence]
		}
		c.maybeInitSecondaryPaths(now)
	case *wire.RetireConnectionIDFrame:
		// CID rotation is out of scope; accept silently.
	case *wire.PathChallengeFrame:
		// Respond on the same path, as required for validation.
		c.queueCtrl(&wire.PathResponseFrame{Data: fr.Data}, int64(p.ID), false)
		if !p.validatedPeer && !p.challengeSent {
			// Validate the reverse direction too.
			c.startPathValidation(now, p)
		}
	case *wire.PathResponseFrame:
		if p.challengeSent && fr.Data == p.pendingChallenge {
			p.validatedPeer = true
			if p.State == PathProbing {
				p.State = PathActive
			}
			c.tr.PathValidated(now, p.ID)
			c.wakeSend()
		}
	case *wire.PathStatusFrame:
		c.handlePathStatus(now, fr)
	case *wire.AckFrame:
		c.processAck(now, c.paths[0], fr.Ranges, fr.AckDelay)
	case *wire.AckMPFrame:
		target := c.paths[fr.PathID]
		if target == nil {
			return
		}
		c.processAck(now, target, fr.Ranges, fr.AckDelay)
		if fr.HasQoE && c.cfg.OnQoE != nil {
			assert.NonNegDur(fr.QoE.PlaytimeLeft(), "qoe Δt")
			c.tr.QoESignal(now, fr.QoE.CachedBytes, fr.QoE.CachedFrames)
			c.cfg.OnQoE(now, fr.QoE)
		}
	case *wire.QoEControlSignalsFrame:
		if c.cfg.OnQoE != nil {
			assert.NonNegDur(fr.QoE.PlaytimeLeft(), "qoe Δt")
			c.tr.QoESignal(now, fr.QoE.CachedBytes, fr.QoE.CachedFrames)
			c.cfg.OnQoE(now, fr.QoE)
		}
	case *wire.StreamFrame:
		c.handleStreamFrame(now, fr)
	case *wire.MaxDataFrame:
		if fr.MaxData > c.peerMaxData {
			c.peerMaxData = fr.MaxData
			c.wakeSend()
		}
	case *wire.MaxStreamDataFrame:
		if s := c.sendStreams[fr.StreamID]; s != nil && fr.MaxStreamData > s.peerMaxData {
			s.peerMaxData = fr.MaxStreamData
			c.wakeSend()
		}
	case *wire.DataBlockedFrame, *wire.StreamDataBlockedFrame:
		// Informational; our auto-tuned limits react via MAX_DATA below.
	case *wire.ResetStreamFrame:
		// A reset of a stream nothing arrived on, or of one finished and
		// forgotten, has nothing to release.
		if c.recvStreams[fr.StreamID] != nil {
			if rs := c.admitStreamData(now, fr.StreamID, fr.FinalSize, true); rs != nil {
				rs.finSeen, rs.finOffset = true, fr.FinalSize
				rs.finish()
				c.maybeForgetRecv(rs)
			}
		}
	case *wire.StopSendingFrame:
		// The peer no longer wants this stream: abort our sending side
		// with RESET_STREAM, as RFC 9000 §3.5 requires — unless the peer
		// holds all of it already (Reset) or it was forgotten.
		if s := c.sendStreams[fr.StreamID]; s != nil {
			s.Reset(fr.ErrorCode)
		}
	case *wire.ConnectionCloseFrame:
		c.enterDraining(now, fr.ErrorCode, fr.Reason)
	case *wire.FECWindowFrame:
		c.handleFECWindow(now, fr)
	case *wire.FECRepairFrame:
		c.handleFECRepair(now, fr)
	case *wire.FECRecoveredFrame:
		c.handleFECRecovered(now, fr)
	case *wire.CryptoFrame:
		// CRYPTO in 1-RTT unused in the simplified handshake.
	}
}

// unsuspectPath clears a path's suspicion and, if we had advertised it as
// standby, tells the peer it is available again.
func (c *Conn) unsuspectPath(now time.Duration, p *Path) {
	p.suspect = false
	if p.advertisedStandby && p.State == PathActive {
		p.advertisedStandby = false
		p.lastStatusSeq++
		c.tr.PathStateChanged(now, p.ID, p.State.String(), "recovered")
		c.queueCtrl(&wire.PathStatusFrame{
			PathID: p.ID, StatusSeq: p.lastStatusSeq, Status: wire.PathAvailable,
		}, -1, false)
	}
}

// handlePathStatus applies a peer path-status update (Sec 6, "Path close").
func (c *Conn) handlePathStatus(now time.Duration, fr *wire.PathStatusFrame) {
	p := c.paths[fr.PathID]
	if p == nil || fr.StatusSeq <= p.lastStatusSeq {
		return
	}
	p.lastStatusSeq = fr.StatusSeq
	switch fr.Status {
	case wire.PathAbandon:
		p.State = PathClosed
		c.tr.PathAbandoned(now, p.ID, "peer-abandon")
		c.evacuatePath(now, p)
	case wire.PathStandby:
		if p.State == PathActive {
			p.State = PathStandbyLocal
			c.tr.PathStateChanged(now, p.ID, p.State.String(), "peer-standby")
			c.evacuatePath(now, p)
		}
	case wire.PathAvailable:
		if p.State == PathStandbyLocal || p.State == PathProbing {
			p.State = PathActive
			c.tr.PathStateChanged(now, p.ID, p.State.String(), "peer-available")
		}
	}
}

// handleStreamFrame ingests stream data and delivers in-order bytes. When
// the FEC lane is live, newly arrived data re-examines the stream's open
// protection windows: a window may retire (fully received) or become
// solvable (missing count dropped to the repairs in hand).
func (c *Conn) handleStreamFrame(now time.Duration, fr *wire.StreamFrame) {
	rs := c.admitStreamData(now, fr.StreamID, fr.Offset+uint64(len(fr.Data)), fr.Fin)
	switch {
	case rs != nil:
		c.deliverStreamData(now, rs, fr.Offset, fr.Data, fr.Fin)
	case c.Closed():
		return
	default:
		// The stream finished and was forgotten: the frame is a copy of
		// bytes it delivered, counted as a finished stream counts one.
		c.stats.DuplicateBytesRecv += uint64(len(fr.Data))
	}
	if c.fecEnabled && c.fecDec.hasOpenWindows(fr.StreamID) {
		c.fecOnStreamData(now, fr.StreamID)
	}
}

// admitStreamData enforces what this endpoint advertised on a STREAM frame
// ending at end, or a RESET_STREAM whose final size is end, before the
// peer's offset sizes or indexes anything (RFC 9000 §4.1, §4.5): data beyond
// the stream's or the connection's limit closes the connection with
// FLOW_CONTROL_ERROR, a final size that contradicts an earlier one or lies
// below data already sent closes it with FINAL_SIZE_ERROR. Every stream
// buffer's bound rests on this check. It returns the stream, created on
// first contact, or nil after closing the connection — or for a stream
// finished and forgotten, whose frames are ignored unchecked: they buffer
// nothing, and RFC 9000 lets an endpoint discard frames for a closed stream.
func (c *Conn) admitStreamData(now time.Duration, id, end uint64, final bool) *RecvStream {
	rs := c.recvStreams[id]
	highest := uint64(0)
	if rs != nil {
		highest = rs.highest
	} else if c.recvClosed.has(id) {
		return nil
	}
	if end > c.recvLimit(rs) || (end > highest && c.recvHighest+(end-highest) > c.localMaxData) {
		c.Close(ErrCodeFlowControl, "stream data beyond the advertised limit")
		return nil
	}
	if (final && end < highest) || (rs != nil && rs.finSeen && (end > rs.finOffset || (final && end != rs.finOffset))) {
		c.Close(ErrCodeFinalSize, "stream final size contradicted")
		return nil
	}
	if rs == nil {
		rs = c.streamForRecv(now, id)
	}
	if end > highest {
		c.recvHighest += end - highest
		rs.highest = end
	}
	return rs
}

// recvLimit is the highest offset the peer may use on a stream: the limit
// last advertised for it, the initial one if nothing arrived on it yet (rs
// is nil).
func (c *Conn) recvLimit(rs *RecvStream) uint64 {
	if rs != nil {
		return rs.maxDataSent
	}
	return c.cfg.Params.InitialMaxStrData
}

// streamForRecv returns the receive half of a stream, creating it (and
// announcing it to the application) on first contact. The callers have ruled
// out a stream already forgotten.
func (c *Conn) streamForRecv(now time.Duration, id uint64) *RecvStream {
	rs := c.recvStreams[id]
	if rs == nil {
		rs = &RecvStream{
			id:          id,
			conn:        c,
			initialMax:  c.cfg.Params.InitialMaxStrData,
			maxDataSent: c.cfg.Params.InitialMaxStrData,
			data:        segBuf{acct: &c.recvAcct, pooled: true},
		}
		if c.fecEnabled {
			rs.history = fecHistory
		}
		c.recvStreams[id] = rs
		if c.cfg.OnStreamOpen != nil {
			c.cfg.OnStreamOpen(now, rs)
		}
	}
	return rs
}

// deliverStreamData feeds payload bytes — received or FEC-recovered — into
// the stream's reassembly and runs the shared delivery and flow-control
// tail. Both recovery lanes converge here, so recovered bytes are
// indistinguishable from received ones downstream. payload is valid for the
// call only: the reassembly copies what it keeps. The callback in turn
// borrows what it is handed: the segments under it, or the gather buffer,
// are released only once it has returned.
func (c *Conn) deliverStreamData(now time.Duration, rs *RecvStream, offset uint64, payload []byte, fin bool) {
	beforeDup := rs.DuplicateBytes
	from, n, finished := rs.onFrame(offset, payload, fin)
	c.stats.DuplicateBytesRecv += rs.DuplicateBytes - beforeDup
	c.connDelivered += n
	if (n > 0 || finished) && c.cfg.OnStreamData != nil {
		data, gather := rs.borrow(from, n)
		c.cfg.OnStreamData(now, rs, data, finished)
		if gather != nil {
			returnGather(gather)
		}
	}
	rs.releaseDelivered()
	// Flow control updates.
	if rs.needsMaxDataUpdate() {
		c.queueCtrl(&wire.MaxStreamDataFrame{StreamID: rs.id, MaxStreamData: rs.nextMaxData()}, -1, true)
	}
	if c.connDelivered > c.localMaxData-min64(c.localMaxData, c.cfg.Params.InitialMaxData/2) {
		c.localMaxData = c.connDelivered + c.cfg.Params.InitialMaxData
		c.queueCtrl(&wire.MaxDataFrame{MaxData: c.localMaxData}, -1, true)
	}
	if rs.finished {
		c.maybeForgetRecv(rs)
	}
}

// maybeForgetRecv forgets rs once nothing the peer sends can change it:
// delivery is over and its final size is known and counted against
// connection flow control (DESIGN.md §17).
func (c *Conn) maybeForgetRecv(rs *RecvStream) {
	if rs.finished && rs.finSeen && rs.highest == rs.finOffset {
		delete(c.recvStreams, rs.id)
		c.recvClosed.add(rs.id)
	}
}

// processAck applies an ACK to the target path's space and reacts to what
// it acknowledged and to what its loss detection declared lost.
func (c *Conn) processAck(now time.Duration, target *Path, ranges []wire.AckRange, delay time.Duration) {
	if target == nil {
		return
	}
	if len(ranges) > 0 && ranges[0].Largest >= target.Space.PeekPN() {
		// RFC 9000 §13.1. Left to the ledger, the range would acknowledge
		// what it covers, move largestAcked past every packet in flight —
		// the next loss pass declares them all lost — and skew the packet
		// number truncation of everything sent afterwards.
		c.Close(ErrCodeProtocolViolation, "acknowledgement of a packet never sent")
		return
	}
	res := target.Space.OnAck(ranges, delay, now)
	if len(res.Acked) > 0 {
		// Acked delivery proves the path works in the send direction.
		c.unsuspectPath(now, target)
		target.lastAckAt = now
	}
	for _, sp := range res.Acked {
		c.tr.PacketAcked(now, target.ID, sp.PN)
		if sp.AckEliciting {
			target.CC.OnPacketAcked(now, sp.Bytes, target.RTT.Smoothed())
		}
		if meta, ok := sp.Meta.(*packetMeta); ok {
			for _, ch := range meta.chunks {
				if s := c.sendStreams[ch.streamID]; s != nil {
					s.onChunkAcked(ch)
					c.chunkResolved(s)
				}
			}
		}
	}
	if len(res.Acked) > 0 {
		c.tr.MetricsUpdated(now, target.ID, target.CC.Window(),
			target.CC.BytesInFlight(), target.CC.InSlowStart(), target.RTT.Smoothed())
	}
	c.handleLost(now, target, res.Lost, "time")
	if len(res.Acked) > 0 {
		c.wakeSend()
	}
}

// handleLost reacts to packets declared lost on a path. fallbackTrigger
// attributes bulk declarations (DeclareAllLost leaves SentPacket.LostTrigger
// empty) in the trace: "pto" or "evacuated". It is the last reader of every
// loss-detection result on p.Space — processAck has walked the acked list
// before it, the timer's loss and PTO paths hand it the lost list and touch
// no record after — so it frees the records that call retired (DESIGN.md
// §18): the send pass it may wake, and the next one, reuse them.
func (c *Conn) handleLost(now time.Duration, p *Path, lost []*recovery.SentPacket, fallbackTrigger string) {
	recovery.AssertLive(lost, "the lost list handleLost reacts to")
	for _, sp := range lost {
		trigger := sp.LostTrigger
		if trigger == "" {
			trigger = fallbackTrigger
		}
		c.tr.PacketLost(now, p.ID, sp.PN, sp.Bytes, trigger)
		p.LostPackets++
		if sp.AckEliciting {
			p.CC.OnPacketLost(now, sp.SentAt, sp.Bytes)
		}
		meta, ok := sp.Meta.(*packetMeta)
		if !ok {
			continue
		}
		for _, ch := range meta.chunks {
			if s := c.sendStreams[ch.streamID]; s != nil {
				s.onChunkLost(ch)
				c.chunkResolved(s)
			}
		}
		for _, f := range meta.ctrl {
			pathID := int64(-1)
			switch f.(type) {
			case *wire.PathChallengeFrame, *wire.PathResponseFrame:
				// Validation frames only make sense on their own path.
				pathID = int64(p.ID)
			}
			c.ctrlQ = append(c.ctrlQ, ctrlItem{frame: f, pathID: pathID, reliable: true})
		}
	}
	p.Space.Reclaim()
	if len(lost) > 0 {
		c.tr.MetricsUpdated(now, p.ID, p.CC.Window(),
			p.CC.BytesInFlight(), p.CC.InSlowStart(), p.RTT.Smoothed())
		c.wakeSend()
	}
}

// evacuatePath reschedules everything stranded on a failed or demoted path
// onto the surviving paths: all unacked packets are declared lost, their
// stream data re-queued for retransmission, and the congestion state
// cleared (the MPTCP-style failover re-injection the paper builds on).
func (c *Conn) evacuatePath(now time.Duration, p *Path) {
	lost := p.Space.DeclareAllLost(now)
	c.handleLost(now, p, lost, "evacuated")
	p.CC.Reset()
}

// OpenStream creates a new locally initiated stream on an established
// connection.
func (c *Conn) OpenStream() *SendStream {
	id := LocalStreamID(c.cfg.IsClient, c.localStreams)
	c.localStreams++
	return c.Stream(id)
}

// LocalStreamID returns the n-th (from 0) bidirectional stream ID an
// endpoint initiates. RFC 9000 §2.1 spaces them 4 apart and marks the
// initiator in the low bit, set for a server.
func LocalStreamID(isClient bool, n uint64) uint64 {
	if isClient {
		return 4 * n
	}
	return 4*n + 1
}

// Stream returns the send half for a stream ID, creating it if needed
// (servers respond on the client's stream IDs this way). Call it on an
// established connection. A send half already forgotten comes back detached:
// finished, so that Write, Close and Reset send nothing.
func (c *Conn) Stream(id uint64) *SendStream {
	if s := c.sendStreams[id]; s != nil {
		return s
	}
	if c.sendClosed.has(id) {
		return &SendStream{id: id, conn: c, prio: int(id), fin: true, retired: true}
	}
	s := &SendStream{
		id:          id,
		conn:        c,
		prio:        int(id),
		peerMaxData: c.cfg.Params.InitialMaxStrData,
		data:        segBuf{acct: &c.sendAcct, pooled: true},
	}
	if c.state == stateEstablished {
		// Use the peer's advertised default once known.
		s.peerMaxData = c.peerStreamLimit()
	}
	c.sendStreams[id] = s
	c.insertInOrder(s)
	return s
}

// OpenStreams returns how many send and receive stream halves the connection
// holds, retired send halves with packets in flight included (DESIGN.md §17).
func (c *Conn) OpenStreams() (send, recv int) {
	return len(c.sendStreams), len(c.recvStreams)
}

// peerStreamLimit returns the per-stream limit the peer advertised in the
// handshake — the one it enforces on what we send.
func (c *Conn) peerStreamLimit() uint64 { return c.peerMaxStrData }

// StopSending asks the peer to stop sending on a stream — how a short-video
// client abandons chunks when the viewer swipes away. Call it on an
// established connection.
func (c *Conn) StopSending(id uint64, code uint64) {
	rs := c.recvStreams[id]
	if rs != nil && rs.finished || rs == nil && c.recvClosed.has(id) {
		return
	}
	c.queueCtrl(&wire.StopSendingFrame{StreamID: id, ErrorCode: code}, -1, true)
	if rs != nil {
		rs.finish() // stop delivering further data to the app
		c.maybeForgetRecv(rs)
	}
}

// AbandonPath closes a path explicitly (Sec 6, "Path close"): the peer is
// told via PATH_STATUS(abandon), stranded data is rescheduled onto the
// remaining paths, and local resources are released. Used when the
// application knows an interface went away (Wi-Fi turned off, signal
// fading below threshold). Call it on an established connection; closing
// and draining connections send nothing more.
func (c *Conn) AbandonPath(id uint64) {
	p := c.paths[id]
	if p == nil || p.State == PathClosed {
		return
	}
	now := c.env.Now()
	p.lastStatusSeq++
	c.queueCtrl(&wire.PathStatusFrame{
		PathID: id, StatusSeq: p.lastStatusSeq, Status: wire.PathAbandon,
	}, -1, true)
	p.State = PathClosed
	c.tr.PathAbandoned(now, id, "local-abandon")
	c.evacuatePath(now, p)
	c.wakeSend()
	c.rearmTimer()
}

// anotherUsablePath reports whether a usable path other than p exists — the
// precondition for giving up on p entirely.
func (c *Conn) anotherUsablePath(p *Path) bool {
	for _, id := range c.pathOrder {
		q := c.paths[id]
		if q != p && q.State != PathClosed && q.Usable() {
			return true
		}
	}
	return false
}

// MigratePrimary implements QUIC connection migration (CM baseline): the
// primary path moves to another local interface. Congestion window and RTT
// state are reset, forcing a fresh slow start — the cost the paper
// highlights for CM (Sec 2, "CM requires resetting the congestion window
// after migration"). In-flight data is evacuated for retransmission. Call
// it on an established connection.
func (c *Conn) MigratePrimary(netIdx int, tech trace.Technology) {
	p := c.paths[0]
	if p == nil || p.NetIdx == netIdx {
		return
	}
	now := c.env.Now()
	p.NetIdx = netIdx
	p.Tech = tech
	c.tr.PathStateChanged(now, p.ID, p.State.String(), "migrated")
	c.evacuatePath(now, p)
	p.RTT.Reset()
	p.suspect = false
	// Announce the migration: the peer learns the new address from the
	// first packet it receives on it (and its loss recovery restarts from
	// the ack this elicits).
	c.queueCtrl(&wire.PingFrame{}, int64(p.ID), false)
	c.wakeSend()
	c.rearmTimer()
}

// Close terminates the connection, notifying the peer with CONNECTION_CLOSE
// on every path that can carry it, then enters the closing state (RFC 9000
// §10.2.1): the frame is retained and re-sent in response to stray peer
// packets until 3×PTO elapses, when the connection becomes terminal.
func (c *Conn) Close(code uint64, reason string) {
	if c.state >= stateClosing {
		return
	}
	if c.txSealer == nil {
		// Mid-handshake: no 1-RTT keys to seal a close with. Terminate
		// immediately and silently.
		c.closeSilently(c.env.Now(), code, reason)
		return
	}
	c.closeFrame = &wire.ConnectionCloseFrame{ErrorCode: code, Reason: reason}
	now := c.env.Now()
	c.resendClose(now)
	c.enterClosing(now, code, reason)
}

// resendClose transmits the retained CONNECTION_CLOSE on every path that has
// a usable destination CID — not just active paths, so a close issued during
// a blackout still reaches the peer if any address works.
func (c *Conn) resendClose(now time.Duration) {
	if c.closeFrame == nil || c.txSealer == nil {
		return
	}
	for _, id := range c.pathOrder {
		p := c.paths[id]
		if p.State == PathClosed || p.DCID == nil {
			continue
		}
		frames := append(c.sendFrames[:0], c.closeFrame)
		c.sendFrames = frames[:0]
		c.emit(now, p, frames, nil, "close")
	}
}

// maxPathPTO returns the largest PTO interval across paths, the unit of the
// §10.2 drain period.
func (c *Conn) maxPathPTO() time.Duration {
	max := c.initRTT.PTO()
	for _, id := range c.pathOrder {
		if pto := c.paths[id].RTT.PTO(); pto > max {
			max = pto
		}
	}
	return max
}

// recordClose stamps the close outcome into stats and fires OnClosed once.
func (c *Conn) recordClose(now time.Duration, code uint64, reason string, local bool) {
	if c.closedFired {
		return
	}
	c.closedFired = true
	c.stats.CloseErrorCode = code
	c.stats.CloseReason = reason
	c.stats.CloseLocal = local
	if code != 0 {
		// Error closes are the post-mortems the flight recorder exists
		// for: snapshot the last-N events before the state is torn down.
		c.tr.Anomaly(now, "error_close")
	}
	if c.cfg.OnClosed != nil {
		c.cfg.OnClosed(now, code, reason, local)
	}
	// Out of service, the connection neither sends nor delivers stream data
	// again, but the drain timer keeps it reachable for three PTOs — about
	// three seconds on a live endpoint — and the application may hold on to
	// its stream handles for longer. Empty the stream buffers and forget the
	// streams now, or an endpoint that turns connections over faster than
	// that holds every closed connection's payload at once.
	for _, s := range c.streamsInOrder() { // a retired stream holds nothing
		s.data.drop()
	}
	//xlinkvet:ignore maprange — release order reaches nothing: receive segments go to the garbage collector
	for _, rs := range c.recvStreams {
		rs.data.drop()
	}
	clear(c.sendStreams)
	clear(c.recvStreams)
	c.streamOrder = nil
}

// enterClosing starts the local-close drain period: handshake or
// established to closing.
func (c *Conn) enterClosing(now time.Duration, code uint64, reason string) {
	old := c.state
	c.state = stateClosing
	c.drainDeadline = now + 3*c.maxPathPTO()
	c.tr.ConnStateChanged(now, old.String(), c.state.String(), code, reason)
	c.recordClose(now, code, reason, true)
	c.rearmTimer()
}

// enterDraining reacts to a peer CONNECTION_CLOSE: go silent (handshake or
// established to draining), wait out the drain period so late packets are
// absorbed, then terminate.
func (c *Conn) enterDraining(now time.Duration, code uint64, reason string) {
	if c.state >= stateClosing {
		return
	}
	old := c.state
	c.state = stateDraining
	c.drainDeadline = now + 3*c.maxPathPTO()
	c.tr.ConnStateChanged(now, old.String(), c.state.String(), code, reason)
	c.recordClose(now, code, reason, false)
	c.rearmTimer()
}

// closeSilently terminates without notifying the peer — idle timeout
// (RFC 9000 §10.1) and handshake failure, where no send is possible or
// useful. It ends in enterTerminal, which traces the transition.
func (c *Conn) closeSilently(now time.Duration, code uint64, reason string) {
	if c.state == stateClosed {
		return
	}
	c.recordClose(now, code, reason, true)
	c.enterTerminal(now)
}

// enterTerminal moves to the terminal closed state, traces the transition
// and cancels all timers, quiescing the event loop. Every way into closed
// goes through it.
func (c *Conn) enterTerminal(now time.Duration) {
	old := c.state
	c.state = stateClosed
	c.tr.ConnStateChanged(now, old.String(), c.state.String(),
		c.stats.CloseErrorCode, c.stats.CloseReason)
	c.cancelTimer()
}
