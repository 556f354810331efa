package transport

import (
	"math"
	"time"

	"repro/internal/wire"
)

// Forward erasure correction: the third recovery lane (DESIGN.md §13).
//
// The sender groups first transmissions of one stream's data into windows
// of up to fecWindowSymbols symbols and emits repair symbols over them, so
// a receiver can rebuild a lost symbol without waiting an RTT for the
// ACK-driven lane or racing a re-injected copy. The code is a
// Cauchy-matrix Reed-Solomon-style code over GF(256): coefficient
// c(j,i) = 1/(x_j ⊕ y_i) with x_j = j (repair index, < 16) and
// y_i = 16+i (source index, < 80). The x's and y's are pairwise distinct,
// so every square submatrix of the coefficient matrix is invertible — any
// m ≤ repairs lost source symbols are recoverable from any m repair
// symbols. The XOR scheme is the repairs==1 special case (all-ones
// coefficients), kept as its own wire scheme for cheap single-loss
// protection.
//
// Lane-interaction rules:
//   - sender: FEC-covered ranges are skipped by re-injection scanning
//     (the QoE gate chose proactive protection over reactive duplication);
//     loss-triggered retransmission is NOT suppressed by coverage alone —
//     repairs ride unreliable frames and may themselves die.
//   - receiver: recovered ranges flow through the normal reassembly path
//     and are reported back with FEC_RECOVERED, which subtracts them from
//     the sender's retransmission queue and pending re-injections.
//   - fallbacks: a peer that does not negotiate enable_fec never sees FEC
//     frames; a malformed repair symbol or an over-lossy window retires the
//     window with a decoder give-up event and the classic two lanes finish
//     the job.

// GF(256) arithmetic with the AES/RS polynomial 0x11d. The exp table is
// doubled so gfMul needs no modular reduction of the log sum.
var (
	gfExp [512]byte
	gfLog [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// gfMul multiplies in GF(256).
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfInv inverts a nonzero GF(256) element.
func gfInv(a byte) byte {
	return gfExp[255-int(gfLog[a])]
}

// fecCoeff returns the code coefficient of source symbol i in repair
// symbol j. XOR is the all-ones row; RS is the Cauchy matrix described in
// the package comment.
func fecCoeff(scheme uint64, j, i int) byte {
	if scheme == wire.FECSchemeXOR {
		return 1
	}
	return gfInv(byte(j) ^ byte(16+i))
}

// fecMulAddInto accumulates dst ^= c·src over GF(256). src may be shorter
// than dst (a short final source symbol): the implicit zero padding
// contributes nothing, so iterating src's length is exact.
func fecMulAddInto(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i, b := range src {
			dst[i] ^= b
		}
		return
	}
	lc := int(gfLog[c])
	for i, b := range src {
		if b != 0 {
			dst[i] ^= gfExp[lc+int(gfLog[b])]
		}
	}
}

// fecScaleRow multiplies row in place by nonzero c over GF(256).
func fecScaleRow(row []byte, c byte) {
	if c == 1 {
		return
	}
	lc := int(gfLog[c])
	for i, b := range row {
		if b != 0 {
			row[i] = gfExp[lc+int(gfLog[b])]
		}
	}
}

// The encoder's window shape and the decoder's buffering bounds: the
// transport's own limits, within the wire-level sanity caps.
const (
	// fecSymbolSize is the source/repair symbol size in bytes; at most
	// wire.MaxFECSymbolSize, so a repair symbol always fits one datagram.
	fecSymbolSize = 1024
	// fecWindowSymbols caps source symbols per protection window; at most
	// wire.MaxFECSourceSymbols.
	fecWindowSymbols = 8
	// maxActiveFECWindows bounds live receive windows (FIFO eviction).
	maxActiveFECWindows = 16
	// maxOrphanRepairs bounds repair symbols stashed before their window
	// announcement arrives (frames may reorder across paths).
	maxOrphanRepairs = 32
)

// The window shape within the wire caps is a build-time fact: a negative
// array length does not compile.
var (
	_ [wire.MaxFECSymbolSize - fecSymbolSize]struct{}
	_ [wire.MaxFECSourceSymbols - fecWindowSymbols]struct{}
)

// fecEncoder accumulates contiguous first transmissions of one stream into
// the current protection window.
type fecEncoder struct {
	nextWindow uint64

	active   bool
	streamID uint64
	base     uint64 // stream offset of buf[0]
	buf      []byte // accumulated source data; cap fecSymbolSize*fecWindowSymbols
	scratch  []byte // repair generation scratch, repairs*fecSymbolSize
}

// fecRecvWindow is one announced protection window on the receive side.
type fecRecvWindow struct {
	id       uint64
	streamID uint64
	base     uint64
	dataLen  uint64
	symSize  int
	scheme   uint64
	repairs  int
	k        int

	repairData  [][]byte // by repair index; nil = not yet received
	haveRepairs int
	done        bool
}

// fecDecoder holds the receive windows, the orphan-repair stash, and the
// solve scratch reused across recoveries.
// fecGiveUpBurstN/fecGiveUpBurstWindow define the give-up-burst anomaly:
// N decoder give-ups within the window means the repair budget is being
// overwhelmed faster than episodic loss explains, which is worth a
// flight-recorder dump.
const (
	fecGiveUpBurstN      = 3
	fecGiveUpBurstWindow = time.Second
)

type fecDecoder struct {
	wins    []*fecRecvWindow
	orphans []*wire.FECRepairFrame

	// giveUpTimes is a small ring of recent give-up instants for burst
	// detection; giveUpIdx is the next write slot.
	giveUpTimes [fecGiveUpBurstN]time.Duration
	giveUpIdx   int
	giveUpSeen  int

	synBuf  []byte
	swapBuf []byte
	mat     [wire.MaxFECRepairSymbols][wire.MaxFECRepairSymbols]byte
	missIdx [wire.MaxFECRepairSymbols]int
	rowIdx  [wire.MaxFECRepairSymbols]int
}

// find returns the live window with the given ID, or nil.
func (d *fecDecoder) find(id uint64) *fecRecvWindow {
	for _, w := range d.wins {
		if w.id == id {
			return w
		}
	}
	return nil
}

// hasOpenWindows reports whether any undone window protects streamID —
// the cheap guard handleStreamFrame uses before walking windows.
func (d *fecDecoder) hasOpenWindows(streamID uint64) bool {
	for _, w := range d.wins {
		if !w.done && w.streamID == streamID {
			return true
		}
	}
	return false
}

// fecInit sizes the encoder buffers once FEC is negotiated. Called from
// becomeEstablished, off the hot path.
func (c *Conn) fecInit() {
	e := &c.fecEnc
	e.buf = make([]byte, 0, fecSymbolSize*fecWindowSymbols)
	e.scratch = make([]byte, wire.MaxFECRepairSymbols*fecSymbolSize)
}

// fecAddSource feeds one first-transmission chunk into the current window.
// A discontiguity (stream switch, offset gap) flushes the previous window
// first; a window reaching capacity or a chunk ending a tagged video frame
// (or carrying FIN) flushes immediately, so a window never straddles the
// boundary the QoE re-injection lane schedules around.
func (c *Conn) fecAddSource(now time.Duration, s *SendStream, ch chunk) {
	e := &c.fecEnc
	if ch.length == 0 {
		if ch.fin {
			c.fecFlush(now)
		}
		return
	}
	if e.active && (e.streamID != ch.streamID || e.base+uint64(len(e.buf)) != ch.offset) {
		c.fecFlush(now)
	}
	if len(e.buf)+int(ch.length) > cap(e.buf) {
		c.fecFlush(now)
	}
	if !e.active {
		e.active = true
		e.streamID = ch.streamID
		e.base = ch.offset
		e.buf = e.buf[:0]
	}
	e.buf = s.data.appendTo(e.buf, ch.offset, ch.length)
	if ch.fin || ch.offset+ch.length == s.frameAt(ch.offset).End {
		c.fecFlush(now)
	}
}

// fecTailFlush protects the tail of the current window at the end of a
// send pass — but only when the pass stopped because data ran out, not
// because congestion windows closed (more contiguous data is coming).
func (c *Conn) fecTailFlush(now time.Duration) {
	if !c.fecEnc.active {
		return
	}
	for _, s := range c.streamsInOrder() {
		if s.hasNewData() {
			return
		}
	}
	c.fecFlush(now)
}

// fecFlush closes the current window: asks the gate whether and how hard
// to protect it, generates the repair symbols, and queues the FEC_WINDOW
// and FEC_REPAIR frames (unreliable — retransmitting redundancy defeats
// its purpose).
func (c *Conn) fecFlush(now time.Duration) {
	e := &c.fecEnc
	if !e.active {
		return
	}
	e.active = false
	dataLen := len(e.buf)
	if dataLen == 0 {
		return
	}
	// A window smaller than one symbol shrinks the symbol to the data:
	// the single repair need not carry padding.
	sym := fecSymbolSize
	if dataLen < sym {
		sym = dataLen
	}
	k := (dataLen + sym - 1) / sym
	protect, repairs := c.fecPlan(now, k)
	if !protect || repairs <= 0 {
		e.buf = e.buf[:0]
		return
	}
	if repairs > k {
		repairs = k
	}
	if repairs > wire.MaxFECRepairSymbols {
		repairs = wire.MaxFECRepairSymbols
	}
	scheme := wire.FECSchemeRS
	if repairs == 1 {
		scheme = wire.FECSchemeXOR
	}
	winID := e.nextWindow
	e.nextWindow++

	scratch := e.scratch[:repairs*sym]
	for i := range scratch {
		scratch[i] = 0
	}
	for i := 0; i < k; i++ {
		start := i * sym
		end := start + sym
		if end > dataLen {
			end = dataLen
		}
		src := e.buf[start:end]
		for j := 0; j < repairs; j++ {
			fecMulAddInto(scratch[j*sym:(j+1)*sym], src, fecCoeff(scheme, j, i))
		}
	}

	win := &wire.FECWindowFrame{
		WindowID:   winID,
		StreamID:   e.streamID,
		BaseOffset: e.base,
		DataLen:    uint64(dataLen),
		SymbolSize: uint64(sym),
		Scheme:     scheme,
		Repairs:    uint64(repairs),
	}
	c.queueCtrl(win, -1, false)
	c.stats.FECWindowsSent++
	c.tr.FECSymbolSent(now, winID, e.streamID, -1, win.Len())
	for j := 0; j < repairs; j++ {
		// The queued frame owns its payload: the scratch is reused by the next window.
		payload := append([]byte(nil), scratch[j*sym:(j+1)*sym]...)
		c.queueCtrl(&wire.FECRepairFrame{WindowID: winID, Index: uint64(j), Data: payload}, -1, false)
		c.stats.FECRepairsSent++
		c.stats.FECRepairBytesSent += uint64(len(payload))
		c.tr.FECSymbolSent(now, winID, e.streamID, j, len(payload))
	}
	if s := c.sendStreams[e.streamID]; s != nil {
		// Proactive protection replaces reactive duplication for this range:
		// the re-injection scanner skips it (lane rule 1).
		s.fecCovered.Add(e.base, e.base+uint64(dataLen))
	}
	e.buf = e.buf[:0]
}

// fecPlan decides whether to protect a window of k source symbols and with
// how many repair symbols. The configured gate (the QoE redundancy
// controller) wins; the default is loss-proportional: ceil(k·loss) repairs
// clamped to [1, 4], always protecting.
func (c *Conn) fecPlan(now time.Duration, k int) (bool, int) {
	loss := c.pathLossRate()
	if c.cfg.FECGate != nil {
		return c.cfg.FECGate(now, c.maxDeliverTime(), loss, k)
	}
	repairs := int(math.Ceil(float64(k) * loss))
	if repairs < 1 {
		repairs = 1
	}
	if repairs > 4 {
		repairs = 4
	}
	return true, repairs
}

// pathLossRate estimates the connection-wide packet loss rate from the
// recovery spaces' counters, summed over paths (order-independent, so the
// estimate is deterministic). Below 32 sent packets it reports 0 — too few
// samples to size redundancy from.
func (c *Conn) pathLossRate() float64 {
	var sent, lost uint64
	for _, p := range c.paths {
		st := p.Space.Stats()
		sent += st.SentPackets
		lost += st.LostPackets
	}
	if sent < 32 {
		return 0
	}
	return float64(lost) / float64(sent)
}

// handleFECWindow ingests a window announcement: creates the receive
// window (FIFO-evicting the oldest live one past the cap), claims any
// repair symbols that arrived first, and tries an immediate recovery.
func (c *Conn) handleFECWindow(now time.Duration, fr *wire.FECWindowFrame) {
	if !c.fecEnabled {
		return // not negotiated: ignore silently (fallback rule)
	}
	c.stats.FECWindowsRecv++
	d := &c.fecDec
	if d.find(fr.WindowID) != nil {
		return // duplicate announcement
	}
	rs := c.recvStreams[fr.StreamID]
	if fr.BaseOffset+fr.DataLen > c.recvLimit(rs) && (rs != nil || !c.recvClosed.has(fr.StreamID)) {
		// Source data is sent within flow control, so no honest window
		// reaches beyond it; recovered bytes must not either. A forgotten
		// stream's window retires on arrival, as a finished stream's does.
		return
	}
	// Compact retired windows, then make room.
	w := 0
	for _, win := range d.wins {
		if !win.done {
			d.wins[w] = win
			w++
		}
	}
	for i := w; i < len(d.wins); i++ {
		d.wins[i] = nil
	}
	d.wins = d.wins[:w]
	for len(d.wins) >= maxActiveFECWindows {
		c.fecGiveUp(now, d.wins[0], "evicted")
		copy(d.wins, d.wins[1:])
		d.wins[len(d.wins)-1] = nil
		d.wins = d.wins[:len(d.wins)-1]
	}
	win := &fecRecvWindow{
		id:         fr.WindowID,
		streamID:   fr.StreamID,
		base:       fr.BaseOffset,
		dataLen:    fr.DataLen,
		symSize:    int(fr.SymbolSize),
		scheme:     fr.Scheme,
		repairs:    int(fr.Repairs),
		k:          fr.SourceSymbols(),
		repairData: make([][]byte, fr.Repairs),
	}
	d.wins = append(d.wins, win)
	// Claim stashed repairs for this window.
	o := 0
	for _, rf := range d.orphans {
		if rf.WindowID == fr.WindowID {
			c.fecAttachRepair(now, win, rf)
		} else {
			d.orphans[o] = rf
			o++
		}
	}
	for i := o; i < len(d.orphans); i++ {
		d.orphans[i] = nil
	}
	d.orphans = d.orphans[:o]
	c.fecTryRecoverWindow(now, win)
}

// handleFECRepair ingests one repair symbol, stashing it (bounded FIFO) if
// its window announcement has not arrived yet.
func (c *Conn) handleFECRepair(now time.Duration, fr *wire.FECRepairFrame) {
	if !c.fecEnabled {
		return
	}
	c.stats.FECRepairsRecv++
	c.tr.FECSymbolReceived(now, fr.WindowID, int(fr.Index), len(fr.Data))
	d := &c.fecDec
	w := d.find(fr.WindowID)
	if w == nil {
		if len(d.orphans) >= maxOrphanRepairs {
			copy(d.orphans, d.orphans[1:])
			d.orphans[len(d.orphans)-1] = nil
			d.orphans = d.orphans[:len(d.orphans)-1]
		}
		d.orphans = append(d.orphans, fr)
		return
	}
	c.fecAttachRepair(now, w, fr)
	c.fecTryRecoverWindow(now, w)
}

// fecAttachRepair pairs a repair symbol with its window. A symbol that
// contradicts the window's announcement (index beyond the announced count,
// payload not matching the symbol size) marks the whole window malformed:
// the decoder gives up and the classic lanes recover the data.
func (c *Conn) fecAttachRepair(now time.Duration, w *fecRecvWindow, fr *wire.FECRepairFrame) {
	if w.done {
		return
	}
	if int(fr.Index) >= w.repairs || len(fr.Data) != w.symSize {
		c.fecGiveUp(now, w, "malformed_repair")
		return
	}
	if w.repairData[fr.Index] != nil {
		return // duplicate symbol
	}
	w.repairData[fr.Index] = fr.Data
	w.haveRepairs++
}

// fecGiveUp retires a window without recovery.
func (c *Conn) fecGiveUp(now time.Duration, w *fecRecvWindow, reason string) {
	if w.done {
		return
	}
	w.done = true
	c.stats.FECDecoderGiveUps++
	c.tr.FECGiveUp(now, w.id, reason)
	d := &c.fecDec
	d.giveUpTimes[d.giveUpIdx] = now
	d.giveUpIdx = (d.giveUpIdx + 1) % fecGiveUpBurstN
	d.giveUpSeen++
	// The slot just advanced past holds the oldest of the last N give-ups:
	// if it is within the window, N landed inside it — a burst.
	if d.giveUpSeen >= fecGiveUpBurstN &&
		now-d.giveUpTimes[d.giveUpIdx] <= fecGiveUpBurstWindow {
		c.tr.Anomaly(now, "fec_giveup_burst")
	}
}

// fecOnStreamData re-examines the stream's live windows after new stream
// data arrived: windows whose range is now fully present retire, and a
// window whose missing count just dropped to its repair count may solve.
func (c *Conn) fecOnStreamData(now time.Duration, streamID uint64) {
	for _, w := range c.fecDec.wins {
		if !w.done && w.streamID == streamID {
			c.fecTryRecoverWindow(now, w)
		}
	}
}

// fecTryRecoverWindow retires a fully-received window, gives up on an
// unrecoverable one (more losses than repair symbols), waits if more
// repair symbols could still arrive, and otherwise solves.
func (c *Conn) fecTryRecoverWindow(now time.Duration, w *fecRecvWindow) {
	if w.done {
		return
	}
	d := &c.fecDec
	rs := c.recvStreams[w.streamID]
	if rs == nil && c.recvClosed.has(w.streamID) ||
		rs != nil && (rs.finished || rs.received.Contains(w.base, w.base+w.dataLen)) {
		w.done = true // everything arrived through the stream lane, or the stream is over
		return
	}
	if w.haveRepairs == 0 {
		return // nothing to solve with yet; keep the walk cheap
	}
	sym := uint64(w.symSize)
	winEnd := w.base + w.dataLen
	m := 0
	for i := 0; i < w.k; i++ {
		start := w.base + uint64(i)*sym
		end := start + sym
		if end > winEnd {
			end = winEnd
		}
		// A partially present symbol counts as missing: recovery rebuilds
		// it whole and reassembly absorbs the overlap as duplicate bytes.
		if rs == nil || !rs.received.Contains(start, end) {
			if m < len(d.missIdx) {
				d.missIdx[m] = i
			}
			m++
		}
	}
	if m == 0 {
		w.done = true
		return
	}
	if m > w.repairs {
		// More symbols lost than the code can ever recover: stop trying,
		// retransmission and re-injection finish the job.
		c.fecGiveUp(now, w, "too_many_losses")
		return
	}
	if m > w.haveRepairs {
		return // recoverable, but more repair symbols must arrive first
	}
	c.fecSolveWindow(now, w, rs, m)
}

// fecSolveWindow recovers the m missing source symbols of w from m received
// repair symbols: syndromes T_j = R_j ⊕ Σ_present c(j,i)·S_i reduce the
// system to an m×m Cauchy submatrix solved by Gauss-Jordan elimination over
// GF(256). Recovered bytes flow through the normal reassembly/delivery
// path and are reported to the sender with FEC_RECOVERED.
func (c *Conn) fecSolveWindow(now time.Duration, w *fecRecvWindow, rs *RecvStream, m int) {
	d := &c.fecDec
	sym := w.symSize
	winEnd := w.base + w.dataLen
	if rs != nil && w.base < rs.data.base() {
		// The present symbols were released: a window with a symbol missing
		// lies within fecHistory of the delivery point, so only a window the
		// peer misdescribed gets here.
		c.fecGiveUp(now, w, "malformed_repair")
		return
	}
	// The first m received repair symbols carry the solve.
	r := 0
	for j := 0; j < w.repairs && r < m; j++ {
		if w.repairData[j] != nil {
			d.rowIdx[r] = j
			r++
		}
	}
	if cap(d.synBuf) < m*sym {
		d.synBuf = make([]byte, m*sym)
	}
	if cap(d.swapBuf) < sym {
		d.swapBuf = make([]byte, sym)
	}
	syn := d.synBuf[:m*sym]
	for i := 0; i < m; i++ {
		copy(syn[i*sym:(i+1)*sym], w.repairData[d.rowIdx[i]])
	}
	// Subtract every fully-present source symbol's contribution.
	mi := 0
	for i := 0; i < w.k; i++ {
		if mi < m && d.missIdx[mi] == i {
			mi++
			continue
		}
		start := w.base + uint64(i)*uint64(sym)
		end := start + uint64(sym)
		if end > winEnd {
			end = winEnd
		}
		// The symbol may straddle two segments; the code is linear, so it is
		// folded in piece by piece.
		for at := 0; start < end; {
			src := rs.data.span(start, end-start)
			for rr := 0; rr < m; rr++ {
				fecMulAddInto(syn[rr*sym+at:(rr+1)*sym], src, fecCoeff(w.scheme, d.rowIdx[rr], i))
			}
			at += len(src)
			start += uint64(len(src))
		}
	}
	// Gauss-Jordan on (mat | syn).
	for rr := 0; rr < m; rr++ {
		for cc := 0; cc < m; cc++ {
			d.mat[rr][cc] = fecCoeff(w.scheme, d.rowIdx[rr], d.missIdx[cc])
		}
	}
	for col := 0; col < m; col++ {
		piv := -1
		for rr := col; rr < m; rr++ {
			if d.mat[rr][col] != 0 {
				piv = rr
				break
			}
		}
		if piv < 0 {
			// Unreachable for the Cauchy code, but a defensive give-up beats
			// a panic on a hostile peer's coefficients.
			c.fecGiveUp(now, w, "malformed_repair")
			return
		}
		if piv != col {
			d.mat[piv], d.mat[col] = d.mat[col], d.mat[piv]
			swap := d.swapBuf[:sym]
			copy(swap, syn[col*sym:(col+1)*sym])
			copy(syn[col*sym:(col+1)*sym], syn[piv*sym:(piv+1)*sym])
			copy(syn[piv*sym:(piv+1)*sym], swap)
		}
		if inv := gfInv(d.mat[col][col]); inv != 1 {
			for cc := col; cc < m; cc++ {
				d.mat[col][cc] = gfMul(d.mat[col][cc], inv)
			}
			fecScaleRow(syn[col*sym:(col+1)*sym], inv)
		}
		for rr := 0; rr < m; rr++ {
			if rr == col {
				continue
			}
			f := d.mat[rr][col]
			if f == 0 {
				continue
			}
			for cc := col; cc < m; cc++ {
				d.mat[rr][cc] ^= gfMul(f, d.mat[col][cc])
			}
			fecMulAddInto(syn[rr*sym:(rr+1)*sym], syn[col*sym:(col+1)*sym], f)
		}
	}
	// Inject the recovered symbols through the normal delivery path and
	// tell the sender (lane rule 2). FEC_RECOVERED is advisory and
	// unreliable: losing it only costs redundant resends.
	w.done = true
	for col := 0; col < m; col++ {
		i := d.missIdx[col]
		start := w.base + uint64(i)*uint64(sym)
		end := start + uint64(sym)
		if end > winEnd {
			end = winEnd
		}
		data := syn[col*sym : col*sym+int(end-start)]
		c.stats.FECRecoveredBytes += end - start
		c.tr.FECRecovered(now, w.id, w.streamID, start, int(end-start))
		if rs == nil { // held across symbols: the one that completes the stream forgets it
			rs = c.streamForRecv(now, w.streamID)
		}
		c.deliverStreamData(now, rs, start, data, false)
		c.queueCtrl(&wire.FECRecoveredFrame{StreamID: w.streamID, Offset: start, Length: end - start}, -1, false)
	}
}

// handleFECRecovered applies the receiver's recovery report on the sender:
// the range needs neither retransmission nor re-injection. The claim is
// clamped to data we actually wrote, so a hostile peer cannot poison
// bookkeeping beyond suppressing resends of bytes it says it holds.
func (c *Conn) handleFECRecovered(now time.Duration, fr *wire.FECRecoveredFrame) {
	if !c.fecEnabled {
		return
	}
	s := c.sendStreams[fr.StreamID]
	if s == nil {
		return
	}
	end := fr.Offset + fr.Length
	if end > s.written {
		end = s.written
	}
	if end <= fr.Offset {
		return
	}
	s.recovered.Add(fr.Offset, end)
	s.dropDelivered(fr.Offset, end)
	before := s.rtx.Size()
	s.rtx.Subtract(fr.Offset, end)
	c.stats.FECSuppressedBytes += before - s.rtx.Size()
	s.releaseDelivered()
	// The report may fill the stream's last hole after its last packet
	// resolved: no acknowledgement is coming to retire it.
	c.maybeForget(s)
}
