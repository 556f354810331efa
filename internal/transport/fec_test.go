package transport

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/sim"
	"repro/internal/wire"
)

// --- GF(256) / code algebra ---------------------------------------------

func TestGFFieldProperties(t *testing.T) {
	// Multiplicative identity and annihilator.
	for a := 0; a < 256; a++ {
		if gfMul(byte(a), 1) != byte(a) {
			t.Fatalf("gfMul(%d,1) != %d", a, a)
		}
		if gfMul(byte(a), 0) != 0 {
			t.Fatalf("gfMul(%d,0) != 0", a)
		}
	}
	// Inverses: a * a^-1 == 1 for every nonzero element.
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a*inv(a) = %d for a=%d", got, a)
		}
	}
	// Commutativity and associativity, exhaustive pairs + sampled triples.
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if gfMul(byte(a), byte(b)) != gfMul(byte(b), byte(a)) {
				t.Fatalf("gfMul not commutative at %d,%d", a, b)
			}
		}
	}
	rng := sim.NewRNG(1).Fork("gf")
	for n := 0; n < 10000; n++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(gfMul(a, b), c) != gfMul(a, gfMul(b, c)) {
			t.Fatalf("gfMul not associative at %d,%d,%d", a, b, c)
		}
		// Distributivity over XOR (the field addition).
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("gfMul not distributive at %d,%d,%d", a, b, c)
		}
	}
}

// TestFECCoeffInvertible checks the MDS property the decoder relies on:
// every square submatrix of the Cauchy coefficient matrix (rows = repair
// symbols, columns = missing source symbols) is invertible, so any m losses
// are recoverable from any m received repairs.
func TestFECCoeffInvertible(t *testing.T) {
	for j := 0; j < wire.MaxFECRepairSymbols; j++ {
		for i := 0; i < wire.MaxFECSourceSymbols; i++ {
			if fecCoeff(wire.FECSchemeRS, j, i) == 0 {
				t.Fatalf("zero coefficient at repair %d source %d", j, i)
			}
		}
	}
	rng := sim.NewRNG(2).Fork("cauchy")
	invertible := func(rows, cols []int) bool {
		m := len(rows)
		var mat [wire.MaxFECRepairSymbols][wire.MaxFECRepairSymbols]byte
		for r := 0; r < m; r++ {
			for c := 0; c < m; c++ {
				mat[r][c] = fecCoeff(wire.FECSchemeRS, rows[r], cols[c])
			}
		}
		for col := 0; col < m; col++ {
			piv := -1
			for r := col; r < m; r++ {
				if mat[r][col] != 0 {
					piv = r
					break
				}
			}
			if piv < 0 {
				return false
			}
			mat[piv], mat[col] = mat[col], mat[piv]
			inv := gfInv(mat[col][col])
			for c := col; c < m; c++ {
				mat[col][c] = gfMul(mat[col][c], inv)
			}
			for r := 0; r < m; r++ {
				if r == col || mat[r][col] == 0 {
					continue
				}
				f := mat[r][col]
				for c := col; c < m; c++ {
					mat[r][c] ^= gfMul(f, mat[col][c])
				}
			}
		}
		return true
	}
	pick := func(n, k int) []int {
		out := make([]int, 0, k)
		for len(out) < k {
			v := rng.Intn(n)
			dup := false
			for _, o := range out {
				if o == v {
					dup = true
				}
			}
			if !dup {
				out = append(out, v)
			}
		}
		return out
	}
	for m := 1; m <= wire.MaxFECRepairSymbols; m++ {
		for trial := 0; trial < 50; trial++ {
			rows := pick(wire.MaxFECRepairSymbols, m)
			cols := pick(wire.MaxFECSourceSymbols, m)
			if !invertible(rows, cols) {
				t.Fatalf("singular %dx%d submatrix rows=%v cols=%v", m, m, rows, cols)
			}
		}
	}
}

// --- decoder unit tests (direct frame injection) ------------------------

// fecPair establishes a two-path connection pair with FEC negotiated.
func fecPair(t *testing.T, seed int64) *Pair {
	t.Helper()
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	ccfg.Params.EnableFEC = true
	scfg.Params.EnableFEC = true
	pair := NewPair(loop, sim.NewRNG(seed), TwoPathConfig(20, 20, 10*time.Millisecond, 30*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(2 * time.Second)
	if !pair.Client.Established() || !pair.Server.Established() {
		t.Fatal("handshake did not complete")
	}
	if !pair.Client.fecEnabled || !pair.Server.fecEnabled {
		t.Fatal("FEC not negotiated")
	}
	return pair
}

// fecRepairFor computes repair symbol j over the window's source symbols.
func fecRepairFor(scheme uint64, j, symSize int, data []byte) []byte {
	out := make([]byte, symSize)
	k := (len(data) + symSize - 1) / symSize
	for i := 0; i < k; i++ {
		end := (i + 1) * symSize
		if end > len(data) {
			end = len(data)
		}
		fecMulAddInto(out, data[i*symSize:end], fecCoeff(scheme, j, i))
	}
	return out
}

func TestFECXORRecoversSingleLoss(t *testing.T) {
	pair := fecPair(t, 9)
	col := newCollector()
	pair.Client.SetOnStreamData(col.onData)
	now := 2 * time.Second

	const symSize, k, streamID = 32, 4, 8
	data := make([]byte, symSize*k)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	// Deliver every symbol except #2 through the stream lane.
	for i := 0; i < k; i++ {
		if i == 2 {
			continue
		}
		pair.Client.handleStreamFrame(now, &wire.StreamFrame{
			StreamID: streamID,
			Offset:   uint64(i * symSize),
			Data:     data[i*symSize : (i+1)*symSize],
		})
	}
	pair.Client.handleFECWindow(now, &wire.FECWindowFrame{
		WindowID: 1, StreamID: streamID, BaseOffset: 0,
		DataLen: uint64(len(data)), SymbolSize: symSize,
		Scheme: wire.FECSchemeXOR, Repairs: 1,
	})
	pair.Client.handleFECRepair(now, &wire.FECRepairFrame{
		WindowID: 1, Index: 0, Data: fecRepairFor(wire.FECSchemeXOR, 0, symSize, data),
	})

	st := pair.Client.Stats()
	if st.FECRecoveredBytes != symSize {
		t.Fatalf("FECRecoveredBytes = %d, want %d", st.FECRecoveredBytes, symSize)
	}
	if buf := col.data[streamID]; buf == nil || !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("recovered stream data does not match the original")
	}
	if st.FECDecoderGiveUps != 0 {
		t.Fatalf("unexpected give-ups: %d", st.FECDecoderGiveUps)
	}
}

func TestFECRSRecoversTwoLosses(t *testing.T) {
	pair := fecPair(t, 10)
	col := newCollector()
	pair.Client.SetOnStreamData(col.onData)
	now := 2 * time.Second

	// Short tail: dataLen is not a symbol multiple, and the two missing
	// symbols include the short last one. Repairs arrive BEFORE the window
	// announcement to exercise the orphan stash, and out of index order.
	const symSize, streamID = 48, 8
	data := make([]byte, symSize*5-17)
	for i := range data {
		data[i] = byte(i*13 + 1)
	}
	pair.Client.handleFECRepair(now, &wire.FECRepairFrame{
		WindowID: 7, Index: 2, Data: fecRepairFor(wire.FECSchemeRS, 2, symSize, data),
	})
	pair.Client.handleFECRepair(now, &wire.FECRepairFrame{
		WindowID: 7, Index: 0, Data: fecRepairFor(wire.FECSchemeRS, 0, symSize, data),
	})
	if pair.Client.Stats().FECRecoveredBytes != 0 {
		t.Fatal("nothing should recover before the window announcement")
	}
	// Deliver symbols 0, 2, 3; symbols 1 and 4 (the short tail) are lost.
	for _, i := range []int{0, 2, 3} {
		pair.Client.handleStreamFrame(now, &wire.StreamFrame{
			StreamID: streamID,
			Offset:   uint64(i * symSize),
			Data:     data[i*symSize : (i+1)*symSize],
		})
	}
	pair.Client.handleFECWindow(now, &wire.FECWindowFrame{
		WindowID: 7, StreamID: streamID, BaseOffset: 0,
		DataLen: uint64(len(data)), SymbolSize: symSize,
		Scheme: wire.FECSchemeRS, Repairs: 3,
	})

	st := pair.Client.Stats()
	wantRecovered := uint64(symSize + (len(data) - 4*symSize))
	if st.FECRecoveredBytes != wantRecovered {
		t.Fatalf("FECRecoveredBytes = %d, want %d", st.FECRecoveredBytes, wantRecovered)
	}
	if buf := col.data[streamID]; buf == nil || !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("recovered stream data does not match the original")
	}
}

func TestFECDecoderGiveUps(t *testing.T) {
	pair := fecPair(t, 11)
	now := 2 * time.Second

	// Malformed repair: payload length contradicts the window's symbol size.
	pair.Client.handleFECWindow(now, &wire.FECWindowFrame{
		WindowID: 1, StreamID: 8, BaseOffset: 0,
		DataLen: 64, SymbolSize: 32, Scheme: wire.FECSchemeRS, Repairs: 2,
	})
	pair.Client.handleFECRepair(now, &wire.FECRepairFrame{
		WindowID: 1, Index: 0, Data: make([]byte, 16),
	})
	if got := pair.Client.Stats().FECDecoderGiveUps; got != 1 {
		t.Fatalf("give-ups after malformed repair = %d, want 1", got)
	}

	// Too many losses: no stream data at all, k=4 but only 1 repair symbol
	// announced — the window can never recover and must retire.
	pair.Client.handleFECWindow(now, &wire.FECWindowFrame{
		WindowID: 2, StreamID: 9, BaseOffset: 0,
		DataLen: 128, SymbolSize: 32, Scheme: wire.FECSchemeXOR, Repairs: 1,
	})
	pair.Client.handleFECRepair(now, &wire.FECRepairFrame{
		WindowID: 2, Index: 0, Data: make([]byte, 32),
	})
	if got := pair.Client.Stats().FECDecoderGiveUps; got != 2 {
		t.Fatalf("give-ups after unrecoverable window = %d, want 2", got)
	}
	// Both failures leave the decoder live and the connection untouched.
	if pair.Client.Stats().FECRecoveredBytes != 0 {
		t.Fatal("no bytes should have been recovered")
	}
}

func TestFECWindowEviction(t *testing.T) {
	pair := fecPair(t, 12)
	now := 2 * time.Second
	// Announce one more live window than the decoder retains; none ever
	// completes, so the oldest must be FIFO-evicted with a give-up.
	for i := 0; i <= maxActiveFECWindows; i++ {
		pair.Client.handleFECWindow(now, &wire.FECWindowFrame{
			WindowID: uint64(i + 1), StreamID: 8, BaseOffset: uint64(i * 1024),
			DataLen: 1024, SymbolSize: 512, Scheme: wire.FECSchemeXOR, Repairs: 1,
		})
	}
	if got := pair.Client.Stats().FECDecoderGiveUps; got != 1 {
		t.Fatalf("give-ups after eviction = %d, want 1", got)
	}
	if got := len(pair.Client.fecDec.wins); got != maxActiveFECWindows {
		t.Fatalf("live windows = %d, want %d", got, maxActiveFECWindows)
	}
}

// --- end-to-end ----------------------------------------------------------

func TestFECRecoversLostDataEndToEnd(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	ccfg.Params.EnableFEC = true
	scfg.Params.EnableFEC = true
	// Force protection with enough repairs to ride out the drop pattern.
	scfg.FECGate = func(now, maxDeliver time.Duration, loss float64, k int) (bool, int) {
		return true, 4
	}
	pair := NewPair(loop, sim.NewRNG(21), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	// Deterministically drop every 9th large (data-bearing) server→client
	// packet on each path once the handshake is done.
	for _, p := range pair.Network.Paths {
		n := 0
		p.Down().SetDropFunc(func(data []byte) bool {
			if len(data) < 600 {
				return false
			}
			n++
			return n%9 == 0
		})
	}
	transfer(t, pair, 512<<10, 30*time.Second)

	sst := pair.Server.Stats()
	cst := pair.Client.Stats()
	if sst.FECWindowsSent == 0 || sst.FECRepairsSent == 0 {
		t.Fatalf("server sent no FEC frames: %+v", sst)
	}
	if cst.FECWindowsRecv == 0 || cst.FECRepairsRecv == 0 {
		t.Fatal("client saw no FEC frames")
	}
	if cst.FECRecoveredBytes == 0 {
		t.Fatal("decoder recovered nothing despite forced loss")
	}
	// The recovery reports must have reached the sender and suppressed at
	// least part of the retransmission load (lane rule 2).
	if sst.FECSuppressedBytes == 0 {
		t.Fatal("sender never suppressed a retransmission from FEC_RECOVERED")
	}
	// A byte the decoder rebuilt is held by the client but never
	// acknowledged, since it is never sent again: the response stream still
	// retires, and both ends forget the exchange.
	for _, c := range []*Conn{pair.Server, pair.Client} {
		if send, recv := c.OpenStreams(); send != 0 || recv != 0 {
			t.Fatalf("after the transfer, %s holds %d send and %d receive halves", c.StateName(), send, recv)
		}
	}
	if !pair.Server.sendClosed.has(0) {
		t.Fatal("the server's response stream was not retired")
	}
}

// TestFECRecoveredRetiresStream: when the peer's FEC_RECOVERED fills a
// stream's last hole after the packet that lost it was declared lost and the
// FIN acknowledged, no acknowledgement is left to come, so the report itself
// must retire the stream and forget it.
func TestFECRecoveredRetiresStream(t *testing.T) {
	pair := fecPair(t, 14)
	srv := pair.Server
	srv.inSend = true // the chunks are cut by hand below, not by a send pass
	s := srv.Stream(0)
	s.Write(make([]byte, 20))
	s.Close()
	lost, _ := s.nextNewChunk(10)
	last, _ := s.nextNewChunk(10)
	s.inFlight += 2
	s.onChunkLost(lost)
	srv.chunkResolved(s)
	s.onChunkAcked(last)
	srv.chunkResolved(s)
	if !last.fin || s.retired || srv.sendStreams[0] == nil {
		t.Fatalf("set-up: FIN on the last chunk %v, retired %v", last.fin, s.retired)
	}
	injectFrames(pair, &wire.FECRecoveredFrame{StreamID: 0, Offset: 0, Length: 10})
	if !s.retired || srv.sendStreams[0] != nil || !s.rtx.Empty() {
		t.Fatalf("after the recovery report: retired %v, held %v, %d bytes queued for retransmission",
			s.retired, srv.sendStreams[0] != nil, s.rtx.Size())
	}
}

func TestFECNegotiationFallback(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	ccfg.Params.EnableFEC = true // server side stays off
	pair := NewPair(loop, sim.NewRNG(22), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	transfer(t, pair, 128<<10, 10*time.Second)
	if pair.Client.fecEnabled || pair.Server.fecEnabled {
		t.Fatal("FEC must not enable when only one side offers it")
	}
	if st := pair.Server.Stats(); st.FECWindowsSent != 0 || st.FECRepairsSent != 0 {
		t.Fatalf("non-negotiated connection sent FEC frames: %+v", st)
	}
	if st := pair.Client.Stats(); st.FECWindowsRecv != 0 {
		t.Fatal("client counted FEC frames that were never sent")
	}
}

func TestFECCoverageSuppressesReinjection(t *testing.T) {
	// With the whole stream FEC-covered, the re-injection scanner must not
	// duplicate any of it (lane rule 1), even in a mode that otherwise
	// re-injects at the stream tail.
	run := func(enableFEC bool) ConnStats {
		loop := sim.NewLoop()
		ccfg, scfg := defaultMPConfig()
		ccfg.Params.EnableFEC = enableFEC
		scfg.Params.EnableFEC = enableFEC
		scfg.ReinjectionMode = ReinjectStreamPriority
		scfg.FECGate = func(now, maxDeliver time.Duration, loss float64, k int) (bool, int) {
			return true, 1
		}
		pair := NewPair(loop, sim.NewRNG(23), TwoPathConfig(8, 2, 20*time.Millisecond, 100*time.Millisecond), ccfg, scfg)
		transfer(t, pair, 256<<10, 30*time.Second)
		return pair.Server.Stats()
	}
	with := run(true)
	without := run(false)
	if without.ReinjectedBytesSent == 0 {
		t.Fatal("baseline should re-inject at the stream tail")
	}
	if with.ReinjectedBytesSent >= without.ReinjectedBytesSent {
		t.Fatalf("FEC coverage should shrink re-injection: with=%d without=%d",
			with.ReinjectedBytesSent, without.ReinjectedBytesSent)
	}
	if with.FECWindowsSent == 0 {
		t.Fatal("FEC run sent no windows")
	}
}

// --- allocation gates (DESIGN.md §11/§13) --------------------------------

// TestAllocGateFECKernel pins the FEC lane's per-packet work at its
// allocation budget: the GF(256) coding kernels and the encoder accumulate
// path at zero, closing a window at exactly the frames it queues, a STREAM
// frame arriving while a window waits for its repairs at zero, and a warm
// two-loss decode within a fixed ceiling. Repair generation runs inside the
// send loop for every first transmission when FEC is negotiated, and every
// received STREAM frame of a protected stream walks the open windows.
func TestAllocGateFECKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state measurement")
	}
	dst := make([]byte, 1024)
	src := make([]byte, 1024)
	for i := range src {
		src[i] = byte(i)
	}
	if n := testing.AllocsPerRun(200, func() {
		fecMulAddInto(dst, src, 1)    // XOR fast path
		fecMulAddInto(dst, src, 0x1d) // general multiply-accumulate
		fecScaleRow(dst, 0x35)
	}); n != 0 {
		t.Fatalf("coding kernel allocates %.1f/op, want 0", n)
	}

	// Encoder accumulate: chunks flow into the pre-sized window buffer
	// without growing it. Flushing is gated separately below.
	c := &Conn{}
	c.fecInit()
	// The buffer extends past the accumulated range so no chunk ends at a
	// frame boundary — a boundary would flush, and flushing queues frames
	// (which needs a full connection and allocates by design).
	s := &SendStream{id: 1, written: 4096}
	s.data.put(0, make([]byte, 4096))
	if n := testing.AllocsPerRun(200, func() {
		c.fecEnc.active = false
		c.fecEnc.buf = c.fecEnc.buf[:0]
		for off := uint64(0); off < 2048; off += 512 {
			c.fecAddSource(0, s, chunk{streamID: 1, offset: off, length: 512, isNew: true})
		}
	}); n != 0 {
		t.Fatalf("encoder accumulate allocates %.1f/op, want 0", n)
	}

	// Window close: a send pass that runs out of data protects the tail.
	// fecTailFlush closes the two-symbol window, the default plan (no gate,
	// no loss measured) asks for one repair, and the flush queues exactly what
	// outlives it — the FEC_WINDOW frame, the repair's payload and its
	// FEC_REPAIR frame. Like maybeSend, the closure runs as a send pass, so
	// queuing wakes no second one.
	pair := fecPair(t, 13)
	srv := pair.Server
	now := 2 * time.Second
	closeWindow := func() {
		srv.inSend = true
		for off := uint64(0); off < 2048; off += 512 {
			srv.fecAddSource(now, s, chunk{streamID: 1, offset: off, length: 512, isNew: true})
		}
		srv.fecTailFlush(now)
		srv.inSend = false
		clear(srv.ctrlQ) // the frames would leave with the pass's next packet
		srv.ctrlQ = srv.ctrlQ[:0]
	}
	closeWindow()
	windows, repairs := srv.stats.FECWindowsSent, srv.stats.FECRepairsSent
	if n := testing.AllocsPerRun(200, closeWindow); n != 3 {
		t.Fatalf("closing a one-repair window allocates %.1f/op, want the 3 queued objects", n)
	}
	if w, r := srv.stats.FECWindowsSent-windows, srv.stats.FECRepairsSent-repairs; w != 201 || r != 201 {
		t.Fatalf("%d windows with %d repairs sent, want 201 of each", w, r)
	}

	// Warm receive: a window is announced and its repairs have not arrived,
	// so every in-order STREAM frame of its stream passes through
	// fecOnStreamData, which finds the window still open and waiting.
	cli := pair.Client
	const recvStream, symSize = 4, 64
	cli.handleFECWindow(now, &wire.FECWindowFrame{
		WindowID: 1 << 20, StreamID: recvStream, BaseOffset: 0,
		DataLen: wire.MaxFECSourceSymbols * symSize * 8, SymbolSize: symSize * 8,
		Scheme: wire.FECSchemeRS, Repairs: 2,
	})
	sf := &wire.StreamFrame{StreamID: recvStream, Data: make([]byte, symSize)}
	recv := func() {
		cli.handleStreamFrame(now, sf)
		sf.Offset += symSize
	}
	recv()
	// The xlinkdebug assertions allocate on the reassembly path by design,
	// so the precise budgets only hold in release mode.
	recvGate, solveGate := 0.0, 16.0
	if assert.Enabled {
		recvGate, solveGate = 2, 48
	}
	if n := testing.AllocsPerRun(200, recv); n > recvGate {
		t.Fatalf("a STREAM frame under an open window allocates %.1f/op, gate %.0f", n, recvGate)
	}
	if w := cli.fecDec.find(1 << 20); w == nil || w.done || cli.recvStreams[recvStream].delivered != sf.Offset {
		t.Fatalf("window retired early or %d of %d bytes delivered", cli.recvStreams[recvStream].delivered, sf.Offset)
	}

	// Decoder solve: the window is announced first, so its source symbols
	// pass through fecOnStreamData; two of four are lost and two RS repairs
	// rebuild them (Gauss-Jordan over GF(256)). After the first recovery grew
	// the buffers, repeated solves of same-shaped windows must not allocate
	// beyond the window object and its repair table, the queued
	// FEC_RECOVERED frames, the recovered-range bookkeeping and the frames
	// the closure builds itself. Measured 12.
	const streamID = 8
	data := make([]byte, symSize*4)
	for i := range data {
		data[i] = byte(i * 3)
	}
	repair := [2][]byte{
		fecRepairFor(wire.FECSchemeRS, 0, symSize, data),
		fecRepairFor(wire.FECSchemeRS, 1, symSize, data),
	}
	winID := uint64(0)
	solveOnce := func() {
		winID++
		base := (winID - 1) * uint64(len(data))
		cli.handleFECWindow(now, &wire.FECWindowFrame{
			WindowID: winID, StreamID: streamID, BaseOffset: base,
			DataLen: uint64(len(data)), SymbolSize: symSize,
			Scheme: wire.FECSchemeRS, Repairs: 2,
		})
		for _, i := range []int{0, 2} {
			cli.handleStreamFrame(now, &wire.StreamFrame{
				StreamID: streamID,
				Offset:   base + uint64(i*symSize),
				Data:     data[i*symSize : (i+1)*symSize],
			})
		}
		for j := range repair {
			cli.handleFECRepair(now, &wire.FECRepairFrame{WindowID: winID, Index: uint64(j), Data: repair[j]})
		}
	}
	for i := 0; i < 8; i++ {
		solveOnce() // warm scratch, stream buffer, control queue
	}
	if n := testing.AllocsPerRun(100, solveOnce); n > solveGate {
		t.Fatalf("warm decode cycle allocates %.1f/op, gate %.0f", n, solveGate)
	}
	if got, want := cli.recvStreams[streamID].delivered, winID*uint64(len(data)); got != want {
		t.Fatalf("stream delivered %d bytes after %d windows, want %d", got, winID, want)
	}
	if cli.Stats().FECRecoveredBytes != 2*symSize*winID {
		t.Fatalf("%d bytes recovered over %d windows, want %d", cli.Stats().FECRecoveredBytes, winID, 2*symSize*winID)
	}
}
