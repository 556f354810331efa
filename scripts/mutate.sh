#!/usr/bin/env bash
# Mutation audit of the verification gates (DESIGN.md §7; `make mutate`).
#
# Each mutation below is one realistic bug, one to five lines of the real
# tree, grouped by the class of hazard it stands for: a seed that no longer
# fixes a run, an unordered walk into an output, a dropped wire-parse error,
# a panic a peer can reach, a wall clock in a trace, an unchecked length, an
# allocation on a per-packet path, a buffer kept past its loan, a leaked
# goroutine, a double close, a broken connection lifecycle, a tree that does
# not build, a packet record freed too early, and a live connection touched
# off its shard. For every mutation the script applies it to a throw-away
# copy of the tree and runs the gates in cost order until the first one
# fails:
#
#   go build && go vet · go test of the touched packages · the same under
#   -tags xlinkdebug · the golden trace · the chaos corpus · TestAllocGate* ·
#   -race of the touched packages · 30 s of the touched wire fuzz target
#
# Every mutation that changes behaviour must be caught by one of them; the
# table this prints, with the first catcher of each row, is the one in
# DESIGN.md §7, and the script exits 1 if a row is caught by nothing. A row
# whose subject leaves the tree leaves the script with it. Not part of
# tier-1 or check.sh: a full run takes about 20 minutes.
#
# Usage: scripts/mutate.sh [ID...]      run all mutations, or only the named
#        MUTATE_WORK=dir                keep the copy and the gate logs there
set -uo pipefail

ROOT="$(git rev-parse --show-toplevel)"
if [ -n "${MUTATE_WORK:-}" ]; then
	WORK="$MUTATE_WORK"
	mkdir -p "$WORK"
else
	WORK="$(mktemp -d "${TMPDIR:-/tmp}/xlink-mutate.XXXXXX")"
	trap 'rm -rf "$WORK"' EXIT
fi
TREE="$WORK/tree"
LOGS="$WORK/logs"
rm -rf "$TREE" "$LOGS"
mkdir -p "$TREE" "$LOGS"
(cd "$ROOT" && git ls-files -z --cached --others --exclude-standard |
	tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -xf - -C "$TREE"

FUZZTIME=30s
ALLOC_PKGS="./internal/sim/ ./internal/crypto/ ./internal/rangeset/ ./internal/wire/ ./internal/transport/ ./internal/recovery/ ./internal/obs/ ./internal/video/ ./internal/netem/ ./internal/core/ ./internal/lb/ ./xlink/"

# --- the mutation table ---------------------------------------------------

IDS=()
declare -A CLASS FILE DESC PKGS FUZZ EQUIV BODY

# mut ID CLASS FILE PKGS DESC [fuzz=Target] [equiv=reason] <<'EOF' perl body EOF
# The body edits $_ (the whole file). rep(old, new) replaces a literal that
# must occur exactly once; anything else must `or die`.
mut() {
	local id="$1"
	IDS+=("$id")
	CLASS[$id]="$2" FILE[$id]="$3" PKGS[$id]="$4" DESC[$id]="$5"
	shift 5
	local opt
	for opt in "$@"; do
		case "$opt" in
		fuzz=*) FUZZ[$id]="${opt#fuzz=}" ;;
		equiv=*) EQUIV[$id]="${opt#equiv=}" ;;
		esac
	done
	BODY[$id]="$(cat)"
}

T="./internal/transport/ ./internal/chaos/ ./internal/core/"
W="./internal/wire/ ./internal/transport/ ./internal/chaos/"
X="./xlink/"

# determinism: no wall clock, no global math/rand in deterministic packages.
mut D1 determinism internal/transport/conn.go "$T" \
	"newCID draws from global math/rand instead of the connection's seeded RNG" <<'EOF'
rep(qq~import (\n\t"fmt"\n~, qq~import (\n\t"fmt"\n\t"math/rand"\n~);
rep(q~cid[i] = byte(c.rng.Intn(256))~, q~cid[i] = byte(rand.Intn(256))~);
EOF
mut D2 determinism internal/transport/conn.go "$T" \
	"becomeEstablished stamps HandshakeRTT from the wall clock" <<'EOF'
rep(q~c.stats.HandshakeRTT = now~, q~c.stats.HandshakeRTT = time.Duration(time.Now().UnixNano())~);
EOF
mut D3 determinism internal/netem/link.go "./internal/netem/ ./internal/chaos/ ./internal/transport/" \
	"link jitter drawn from global math/rand instead of the link's forked RNG" <<'EOF'
rep(qq~import (\n\t"sync"\n\t"time"\n~, qq~import (\n\t"math/rand"\n\t"sync"\n\t"time"\n~);
rep(q~delay += time.Duration(l.rng.Uniform(0, float64(l.cfg.JitterMax)))~,
    q~delay += time.Duration(rand.Int63n(int64(l.cfg.JitterMax)))~);
EOF

# maprange: no unordered map iteration into a decision or an output.
mut M1 maprange internal/mptcp/mptcp.go "./internal/mptcp/ ./internal/experiments/" \
	"MPTCP loss detection queues retransmissions in map order (sort of lostSeqs dropped)" <<'EOF'
rep(qq~\tsort.Slice(lostSeqs, func(i, j int) bool { return lostSeqs[i] < lostSeqs[j] })\n~, '');
EOF
mut M3 maprange internal/obs/registry.go "./internal/obs/ ./cmd/xlinkqlog/ ./xlink/" \
	"registry snapshot leaves counters in map order (one of three sorts dropped)" <<'EOF'
rep(qq~\tsort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })\n~, '');
EOF

# wireerr: the error of every wire parse is checked.
mut W1 wireerr internal/transport/conn.go "$T" \
	"server drops the error of wire.ParseTransportParams on the client hello" <<'EOF'
rep(qq~\t\tclientRandom := cf.Data[:32]\n\t\tpeerParams, err := wire.ParseTransportParams(cf.Data[32:])\n\t\tif err != nil {\n\t\t\treturn\n\t\t}\n~,
    qq~\t\tclientRandom := cf.Data[:32]\n\t\tpeerParams, _ := wire.ParseTransportParams(cf.Data[32:])\n~);
EOF
mut W2 wireerr internal/transport/conn.go "$T" \
	"handleShortPacket keeps going after Decoder.AppendFrames failed (if err != nil deleted): a malformed packet is acknowledged" <<'EOF'
rep(qq~\tif err != nil {\n\t\t// The packet authenticated, so the peer wrote it: dropping it\n\t\t// unacknowledged would only have the peer resend it every PTO.\n\t\tc.Close(ErrCodeFrameEncoding, "undecodable frame")\n\t\treturn\n\t}\n\teliciting := false\n~, qq~\teliciting := false\n~);
EOF
mut W3 wireerr internal/wire/frames_ack.go "$W" \
	"parseAckMP drops the error of the QoE-length varint: a truncated ACK_MP parses" fuzz=FuzzParseFrame <<'EOF'
rep(qq~\tqLen, n, err := ParseVarint(b[pos:])\n\tif err != nil {\n\t\treturn 0, err\n\t}\n~,
    qq~\tqLen, n, _ := ParseVarint(b[pos:])\n~);
EOF
mut W4 wireerr internal/mptcp/mptcp.go "./internal/mptcp/ ./internal/experiments/" \
	"MPTCP receiver drops the error of the DATA length varint" <<'EOF'
rep(qq~\tlength, _, err := wire.ParseVarint(data[pos:])\n\tif err != nil {\n\t\treturn\n\t}\n~,
    qq~\tlength, _, _ := wire.ParseVarint(data[pos:])\n~);
EOF

# panicpath: no panic reachable from datagram ingest.
mut P1 panicpath internal/wire/frames_fec.go "$W" \
	"parseFECWindow panics on an unknown scheme instead of returning an error" fuzz=FuzzParseFECFrame <<'EOF'
rep(q~return nil, 0, fmt.Errorf("wire: fec window unknown scheme %d", f.Scheme)~,
    q~panic(fmt.Sprintf("wire: fec window unknown scheme %d", f.Scheme))~);
EOF
mut P2 panicpath internal/transport/conn.go "$T" \
	"handleFrame panics on an ACK_MP for a path it does not know" <<'EOF'
rep(qq~\t\ttarget := c.Path(fr.PathID)\n\t\tif target == nil {\n\t\t\treturn\n\t\t}\n~,
    qq~\t\ttarget := c.Path(fr.PathID)\n\t\tif target == nil {\n\t\t\tpanic("transport: ACK_MP for unknown path")\n\t\t}\n~);
EOF
mut P3 panicpath internal/transport/conn.go "$T" \
	"admitStreamData panics on a flow-control violation instead of closing the connection" <<'EOF'
rep(qq~\t\tc.Close(ErrCodeFlowControl, "stream data beyond the advertised limit")\n\t\treturn nil\n~,
    qq~\t\tpanic("transport: stream data beyond the advertised limit")\n~);
EOF
mut P4 panicpath internal/transport/packet.go "$T" \
	"openShort panics on a packet too short to carry a header-protection sample" <<'EOF'
rep(qq~\tif len(data) < pnOffset+4+headerSampleLen {\n\t\treturn 0, nil, scratch, wire.ErrTruncated\n\t}\n\t// Work on a copy~,
    qq~\tif len(data) < pnOffset+4+headerSampleLen {\n\t\tpanic("transport: short packet")\n\t}\n\t// Work on a copy~);
EOF

# obsevent: registered event/metric names only, no wall clock into an emit.
mut O1 obsevent internal/transport/conn.go "$T" \
	"PathValidated is traced with a wall-clock timestamp" <<'EOF'
rep(q~c.tr.PathValidated(now, p.ID)~, q~c.tr.PathValidated(time.Duration(time.Now().UnixNano()), p.ID)~);
EOF
mut O2 obsevent xlink/live.go "$X" \
	"Metrics() sets the send-buffer peak gauge under a misspelt literal name" <<'EOF'
rep(q~reg.Gauge(obs.MetricSendBufferedPeak)~, q~reg.Gauge("xlink_send_bufferd_peak_bytes")~);
EOF
mut O3 obsevent xlink/live.go "$X" \
	"Metrics() sets the receive-buffer peak gauge under a name Prometheus rejects" <<'EOF'
rep(q~reg.Gauge(obs.MetricRecvBufferedPeak)~, q~reg.Gauge("xlink-recv-buffered-peak")~);
EOF
mut O4 obsevent xlink/live.go "$X" \
	"the endpoint's close (shut) stamps the scorecard event from time.Now instead of the endpoint clock" <<'EOF'
rep(q~Scorecard(ep.env.Now(), &card)~, q~Scorecard(time.Duration(time.Now().UnixNano()), &card)~);
EOF
mut O5 obsevent internal/transport/conn.go "$T" \
	"startPathValidation emits an ad-hoc event name through a generic emit instead of a typed emitter (Origin.Emit is deleted: the build fails)" <<'EOF'
rep(q~c.tr.PathStateChanged(now, p.ID, p.State.String(), "challenge-sent")~, q~c.tr.Emit(now, "path_challenge_sent")~);
EOF

# taintsize: a wire-decoded length is bounded before it sizes anything.
mut T1 taintsize internal/wire/frames_fec.go "$W" \
	"parseFECWindow stops bounding Repairs above: the varint sizes make([][]byte, fr.Repairs) in transport/fec.go" fuzz=FuzzParseFECFrame <<'EOF'
rep(q~if f.Repairs == 0 || f.Repairs > MaxFECRepairSymbols {~, q~if f.Repairs == 0 {~);
EOF
mut T2 taintsize internal/wire/frames_data.go "$W" \
	"parseCrypto slices b by the length varint without the remaining-bytes check" fuzz=FuzzParseFrame <<'EOF'
s~(func parseCrypto\(.*?)\tif uint64\(len\(b\)-pos\) < length \{\n\t\treturn nil, 0, ErrTruncated\n\t\}\n~$1~s or die "parseCrypto check";
EOF
mut T3 taintsize internal/wire/frames_data.go "$W" \
	"parseStream takes its three-index slice without the remaining-bytes check" fuzz=FuzzParseFrame <<'EOF'
rep(qq~\tif uint64(len(b)-pos) < dataLen {\n\t\treturn 0, ErrTruncated\n\t}\n~, '');
EOF
mut T4 taintsize internal/wire/transport_params.go "$W" \
	"ParseTransportParams slices a parameter value by its length varint without the remaining-bytes check" fuzz=FuzzParseTransportParams <<'EOF'
rep(qq~\t\tif uint64(len(b)) < length {\n\t\t\treturn p, ErrTruncated\n\t\t}\n~, '');
EOF
mut T5 taintsize internal/wire/frames_ack.go "$W" \
	"parseAckMP slices the QoE block by qLen without the remaining-bytes check" fuzz=FuzzParseFrame <<'EOF'
rep(qq~\t\tif uint64(len(b)-pos) < qLen {\n\t\t\treturn 0, ErrTruncated\n\t\t}\n~, '');
EOF

# hotalloc: no per-packet function allocates (the TestAllocGate* tests are the
# allocation contract).
mut H1 hotalloc internal/transport/path.go "$T" \
	"buildAckRanges makes a fresh slice per ACK instead of reusing the path's scratch" <<'EOF'
rep(q~out := p.ackRangesScratch[:0]~, q~out := make([]wire.AckRange, 0, maxRanges)~);
EOF
mut H2 hotalloc internal/transport/send.go "$T" \
	"scheduleTimer passes c.onTimer (a new method value per arm) instead of the bound c.onTimerFn" <<'EOF'
rep(q~c.env.Schedule(at, c.onTimerFn)~, q~c.env.Schedule(at, c.onTimer)~);
EOF
mut H3 hotalloc internal/transport/fec.go "$T" \
	"fecOnStreamData iterates over a defensive copy of the window list on every STREAM frame" <<'EOF'
s~(func \(c \*Conn\) fecOnStreamData\(.*?)for _, w := range c\.fecDec\.wins \{~$1for _, w := range append([]*fecRecvWindow(nil), c.fecDec.wins...) {~s or die "fecOnStreamData loop";
EOF
mut H4 hotalloc internal/netem/link.go "./internal/netem/ ./internal/chaos/ ./internal/transport/" \
	"Link.Send copies each packet into a fresh slice instead of a recycled buffer" <<'EOF'
rep(qq~\tbuf := getBuf(len(data))\n\tcopy(buf, data)\n~, qq~\tbuf := append([]byte(nil), data...)\n~);
EOF

# loan: a borrowed buffer is not kept past the call.
mut N1 loan internal/transport/packet.go "$T" \
	"openShort decrypts the datagram in place and returns it as the connection's scratch (copy skipped)" <<'EOF'
rep(q~pkt := append(scratch[:0], data...)~, q~pkt := data~);
EOF
mut N2 loan internal/netem/link.go "./internal/netem/ ./internal/chaos/ ./internal/transport/" \
	"Link.Send queues the sender's buffer itself instead of a copy" <<'EOF'
rep(qq~\tbuf := getBuf(len(data))\n\tcopy(buf, data)\n~, qq~\tbuf := data\n~);
EOF
mut N3 loan internal/wire/frames_fec.go "$W" \
	"parseFECRepair aliases the packet instead of copying the symbol the decoder parks past it" fuzz=FuzzParseFECFrame <<'EOF'
rep(q~Data: append([]byte(nil), b[pos:pos+int(length)]...),~, q~Data: b[pos : pos+int(length)],~);
EOF
mut N4 loan internal/transport/conn.go "$T" \
	"deliverStreamData releases the delivered run's segments to the pool before the callback that borrows them" <<'EOF'
rep(qq~\t\tdata, gather := rs.borrow(from, n)\n~, qq~\t\tdata, gather := rs.borrow(from, n)\n\t\trs.releaseDelivered()\n~);
EOF
mut N5 loan xlink/live.go "$X" \
	"postWrite queues the caller's bytes instead of a copy in a pooled chunk" <<'EOF'
rep(qq~\t\t\to.buf = writeChunks.get()[:]\n\t\t\to.buf = o.buf[:copy(o.buf, data)]\n~, qq~\t\t\to.buf = data[:min(len(data), writeChunkSize)]\n~);
EOF

# goleak: every goroutine has an exit path and a join.
mut K1 goleak xlink/live.go "$X" \
	"the shard loop loses its exit case (<-g.done)" <<'EOF'
rep(qq~\t\tcase <-g.done:\n\t\t\t// The ops posted before the group's Close run in a last turn.\n\t\t\tsh.runTurn()\n\t\t\treturn\n~, '');
EOF
mut K2 goleak xlink/live.go "$X" \
	"readLoop retries on a read error instead of returning: it spins on the closed socket forever" <<'EOF'
rep(qq~\t\t\treadBufs.put(buf)\n\t\t\treturn // socket closed by Endpoint.Close\n~, qq~\t\t\treadBufs.put(buf)\n\t\t\tcontinue\n~);
EOF
mut K3 goleak internal/abtest/abtest.go "./internal/abtest/" \
	"the A/B fleet forgets wg.Wait(): results are read while the workers still run" <<'EOF'
rep(qq~\t\tclose(jobs)\n\t\twg.Wait()\n~, qq~\t\tclose(jobs)\n~);
EOF

# chandir: one closer per channel, no double close, no send after close.
mut C1 chandir xlink/live.go "$X" \
	"apply runs a second Endpoint.Close: the scorecard is merged twice, and the turn's end closes ep.done again and panics" <<'EOF'
rep(qq~\tif !ep.closed {\n\t\tep.join()~, qq~\tif !ep.closed || o.kind == opCloseEndpoint {\n\t\tep.join()~);
EOF
mut C2 chandir xlink/live.go "$X" \
	"readLoop (not the owner) closes ep.done when its socket fails" <<'EOF'
rep(qq~\t\t\treadBufs.put(buf)\n\t\t\treturn // socket closed by Endpoint.Close\n~, qq~\t\t\treadBufs.put(buf)\n\t\t\tclose(ep.done)\n\t\t\treturn\n~);
EOF
mut C3 chandir xlink/live.go "$X" \
	"EventLoopGroup.Close loses its once-guard: a second Close panics" <<'EOF'
rep(qq~\tif g.closed.CompareAndSwap(false, true) {\n\t\tclose(g.done)\n\t}\n~, qq~\tclose(g.done)\n~);
EOF

# connstate: forward-only lifecycle, timers released and a close event traced.
mut S1 connstate internal/transport/conn.go "$T" \
	"enterTerminal no longer cancels the timer" \
	"equiv=onTimer returns at once on a closed connection and rearmTimer cancels there too: no observable difference" <<'EOF'
rep(qq~\t\tc.stats.CloseErrorCode, c.stats.CloseReason)\n\tc.cancelTimer()\n~, qq~\t\tc.stats.CloseErrorCode, c.stats.CloseReason)\n~);
EOF
mut S2 connstate internal/transport/conn.go "$T" \
	"closeSilently sets stateClosed itself instead of going through enterTerminal: no close event, timer left armed" <<'EOF'
rep(qq~\tc.recordClose(now, code, reason, true)\n\tc.enterTerminal(now)\n~, qq~\tc.recordClose(now, code, reason, true)\n\tc.state = stateClosed\n~);
EOF
mut S3 connstate internal/transport/conn.go "$T" \
	"enterDraining abandons the primary path (an established-only operation) after the peer closed" <<'EOF'
rep(qq~\tc.recordClose(now, code, reason, false)\n~, qq~\tc.recordClose(now, code, reason, false)\n\tc.AbandonPath(0)\n~);
EOF
mut S4 connstate internal/transport/conn.go "$T" \
	"enterTerminal reaches closed without tracing the state change" <<'EOF'
rep(qq~\told := c.state\n\tc.state = stateClosed\n\tc.tr.ConnStateChanged(now, old.String(), c.state.String(),\n\t\tc.stats.CloseErrorCode, c.stats.CloseReason)\n~, qq~\tc.state = stateClosed\n~);
EOF
mut S5 connstate internal/sim/loop.go "./internal/sim/ ./internal/netem/ ./internal/transport/" \
	"Timer.Stop recycles its event's node but leaves the entry in the heap" <<'EOF'
rep(q~t.ev.loop.remove(t.ev.idx).recycle()~, q~t.ev.recycle()~);
EOF

# loaderr: a tree that does not parse or type-check fails a gate, including a
# file only the xlinkdebug build compiles.
mut E1 loaderr internal/transport/path.go "$T" \
	"syntax error (unbalanced parenthesis) in a package file" <<'EOF'
rep(q~func (p *Path) buildAckRanges(maxRanges int) []wire.AckRange {~, q~func (p *Path) buildAckRanges(maxRanges int []wire.AckRange {~);
EOF
mut E2 loaderr internal/transport/path.go "$T" \
	"type error (undefined name) in a package file" <<'EOF'
rep(q~p.ackRangesScratch = out~, q~p.ackRangesScratch = outt~);
EOF
mut E3 loaderr internal/assert/assert_on.go "./internal/assert/ ./internal/transport/" \
	"syntax error in a file only the xlinkdebug build compiles" <<'EOF'
rep(q~func That(cond bool, format string, args ...any) {~, q~func That(cond bool, format string, args ...any {~);
EOF

# recycle: a packet record is freed only once the loss-detection
# result that names it has been consumed (DESIGN.md §18). Under xlinkdebug a
# freed record is poisoned, and recovery.AssertLive on every result and on the
# lost list handleLost reads is the check.
mut R1 recycle internal/transport/conn.go "$T" \
	"processAck frees the records its ACK retired before handleLost has reacted to the lost list" <<'EOF'
rep(qq~\tc.handleLost(now, target, res.Lost, "time")\n~, qq~\ttarget.Space.Reclaim()\n\tc.handleLost(now, target, res.Lost, "time")\n~);
EOF
mut R2 recycle internal/recovery/recovery.go "./internal/recovery/ ./internal/transport/" \
	"OnAck frees the records gc retired before it returns the result that names them" <<'EOF'
rep(qq~\tres.Lost = s.detectLost(now)\n\ts.gc()\n~, qq~\tres.Lost = s.detectLost(now)\n\ts.gc()\n\ts.Reclaim()\n~);
EOF

# shard: only the shard goroutine touches a live connection; it
# applies the ops user calls post in the order posted and without the FIFO's
# lock held, and it never waits for a write backlog it alone can drain;
# value readers read the snapshot, under snapMu (DESIGN.md §16).
mut L1 shard xlink/live.go "$X" \
	"applyOps applies the ops while still holding the FIFO lock: an endpoint's close shuts its sockets under sh.mu" <<'EOF'
rep(qq~\tsh.mu.Unlock()\n\tsh.loop.RunUntil(sh.wall.Now())\n\tfor i := range ops {\n\t\tops[i].apply()\n\t\tops[i] = op{}\n\t}\n~,
    qq~\tsh.loop.RunUntil(sh.wall.Now())\n\tfor i := range ops {\n\t\tops[i].apply()\n\t\tops[i] = op{}\n\t}\n\tsh.mu.Unlock()\n~);
EOF
mut G1 shard xlink/live.go "$X" \
	"Endpoint.StateName reads the connection on the caller's goroutine instead of the shard's snapshot" <<'EOF'
rep(q~func (ep *Endpoint) StateName() string { return ep.snapshot().state }~, q~func (ep *Endpoint) StateName() string { return ep.conn.StateName() }~);
EOF
mut G3 shard xlink/live.go "$X" \
	"publish writes the snapshot without snapMu" <<'EOF'
rep(qq~\tep.snapMu.Lock()\n\tep.snap = s\n\tep.queued.Add(-ep.applied)\n\tep.applied = 0\n\tif ep.drained != nil {\n\t\tclose(ep.drained)\n\t\tep.drained = nil\n\t}\n\tep.snapMu.Unlock()\n~,
    qq~\tep.snap = s\n\tep.queued.Add(-ep.applied)\n\tep.applied = 0\n\tif ep.drained != nil {\n\t\tclose(ep.drained)\n\t\tep.drained = nil\n\t}\n~);
EOF
mut G4 shard xlink/live.go "$X" \
	"Stream.Close finishes the transport stream on the caller's goroutine instead of posting an op" <<'EOF'
rep(q~func (st Stream) Close() { st.ep.post(op{kind: opClose, ep: st.ep, id: st.id}) }~, q~func (st Stream) Close() { st.ep.conn.Stream(st.id).Close() }~);
EOF
mut L2 shard xlink/live.go "$X" \
	"applyOps applies the turn's ops newest first: a stream's Close runs before the Write posted ahead of it" <<'EOF'
rep(qq~\tfor i := range ops {\n\t\tops[i].apply()~, qq~\tfor i := len(ops) - 1; i >= 0; i-- {\n\t\tops[i].apply()~);
EOF
mut L5 shard xlink/backlog.go "$X" \
	"awaitBacklog makes a shard goroutine wait too: a callback that writes past the backlog to its own endpoint waits for itself" <<'EOF'
rep(qq~\t\tif !wait || onShardGoroutine() {\n~, qq~\t\tif !wait {\n~);
EOF
mut L6 shard internal/transport/send.go "$T $X" \
	"maybeSend on a held connection returns without owing the pass: Release has nothing to run" \
	"equiv=every caller of maybeSend calls rearmTimer after it, whose held branch owes the same pass: Release still runs it" <<'EOF'
rep(qq~\tif c.held {\n\t\tc.passOwed = true\n\t\treturn\n\t}\n\tif c.inSend~, qq~\tif c.held {\n\t\treturn\n\t}\n\tif c.inSend~);
EOF

# --- running one mutation -------------------------------------------------

apply() { # file, perl body: edit in place, fail if the edit does not apply
	perl -e '
		my ($file, $body) = @ARGV;
		local $/;
		open my $in, "<", $file or die "open $file: $!\n";
		$_ = <$in>;
		close $in;
		my $orig = $_;
		sub rep {
			my ($old, $new) = @_;
			my $n = () = /\Q$old\E/g;
			die "pattern occurs $n times, want 1:\n$old\n" unless $n == 1;
			s/\Q$old\E/$new/;
		}
		eval $body;
		die $@ if $@;
		die "edit changed nothing\n" if $_ eq $orig;
		open my $out, ">", $file or die "write $file: $!\n";
		print $out $_;
		close $out;
	' "$1" "$2"
}

gate() { # name, log, command...: true when the gate CATCHES (the command fails)
	local log="$2"
	shift 2
	if (cd "$TREE" && "$@") >"$log" 2>&1; then
		return 1
	fi
	return 0
}

# failed names the first test a go test log reports failed, or says how the
# test binary died when no test reported.
failed() {
	local t
	t="$(grep -o -m1 -- '--- FAIL: [A-Za-z0-9_]*' "$1" | sed 's/--- FAIL: //')"
	if [ -z "$t" ] && grep -q '^panic: test timed out' "$1"; then
		t="timeout"
	elif [ -z "$t" ] && grep -q '^panic:' "$1"; then
		t="panic"
	fi
	[ -z "$t" ] || echo " ($t)"
}

declare -A CATCHER VERDICT

run_one() {
	local id="$1" file="${FILE[$1]}" pkgs="${PKGS[$1]}"
	cp "$TREE/$file" "$WORK/pristine"
	if ! apply "$TREE/$file" "${BODY[$id]}"; then
		echo "mutate: $id no longer applies to $file" >&2
		exit 2
	fi
	(cd "$TREE" && diff -u "$WORK/pristine" "$file") >"$LOGS/$id.diff"

	# The gates, cheapest first, stopping at the first catcher.
	local by=""
	if gate vet "$LOGS/$id.vet.log" sh -c 'go build ./... && go vet ./...'; then
		by="go vet"
	fi
	# shellcheck disable=SC2086
	if [ -z "$by" ] && gate test "$LOGS/$id.test.log" go test -timeout 240s $pkgs; then
		by="go test$(failed "$LOGS/$id.test.log")"
	fi
	# shellcheck disable=SC2086
	if [ -z "$by" ] && gate debug "$LOGS/$id.xlinkdebug.log" go test -timeout 480s -tags xlinkdebug $pkgs; then
		by="xlinkdebug$(failed "$LOGS/$id.xlinkdebug.log")"
	fi
	if [ -z "$by" ] && gate golden "$LOGS/$id.golden.log" go test ./internal/chaos/ -run TestGoldenTrace; then
		by="golden trace"
	fi
	if [ -z "$by" ] && gate chaos "$LOGS/$id.chaos.log" go test -timeout 240s ./internal/chaos/; then
		by="chaos corpus$(failed "$LOGS/$id.chaos.log")"
	fi
	# shellcheck disable=SC2086
	if [ -z "$by" ] && gate alloc "$LOGS/$id.alloc.log" go test -run TestAllocGate $ALLOC_PKGS; then
		by="TestAllocGate$(failed "$LOGS/$id.alloc.log")"
	fi
	# shellcheck disable=SC2086
	if [ -z "$by" ] && gate race "$LOGS/$id.race.log" go test -race -timeout 900s $pkgs; then
		by="-race$(failed "$LOGS/$id.race.log")"
	fi
	if [ -z "$by" ] && [ -n "${FUZZ[$id]:-}" ] &&
		gate fuzz "$LOGS/$id.fuzz.log" go test ./internal/wire/ -run '^$' -fuzz "${FUZZ[$id]}\$" -fuzztime "$FUZZTIME"; then
		by="fuzz ${FUZZ[$id]}"
	fi
	CATCHER[$id]="$by"

	if [ -n "${EQUIV[$id]:-}" ]; then
		VERDICT[$id]="equivalent"
	elif [ -n "$by" ]; then
		VERDICT[$id]="caught"
	else
		VERDICT[$id]="UNCAUGHT"
	fi
	printf '%-3s %-12s first catcher[%s] -> %s\n' "$id" "${CLASS[$id]}" "$by" "${VERDICT[$id]}" >&2

	cp "$WORK/pristine" "$TREE/$file"
	# A fuzz run that found something left its reproducer behind.
	find "$TREE/internal/wire/testdata/fuzz" -type f -newer "$WORK/pristine" -delete
}

SELECTED=("$@")
if [ ${#SELECTED[@]} -eq 0 ]; then
	SELECTED=("${IDS[@]}")
fi
# Every pattern must still apply before an hour is spent on the first few.
for id in "${SELECTED[@]}"; do
	if [ -z "${CLASS[$id]:-}" ]; then
		echo "mutate: unknown mutation $id (have: ${IDS[*]})" >&2
		exit 2
	fi
	cp "$TREE/${FILE[$id]}" "$WORK/preflight"
	if ! apply "$WORK/preflight" "${BODY[$id]}"; then
		echo "mutate: $id no longer applies to ${FILE[$id]}" >&2
		exit 2
	fi
done
for id in "${SELECTED[@]}"; do
	run_one "$id"
done

# --- the table -----------------------------------------------------------

echo "| id | class | mutation | first gate that catches it | verdict |"
echo "|---|---|---|---|---|"
uncaught=0
for id in "${SELECTED[@]}"; do
	note="${VERDICT[$id]}"
	if [ -n "${EQUIV[$id]:-}" ]; then
		note="equivalent: ${EQUIV[$id]}"
	elif [ "$note" = UNCAUGHT ]; then
		uncaught=$((uncaught + 1))
	fi
	echo "| $id | ${CLASS[$id]} | ${DESC[$id]} | ${CATCHER[$id]:-—} | $note |"
done
if [ "$uncaught" -gt 0 ]; then
	echo "mutate: $uncaught mutation(s) caught by no gate" >&2
	exit 1
fi
