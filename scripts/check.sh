#!/bin/sh
# Full verification gate for the XLINK reproduction: build, go vet, the
# repo-specific xlinkvet analyzer (self-test first, then the real tree: the
# four rules DESIGN.md §7 lists, so a wall-clock read in the deterministic
# core, a dropped wire-parse error, a panic on a parse path or an unordered
# map walk fails here, before any test runs), the test suite in release and
# xlinkdebug-assertion modes, the race detector, the allocation-gate tests
# (the one allocation contract, DESIGN.md §7 and §11), and a short fuzz smoke
# on every wire-format target, plus the quick experiment output against its
# committed copy.
# The mutation audit that decides which rules exist (scripts/mutate.sh,
# `make mutate`) is not part of this gate.
#
# Run from the repository root: ./scripts/check.sh  (or `make check`).
set -eu

FUZZTIME="${FUZZTIME:-10s}"

# step runs one gate and prints its wall-clock seconds, so one log says where
# the time of a run went.
step() {
	echo "==> $*"
	step_start="$(date +%s)"
	"$@"
	echo "<== $(( $(date +%s) - step_start ))s"
}

step go build ./...
step go vet ./...
step go run ./cmd/xlinkvet -selftest
# The analyzer's own suite under the race detector: the loader and the
# per-package rules work on packages in parallel, and the fixture counts,
# the explain table and the JSON goldens must hold there too.
# -count=1 so the gate re-checks instead of replaying a cached pass.
step go test -race -count=1 ./internal/vet/ ./cmd/xlinkvet/
# Whole-tree sweep under a wall-clock budget: it must stay far too cheap to
# be worth skipping. 15 s is ~5x the current cost.
echo "==> go run ./cmd/xlinkvet ./... (15s budget)"
VET_START="$(date +%s)"
go run ./cmd/xlinkvet ./...
VET_ELAPSED=$(( $(date +%s) - VET_START ))
echo "xlinkvet sweep: ${VET_ELAPSED}s"
if [ "$VET_ELAPSED" -ge 15 ]; then
	echo "xlinkvet sweep exceeded the 15s budget" >&2
	exit 1
fi
step go test ./...
step go test -tags xlinkdebug ./...
step go test -race ./...
# Chaos smoke: the fault-injection corpus under assertions + race detector
# (plain `go test ./...` above already ran it once without either). Under
# xlinkdebug a link overwrites a packet buffer the moment its delivery
# callback returns (DESIGN.md §19), so a consumer that kept the slice reads
# poison here; netem's own tests check that it does, with two links on two
# goroutines sharing the process-wide buffer pools, and sim's that two loops
# on two goroutines share the event-node pool with every event fired once in
# order, and that a stale timer leaves its node's next loop alone. The A/B
# fleet runs here too: its workers share those pools, and the two arms of one
# session read its traces from different goroutines (DESIGN.md §21).
step go test -race -tags xlinkdebug -count=1 ./internal/chaos/ ./internal/netem/ ./internal/sim/ ./internal/abtest/
# Stream buffering (DESIGN.md §17) with assertions and the race detector on:
# the receive buffer against its keep-everything reference model, a 256 MiB
# stream held to the window on a lossy two-path network (about a minute and
# a half here), the poisoning of released segments, whole and small first
# ones, handed from one connection's stream to another's through the
# process-wide pools, and a small stream's first segment going back to its
# pool once outgrown — under
# xlinkdebug a read below a release floor fails content verification — and
# an idle connection that holds no send or receive segment, no gather
# buffer and at most paths × sendBatchSize seal buffers. The borrowed
# receive contract: a callback that copies gets exact bytes, one that keeps
# the slice reads poison, and one that writes before it reads still reads
# its input (segments are released after the callback, not before). Then
# when an ACK leaves and when the connection timer is touched (DESIGN.md §19,
# §20): threshold, delay, gap, piggyback, early wakes, release. Then stream
# state that ends with the stream (§17): 20 000 exchanges held to the streams
# open, frames for forgotten streams ignored, FEC-repaired and reset streams
# retired — with the assertion that a stream leaves only with nothing in
# flight or queued, and that every chunk cut finds its stream. Then Hold's
# contract (§16): a held connection sends nothing until Release, runs loss
# detection at each ACK meanwhile, and Release sends once per touched path.
# And every 1-RTT packet leaves through one step (§16), which counts it on
# its path as well as on the connection: the paths and the Initials sum to
# the connection's totals before and after a close.
# And the secondary-path bring-up is a deadline of the connection timer
# (§19): path 1 comes up exactly when it falls due, and a close before then
# leaves nothing on the event loop.
step go test -race -tags xlinkdebug -count=1 ./internal/transport/ \
	-run 'TestPathCountersSumToConnection|TestHeldReceiveRunsOnePassAtRelease|TestRecvStreamMatchesReference|TestStreamMemoryBoundedByWindow|TestReleasedSegmentsArePoisoned|TestSegBufSmallStreamCostsItsBytes|TestIdleConnectionHoldsNoBuffers|TestDeliveredDataIsBorrowed|TestCallbackWriteKeepsItsInput|TestAck|TestClientAcksEveryOtherPacket|TestTimer|TestStreamStateBoundedByOpenStreams|TestForgottenStream|TestStreamsOpenInAnyOrder|TestResetOfDeliveredStreamQueuesNothing|TestFECRecoversLostDataEndToEnd|TestFECRecoveredRetiresStream|TestIncrementalSchedulerMatchesReference|TestSecondaryPathDelay|TestCloseLeavesNoSecondaryTimer'
# Frame and packet-record ownership (DESIGN.md §18) with assertions and the
# race detector on: a record given back to the process-wide pool is poisoned
# and must not be named by an AckResult, the ledger or a SentFrom result;
# Reclaim frees a consumed result's records at once; the records made stay
# within the ledger's high-water mark; two sim pairs on two goroutines share
# the pool with every byte content-checked; a warm decoder agrees with the
# package-level parsers over the fuzz corpora. The lossy two-path session that
# exercises recycling end to end is TestStreamMemoryBoundedByWindow above;
# TestAllocGateRecordReusedByNextPass, in the allocation gates below, holds the
# reuse at zero new records.
step go test -race -tags xlinkdebug -count=1 ./internal/recovery/ ./internal/transport/ ./internal/wire/ \
	-run 'TestRecordRecycledAfterResultExpires|TestReclaimFreesTheResultsRecords|TestRecordsMadeBoundedByPeakTracked|TestPairsOnTwoGoroutinesShareTheRecordPool|TestDecoderMatchesPackageLevel'
# Experiment determinism: every table and KeyMetric of `xlink-bench -scale
# quick` at the default seed must match the committed output byte for byte
# (about 15 s). A change that moves an output on purpose re-records it with
# `make quick-golden` and says why.
step sh -c 'go run ./cmd/xlink-bench -scale quick -seed 20210823 | diff -u cmd/xlink-bench/testdata/quick.txt -'
# Trace determinism: the same (scenario, seed) must reproduce the committed
# golden NDJSON trace byte for byte (-count=1 defeats the test cache so the
# gate re-runs even when nothing changed).
step go test -count=1 ./internal/chaos/ -run TestGoldenTrace
# Shard-owned live connections under the race detector and assertions
# (DESIGN.md §16): socket readers posting to shard channels, shard goroutines
# delivering into the held transports, foreign-goroutine writers posting ops, and
# endpoint/group shutdown all interleaving over real UDP, with every read
# buffer and write chunk poisoned as it goes back to the process-wide pool;
# the shard's loop and timer (§20) under cancel, re-arm and Close storms, with
# no timer of a closed endpoint run; an idle group that holds no read buffer,
# and a datagram kept past its delivery that reads poison; data callbacks that
# run inline on the shard, in order, while another goroutine writes; a
# callback that calls every endpoint and stream method, Close last; an op
# that posts to its own shard while the shard applies it; two
# shards whose callbacks write to each other's endpoints while both inbound
# channels are full; a foreign writer held to the write backlog, and a
# callback that writes past it without waiting for its own shard; and the
# shard turn: a tiny exchange in one datagram each way, a callback that
# writes 200 streams in its turn, and bytes written just before
# Endpoint.Close that still arrive.
step go test -race -tags xlinkdebug -count=1 ./xlink/ -run 'TestLiveShardedEventLoop|TestLiveTimer|TestIdleGroupHoldsNoReadBuffers|TestKeptReadBufferReadsPoison|TestLiveDataCallbacksKeepOrderAndContent|TestLiveCallbackCallsEveryMethod|TestLivePostFromAnAppliedOp|TestLiveCallbacksWriteAcrossFullShards|TestLiveWriteBacklogBoundsAForeignWriter|TestLiveBacklogCountsBytesATurnApplied|TestLiveCallbackWritesPastTheBacklog|TestLiveTinyExchangeOneDatagramEachWay|TestLiveCallbackWritesManyStreamsInOneTurn|TestLiveWriteBeforeCloseReachesPeer'
# Allocation gates (DESIGN.md §7, §11): the one allocation contract; DESIGN.md
# §7 maps every gate to the per-packet functions it drives. Warm paths must
# hold their alloc/op budgets — zero for sim timers, crypto seal/open (and
# at most 4 for a Sealer's key schedule),
# rangeset updates (a fresh set's first range included), loss detection on a warm recovery space, the telemetry
# record path (counters/gauges/histograms, a record filled in the
# flight-recorder ring, and a full NDJSON trace rendering into a grown
# buffer, DESIGN.md §14), the balancer's route path, the send-side batch
# fill/flush (§16), a re-injection pull with nothing new in flight and the
# requester's in-order delivery, a warm wire.Decoder parse and, inside
# transport + wire, a received STREAM packet, a received 32-range ACK_MP and a
# send pass with or without a packet (DESIGN.md §18), the FEC coding kernels
# and a STREAM frame under an open FEC window (§13), a warm netem link
# carrying a 16-packet batch (§19), a sim timer armed and cancelled through
# the cancel its node binds once (§19), a live timer armed and cancelled or
# fired through the shard's timer (§20), a foreign Write and Close posted as
# ops and applied, and a warm request/response through the live shard turn
# over loopback (§16), a
# packet record that the send pass after its ACK reuses (§18), counted as
# records made with the collector held off, and a stream's segment table
# sliding in place and, once emptied, going back to its pool (§17); the queued frames for a closed FEC window; a fixed ceiling for a FEC decode,
# the transport round trip through the emulator, the batched 16-packet
# receive with ACKs, and a whole 4 MiB session per server packet (the
# benchmark's allocs_per_pkt as a test).
# -count=1 so the gates really re-measure instead of replaying a cached pass.
step go test -count=1 -run 'TestAllocGate' ./internal/sim/ ./internal/crypto/ ./internal/rangeset/ ./internal/wire/ ./internal/transport/ ./internal/recovery/ ./internal/obs/ ./internal/video/ ./internal/netem/ ./internal/core/ ./internal/lb/ ./xlink/
# Benchmark smoke: every benchmark must still run (one iteration — this
# checks the harness, not performance; `make bench` measures for real, and
# its allocs_per_pkt bound pins allocation-count growth end to end).
step go test -run '^$' -bench . -benchtime 1x ./internal/wire/ ./internal/crypto/ ./internal/rangeset/ ./internal/sim/ ./internal/transport/ ./internal/chaos/ ./internal/obs/ ./xlink/
step go test ./internal/wire/ -run '^$' -fuzz FuzzParseVarint -fuzztime "$FUZZTIME"
step go test ./internal/wire/ -run '^$' -fuzz FuzzParseHeader -fuzztime "$FUZZTIME"
step go test ./internal/wire/ -run '^$' -fuzz 'FuzzParseFrame$' -fuzztime "$FUZZTIME"
step go test ./internal/wire/ -run '^$' -fuzz FuzzParseFECFrame -fuzztime "$FUZZTIME"
step go test ./internal/wire/ -run '^$' -fuzz FuzzParseTransportParams -fuzztime "$FUZZTIME"
step go test ./internal/obs/ -run '^$' -fuzz FuzzParseTrace -fuzztime "$FUZZTIME"

echo "check: all gates passed"
