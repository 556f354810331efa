package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/transport"
	"repro/internal/video"
)

// TestAllocGateWholeSession is the benchmark's headline count
// (allocs_per_pkt on sim-bulk-clean) as a go test failure: one clean 4 MiB
// XLINK session on the benchmark's paths — set-up, content synthesis and
// verification, both connections, the emulator under them — may cost at most
// 2.0 heap allocations per packet the server sends. It measures 1.73 since
// ACKs and the connection timer move only when due (DESIGN.md §20; the 32 MiB
// benchmark session: 0.79; the session's fixed set-up weighs more here); it
// was 2.11 before that, and 6.94 before the connection timer and the link
// stopped allocating per packet (DESIGN.md §19).
func TestAllocGateWholeSession(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a whole session")
	}
	if assert.Enabled {
		t.Skip("xlinkdebug: per-packet assertions allocate by design")
	}
	cfg := SessionConfig{
		Scheme:    SchemeXLINK,
		Video:     video.Video{ID: "alloc-gate", Size: 4 << 20, BitrateBps: 8_000_000, FPS: 30, FirstFrameSize: 80 << 10},
		Requester: video.RequesterConfig{ChunkSize: 512 << 10, MaxConcurrent: 2},
		Paths:     transport.TwoPathConfig(200, 100, 20*time.Millisecond, 60*time.Millisecond),
		Seed:      20210823,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewSession(cfg)
	res, err := s.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Requester.Done() || s.Requester.VerifyErrors() != 0 {
		t.Fatalf("session did not deliver the video intact (%d verify errors)", s.Requester.VerifyErrors())
	}
	pkts := res.ServerStats.SentPackets
	perPkt := float64(after.Mallocs-before.Mallocs) / float64(pkts)
	t.Logf("%d allocations for %d server packets: %.2f per packet", after.Mallocs-before.Mallocs, pkts, perPkt)
	if pkts < 3000 || perPkt > 2.0 {
		t.Fatalf("%.2f allocations per server packet over %d packets, gate is 2.0", perPkt, pkts)
	}
}
