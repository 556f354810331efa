package netem

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestAllocGateLinkSteadyState: a warm link — packet buffers from the pools,
// deliveries scheduled as (link, slot), the loop's nodes recycled — carries a
// batch of full-size packets from SendBatch to the receiver without
// allocating, idle periods between batches included.
func TestAllocGateLinkSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("measures allocations of a pooled path")
	}
	loop := sim.NewLoop()
	delivered := 0
	l := NewLink(loop, LinkConfig{Trace: trace.ConstantRate("100mbps", 100, time.Second), Delay: 5 * time.Millisecond},
		sim.NewRNG(1), func(time.Duration, []byte) { delivered++ })
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = make([]byte, trace.MTU)
	}
	round := func() {
		if n := l.SendBatch(batch); n != len(batch) {
			t.Fatalf("%d of %d packets admitted", n, len(batch))
		}
		loop.Run(0)
	}
	for i := 0; i < 8; i++ {
		round()
	}
	before := delivered
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("16 full-size packets through a warm link cost %.1f allocations, want 0", avg)
	}
	if delivered-before != 101*len(batch) {
		t.Fatalf("delivered %d packets in 101 rounds of %d", delivered-before, len(batch))
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// heldBuffers counts the packet buffers a link holds: queued or propagating.
func heldBuffers(l *Link) int {
	n := l.QueueLen()
	for _, b := range l.slots {
		if b != nil {
			n++
		}
	}
	return n
}

// TestIdleLinkHoldsNoBuffer: once everything sent has been delivered or
// dropped, a link holds no packet buffer — not after a burst, not after the
// interface went down with packets waiting — and every slot is vacated.
func TestIdleLinkHoldsNoBuffer(t *testing.T) {
	loop := sim.NewLoop()
	l := NewLink(loop, LinkConfig{
		Trace: trace.ConstantRate("50mbps", 50, time.Second), Delay: 10 * time.Millisecond,
		QueueBytes: 400 * trace.MTU,
	}, sim.NewRNG(3), nil)
	l.SetDuplicate(0.2)
	for i := 0; i < 300; i++ {
		l.Send(make([]byte, 60+(i%3)*700))
	}
	if heldBuffers(l) == 0 {
		t.Fatal("a link with 300 packets sent holds nothing")
	}
	loop.Run(0)
	if n := heldBuffers(l); n != 0 {
		t.Fatalf("an idle link holds %d packet buffers", n)
	}
	for i := 0; i < 300; i++ {
		l.Send(make([]byte, trace.MTU))
	}
	loop.RunUntil(loop.Now() + 20*time.Millisecond)
	l.SetDown(true)
	loop.Run(0)
	if n := heldBuffers(l); n != 0 || len(l.freeSlots) != len(l.slots) {
		t.Fatalf("after the flush: %d packet buffers held, %d of %d slots occupied",
			n, len(l.slots)-len(l.freeSlots), len(l.slots))
	}
}

// TestLinkRecyclesBuffersWithoutMixingPackets drives everything that takes or
// returns a buffer — admission, the duplicate fault's copy, reordered
// deliveries overtaking each other, a packet larger than any class, an
// interface going down with packets waiting — and checks that every delivery
// carries exactly the bytes that were sent and that every slot is vacated.
func TestLinkRecyclesBuffersWithoutMixingPackets(t *testing.T) {
	loop := sim.NewLoop()
	var got []uint32
	l := NewLink(loop, LinkConfig{
		Trace: trace.ConstantRate("50mbps", 50, time.Second), Delay: 10 * time.Millisecond,
		QueueBytes: 400 * trace.MTU,
	}, sim.NewRNG(7), func(_ time.Duration, data []byte) {
		checkPayload(t, data)
		got = append(got, binary.BigEndian.Uint32(data))
	})
	l.SetDuplicate(0.2)
	l.SetReorder(0.2, 3*time.Millisecond)

	seq := uint32(0)
	burst := func(n int) {
		for i := 0; i < n; i++ {
			size := 60 + int(seq%3)*700 // 60, 760, 1460: both classes
			l.Send(payload(seq, size))
			seq++
		}
	}
	for b := 0; b < 6; b++ {
		burst(300)
		loop.Run(0)
	}
	// A packet larger than an opportunity travels in a buffer of its own.
	l.Send(payload(seq, 2*trace.MTU+10))
	seq++
	loop.Run(0)
	burst(300)
	loop.RunUntil(loop.Now() + 20*time.Millisecond) // some delivered, some in flight, some queued
	waiting := l.QueueLen()
	if waiting == 0 || waiting == 300 {
		t.Fatalf("%d of 300 waiting: the interface must go down mid-burst", waiting)
	}
	l.SetDown(true)
	loop.Run(0)
	l.SetDown(false)
	st := l.Stats()
	if uint64(len(got)) != st.DeliveredPkts || st.DuplicatedPkts == 0 || st.ReorderedPkts == 0 ||
		st.SentPackets != st.DeliveredPkts-st.DuplicatedPkts+st.DroppedPkts {
		t.Fatalf("delivered %d, stats %+v", len(got), st)
	}
	if len(l.freeSlots) != len(l.slots) {
		t.Fatalf("%d of %d slots still occupied on an idle link", len(l.slots)-len(l.freeSlots), len(l.slots))
	}
}

// payload is a packet whose every byte depends on seq.
func payload(seq uint32, size int) []byte {
	b := make([]byte, size)
	binary.BigEndian.PutUint32(b, seq)
	for i := 4; i < size; i++ {
		b[i] = byte(seq) + byte(i)
	}
	return b
}

// checkPayload fails unless data is exactly the payload its first four bytes
// name.
func checkPayload(t *testing.T, data []byte) {
	t.Helper()
	seq := binary.BigEndian.Uint32(data)
	if !bytes.Equal(data, payload(seq, len(data))) {
		t.Errorf("packet %#x arrived with another packet's bytes", seq)
	}
}

// TestDeliveredDataIsPoisonedAfterTheCall: under -tags xlinkdebug a receiver
// that keeps the slice it was lent reads 0xdb, not the packet and not the
// next one.
func TestDeliveredDataIsPoisonedAfterTheCall(t *testing.T) {
	if !assert.Enabled {
		t.Skip("delivery buffers are poisoned only under -tags xlinkdebug")
	}
	loop := sim.NewLoop()
	var kept []byte
	l := NewLink(loop, LinkConfig{Trace: trace.ConstantRate("t", 10, time.Second)}, nil,
		func(_ time.Duration, data []byte) {
			if string(data) != "loaned" {
				t.Fatalf("delivered %q", data)
			}
			kept = data
		})
	l.Send([]byte("loaned"))
	loop.Run(0)
	if !bytes.Equal(kept, bytes.Repeat([]byte{0xdb}, len("loaned"))) {
		t.Fatalf("a retained delivery buffer reads %q after the call, want poison", kept)
	}
}

// TestLinksOnTwoGoroutinesShareThePool: two links, each on its own loop and
// goroutine as fleet workers run them, draw from and return to the same
// pools. Every delivery still carries exactly its own bytes, and under -tags
// xlinkdebug every slice a receiver kept reads poison once both are done —
// a buffer's last owner, whichever link it was, poisoned it on the way back.
// Under -race this is also the check that the pools hand a buffer from one
// goroutine to the other without a data race.
func TestLinksOnTwoGoroutinesShareThePool(t *testing.T) {
	var wg sync.WaitGroup
	kept := make([][][]byte, 2)
	delivered := make([]int, 2)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop := sim.NewLoop()
			l := NewLink(loop, LinkConfig{
				Trace: trace.ConstantRate("50mbps", 50, time.Second), Delay: 2 * time.Millisecond,
				QueueBytes: 400 * trace.MTU,
			}, sim.NewRNG(int64(g)), func(_ time.Duration, data []byte) {
				checkPayload(t, data)
				if delivered[g]%16 == 0 {
					kept[g] = append(kept[g], data)
				}
				delivered[g]++
			})
			l.SetDuplicate(0.1)
			for b := 0; b < 20; b++ {
				for i := 0; i < 100; i++ {
					seq := uint32(g)<<24 | uint32(b*100+i)
					l.Send(payload(seq, 60+i%3*700))
				}
				loop.Run(0)
			}
			if n := heldBuffers(l); n != 0 {
				t.Errorf("link %d holds %d packet buffers when idle", g, n)
			}
		}()
	}
	wg.Wait()
	if delivered[0] < 2000 || delivered[1] < 2000 {
		t.Fatalf("delivered %v, want at least 2000 on each link", delivered)
	}
	if !assert.Enabled {
		return
	}
	for g := range kept {
		for _, b := range kept[g] {
			if !bytes.Equal(b, bytes.Repeat([]byte{0xdb}, len(b))) {
				t.Fatalf("link %d: a kept delivery buffer reads %x..., want poison", g, b[:4])
			}
		}
	}
}
