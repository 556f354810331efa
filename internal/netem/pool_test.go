package netem

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestAllocGateLinkSteadyState: a warm link — packet buffers recycled,
// deliveries scheduled as (link, slot), the loop's nodes recycled — carries a
// batch of full-size packets from SendBatch to the receiver without
// allocating. The batch stays inside what an idle link keeps, so this holds
// across idle periods too.
func TestAllocGateLinkSteadyState(t *testing.T) {
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
	if 16*trace.MTU > idleKeepBytes {
		t.Fatalf("the batch no longer fits what an idle link keeps (%d B); shrink it", idleKeepBytes)
	}
	before := delivered
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("16 full-size packets through a warm link cost %.1f allocations, want 0", avg)
	}
	if delivered-before != 101*len(batch) {
		t.Fatalf("delivered %d packets in 101 rounds of %d", delivered-before, len(batch))
	}
}

// TestLinkRecyclesBuffersWithoutMixingPackets drives everything that takes or
// returns a buffer — admission, the duplicate fault's copy, reordered
// deliveries overtaking each other, an interface going down with packets
// waiting — and checks that every delivery carries exactly the bytes that
// were sent, that the free lists never exceed MaxIdleBuffers once the link
// is idle, and that every slot is vacated.
func TestLinkRecyclesBuffersWithoutMixingPackets(t *testing.T) {
	loop := sim.NewLoop()
	var got []uint32
	l := NewLink(loop, LinkConfig{
		Trace: trace.ConstantRate("50mbps", 50, time.Second), Delay: 10 * time.Millisecond,
		QueueBytes: 400 * trace.MTU,
	}, sim.NewRNG(7), func(_ time.Duration, data []byte) {
		seq := binary.BigEndian.Uint32(data)
		want := payload(seq, len(data))
		if !bytes.Equal(data, want) {
			t.Fatalf("packet %d arrived with another packet's bytes", seq)
		}
		got = append(got, seq)
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
		if l.QueueLen() != 0 || l.FreeBuffers() > MaxIdleBuffers {
			t.Fatalf("idle link: %d queued, %d free buffers (limit %d)", l.QueueLen(), l.FreeBuffers(), MaxIdleBuffers)
		}
	}
	// A packet larger than an opportunity travels in a buffer of its own,
	// which is not kept.
	l.Send(payload(seq, 2*trace.MTU+10))
	seq++
	loop.Run(0)
	for c, f := range l.free {
		for _, b := range f {
			if cap(b) != bufCaps[c] {
				t.Fatalf("a buffer of %d bytes is kept in the %d-byte class", cap(b), bufCaps[c])
			}
		}
	}
	burst(300)
	loop.RunUntil(loop.Now() + 20*time.Millisecond) // some delivered, some in flight, some queued
	waiting := l.QueueLen()
	if waiting == 0 || waiting == 300 {
		t.Fatalf("%d of 300 waiting: the interface must go down mid-burst", waiting)
	}
	l.SetDown(true)
	loop.Run(0)
	l.SetDown(false)
	if l.FreeBuffers() > MaxIdleBuffers {
		t.Fatalf("%d free buffers after the flush, limit %d", l.FreeBuffers(), MaxIdleBuffers)
	}
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
