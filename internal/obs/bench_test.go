package obs

import (
	"testing"
	"time"
)

// BenchmarkFlightRecord prices one typed event. ring-only is what a live
// endpoint and an untraced chaos run pay per event: a flight-recorder ring
// and no NDJSON stream. full is a traced run: the NDJSON stream with a ring
// attached, as chaos.Run and xlink attach one. The full trace is replaced,
// off the clock, every 64 Ki events so the stream stays small.
func BenchmarkFlightRecord(b *testing.B) {
	emit := map[string]func(o *Origin, n uint64){
		"PacketSent":  func(o *Origin, n uint64) { o.PacketSent(time.Duration(n), 0, n, 1200, "1rtt") },
		"PacketAcked": func(o *Origin, n uint64) { o.PacketAcked(time.Duration(n), 0, n) },
	}
	for _, mode := range []string{"ring-only", "full"} {
		newTrace := func() *Trace {
			if mode == "full" {
				tr := NewTrace("bench")
				tr.AttachFlightRecorder(0)
				return tr
			}
			return NewFlightTrace("bench", 0)
		}
		for _, ev := range []string{"PacketSent", "PacketAcked"} {
			fn := emit[ev]
			b.Run(mode+"/"+ev, func(b *testing.B) {
				o := newTrace().Origin("client")
				fn(o, 0) // first emit of the name creates its counter
				b.ReportAllocs()
				b.ResetTimer()
				for n := 1; n <= b.N; n++ {
					if mode == "full" && n%(64<<10) == 0 {
						b.StopTimer()
						o = newTrace().Origin("client")
						b.StartTimer()
					}
					fn(o, uint64(n))
				}
			})
		}
	}
}
