package transport

import (
	"slices"
	"testing"

	"repro/internal/rangeset"
)

// refChunkLost is the byte-at-a-time walk onChunkLost used before it was
// rewritten over rangeset.FirstMissing, kept as the reference model: it
// queues every maximal stretch of [start, end) that is in neither acked nor
// recovered.
func refChunkLost(acked, recovered, rtx *rangeset.Set, start, end uint64) {
	for start < end {
		if acked.Contains(start, start+1) {
			start = acked.CoveredPrefix(start)
			continue
		}
		if recovered.Contains(start, start+1) {
			start = recovered.CoveredPrefix(start)
			continue
		}
		gapEnd := start + 1
		for gapEnd < end && !acked.Contains(gapEnd, gapEnd+1) &&
			!recovered.Contains(gapEnd, gapEnd+1) {
			gapEnd++
		}
		rtx.Add(start, gapEnd)
		start = gapEnd
	}
}

func TestOnChunkLostSkipsAckedAndRecovered(t *testing.T) {
	// rs pairs up bounds: rs(100, 140, 160, 200) is [100,140) and [160,200).
	rs := func(bounds ...uint64) []rangeset.Range {
		var out []rangeset.Range
		for i := 0; i+1 < len(bounds); i += 2 {
			out = append(out, rangeset.Range{Start: bounds[i], End: bounds[i+1]})
		}
		return out
	}
	lost := chunk{offset: 100, length: 100} // [100, 200)
	cases := []struct {
		name             string
		acked, recovered []rangeset.Range
		want             []rangeset.Range
	}{
		{"nothing covered", nil, nil, rs(100, 200)},
		{"acked at start", rs(90, 120), nil, rs(120, 200)},
		{"acked in middle", rs(140, 160), nil, rs(100, 140, 160, 200)},
		{"acked at end", rs(180, 250), nil, rs(100, 180)},
		{"acked fully", rs(0, 300), nil, nil},
		{"recovered at start", nil, rs(100, 110), rs(110, 200)},
		{"recovered in middle", nil, rs(150, 151), rs(100, 150, 151, 200)},
		{"recovered at end", nil, rs(199, 200), rs(100, 199)},
		{"recovered fully", nil, rs(100, 200), nil},
		{"acked and recovered tile the chunk", rs(100, 130, 170, 200), rs(130, 170), nil},
		{"acked and recovered overlap", rs(120, 150), rs(140, 170), rs(100, 120, 170, 200)},
		{"holes in both", rs(100, 105, 150, 160), rs(110, 120, 160, 165, 190, 200),
			rs(105, 110, 120, 150, 165, 190)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &SendStream{}
			var refRtx rangeset.Set
			for _, a := range tc.acked {
				s.acked.Add(a.Start, a.End)
			}
			for _, rec := range tc.recovered {
				s.recovered.Add(rec.Start, rec.End)
			}
			refChunkLost(&s.acked, &s.recovered, &refRtx, lost.offset, lost.offset+lost.length)
			s.onChunkLost(lost)
			if got := s.rtx.All(); !slices.Equal(got, refRtx.All()) {
				t.Fatalf("rtx %v, byte-walk reference %v", got, refRtx.All())
			}
			if got := s.rtx.All(); !slices.Equal(got, tc.want) {
				t.Fatalf("rtx %v, want %v", got, tc.want)
			}
		})
	}
}
