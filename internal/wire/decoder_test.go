package wire

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// corpusInputs returns every input of every committed FuzzParse* corpus.
func corpusInputs(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzParse*/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus found: %v", err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if !strings.HasPrefix(line, "[]byte(") {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out = append(out, []byte(s))
		}
	}
	return out
}

// randomFrame draws one frame of any type, hot or cold.
func randomFrame(r *rand.Rand) Frame {
	v := func() uint64 { return uint64(r.Int63()) >> uint(r.Intn(63)) & MaxVarint }
	blob := func(max int) []byte {
		b := make([]byte, r.Intn(max+1))
		r.Read(b)
		return b
	}
	ranges := func() []AckRange {
		next := v()>>8 + 200_000
		out := make([]AckRange, 0, 40)
		for n := 1 + r.Intn(40); len(out) < n; {
			length := uint64(r.Intn(50))
			out = append(out, AckRange{Smallest: next - length, Largest: next})
			gap := uint64(2 + r.Intn(50))
			if next < length+gap+51 {
				break
			}
			next -= length + gap
		}
		return out
	}
	qoe := func() QoESignal {
		return QoESignal{CachedBytes: v(), CachedFrames: v(), BitrateBps: v(), FramerateFPS: v()}
	}
	switch r.Intn(17) {
	case 0:
		return &PingFrame{}
	case 1:
		return &AckFrame{Ranges: ranges(), AckDelay: time.Duration(r.Intn(1<<20)) * time.Microsecond}
	case 2:
		f := &AckMPFrame{PathID: v(), Ranges: ranges(), AckDelay: time.Duration(r.Intn(1<<20)) * time.Microsecond}
		if r.Intn(2) == 0 {
			f.HasQoE, f.QoE = true, qoe()
			if f.QoE.Zero() {
				f.QoE.CachedBytes = 1
			}
		}
		return f
	case 3, 4, 5:
		f := &StreamFrame{StreamID: v(), Offset: v() >> 2, Fin: r.Intn(4) == 0}
		if d := blob(300); len(d) > 0 {
			f.Data = d
		}
		return f
	case 6:
		return &MaxDataFrame{MaxData: v()}
	case 7:
		return &MaxStreamDataFrame{StreamID: v(), MaxStreamData: v()}
	case 8:
		return &CryptoFrame{Offset: v(), Data: blob(64)}
	case 9:
		return &ResetStreamFrame{StreamID: v(), ErrorCode: v(), FinalSize: v()}
	case 10:
		return &StopSendingFrame{StreamID: v(), ErrorCode: v()}
	case 11:
		f := &NewConnectionIDFrame{Sequence: v(), RetirePrior: v(), ConnectionID: blob(MaxCIDLen)}
		r.Read(f.ResetToken[:])
		return f
	case 12:
		f := &PathChallengeFrame{}
		r.Read(f.Data[:])
		return f
	case 13:
		return &PathStatusFrame{PathID: v(), StatusSeq: v(), Status: PathState(r.Intn(3))}
	case 14:
		return &ConnectionCloseFrame{ErrorCode: v(), Reason: string(blob(20))}
	case 15:
		return &FECRepairFrame{WindowID: v(), Index: uint64(r.Intn(MaxFECRepairSymbols)), Data: blob(200)}
	default:
		return &FECRecoveredFrame{StreamID: v(), Offset: v() >> 2, Length: uint64(1 + r.Intn(1<<16))}
	}
}

// randomPayloads draws n packet payloads: runs of random frames with padding
// between them, every fourth one damaged by truncation or a flipped byte.
func randomPayloads(seed int64, n int) [][]byte {
	r := rand.New(rand.NewSource(seed))
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		var b []byte
		for k := r.Intn(7); k >= 0 && len(b) < 1300; k-- {
			b = randomFrame(r).Append(b)
			b = append(b, make([]byte, r.Intn(3))...)
		}
		if i%4 == 3 {
			if r.Intn(2) == 0 {
				b = b[:r.Intn(len(b)+1)]
			} else if len(b) > 0 {
				b[r.Intn(len(b))] ^= byte(1 + r.Intn(255))
			}
		}
		out = append(out, b)
	}
	return out
}

func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// TestDecoderMatchesPackageLevel is the differential test of the two ways to
// parse (DESIGN.md §18): one warm Decoder reused for every input, against the
// package-level functions that hand out frames the caller may keep. Over
// every committed fuzz corpus entry and seeded random frame sequences they
// must agree on the frames, the error and the bytes consumed; and because the
// warm decoder recycles its storage, a snapshot of each result is checked
// again after the next input has been parsed over it, together with the
// package-level frames retained from the same input.
func TestDecoderMatchesPackageLevel(t *testing.T) {
	inputs := corpusInputs(t)
	nCorpus := len(inputs)
	inputs = append(inputs, randomPayloads(20210823, 4000)...)

	var d Decoder
	var scratch []Frame
	var kept []Frame // package-level frames of the previous input
	var snap []byte  // what the decoder's frames of the previous input encoded to
	var prev []byte  // the previous input
	hot, withFrames := 0, 0
	for i, b := range inputs {
		// One frame: same frame, same error, same length consumed. (A frame
		// parsed outside AppendFrames lives until the next AppendFrames.)
		wf, wn, werr := ParseFrame(b)
		gf, gn, gerr := d.parseFrame(b)
		if len(b) > 0 && b[0] == byte(TypePadding) {
			// Only ParseFrame materializes padding; the decoder's callers
			// strip it first.
			gf, gn, gerr = wf, wn, werr
		}
		if !sameError(werr, gerr) || wn != gn || !reflect.DeepEqual(wf, gf) {
			t.Fatalf("input %d %x: ParseFrame = (%v, %d, %v), decoder = (%v, %d, %v)", i, b, wf, wn, werr, gf, gn, gerr)
		}

		// The whole payload.
		want, werr := AppendFrames(nil, b)
		got, gerr := d.AppendFrames(scratch[:0], b)
		if !sameError(werr, gerr) {
			t.Fatalf("input %d %x: AppendFrames error %v, decoder %v", i, b, werr, gerr)
		}
		if len(want) != len(got) || (len(want) > 0 && !reflect.DeepEqual(want, got)) {
			t.Fatalf("input %d %x:\n AppendFrames %v\n decoder      %v", i, b, want, got)
		}
		if got != nil {
			scratch = got
		}

		// The previous input's results, now that its storage was reused.
		if again := AppendAll(nil, kept); !bytes.Equal(again, snap) {
			t.Fatalf("input %d %x disturbed the frames kept from input %d %x:\n were %x\n are  %x", i, b, i-1, prev, snap, again)
		}
		kept, snap, prev = want, AppendAll(nil, got), b

		if len(got) > 0 {
			withFrames++
		}
		for _, f := range got {
			switch f.(type) {
			case *StreamFrame, *AckFrame, *AckMPFrame, *MaxDataFrame, *MaxStreamDataFrame:
				hot++
			}
		}
	}
	if withFrames < len(inputs)/2 || hot < 1000 {
		t.Fatalf("inputs too tame: %d of %d parsed to frames, %d slab-allocated frames", withFrames, len(inputs), hot)
	}
	t.Logf("%d corpus inputs + %d random payloads, %d parsed to frames, %d slab-allocated frames", nCorpus, len(inputs)-nCorpus, withFrames, hot)
}

// TestAllocGateDecoderWarmParse pins what the Decoder is for: a packet of the
// frame types it keeps in slabs costs no allocation once the slabs have
// grown, 32 ACK ranges included (scripts/check.sh runs every TestAllocGate*).
func TestAllocGateDecoderWarmParse(t *testing.T) {
	ack := &AckMPFrame{PathID: 1, AckDelay: time.Millisecond, HasQoE: true,
		QoE: QoESignal{CachedBytes: 1 << 20, CachedFrames: 90, BitrateBps: 8_000_000, FramerateFPS: 30}}
	for i := 0; i < 32; i++ {
		ack.Ranges = append(ack.Ranges, AckRange{Smallest: uint64(1000 - 10*i), Largest: uint64(1005 - 10*i)})
	}
	b := AppendAll(nil, []Frame{
		ack,
		&AckFrame{Ranges: ack.Ranges[:3]},
		&MaxDataFrame{MaxData: 1 << 24},
		&MaxStreamDataFrame{StreamID: 4, MaxStreamData: 1 << 22},
		&PingFrame{},
		&StreamFrame{StreamID: 4, Offset: 1 << 20, Data: make([]byte, 400)},
		&StreamFrame{StreamID: 8, Offset: 0, Data: make([]byte, 400), Fin: true},
	})
	var d Decoder
	var frames []Frame
	parse := func() {
		var err error
		if frames, err = d.AppendFrames(frames[:0], b); err != nil || len(frames) != 7 {
			t.Fatalf("%d frames, %v", len(frames), err)
		}
	}
	parse()
	if avg := testing.AllocsPerRun(100, parse); avg != 0 {
		t.Fatalf("warm decoder allocates %.1f per packet", avg)
	}
}
