package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was made; Parent indexes the span that
// caused this one (-1 for a root). Spans of one chunk, request or session
// share its ID.
type span struct {
	Name       string
	ID         uint64
	Start, End int64
	Parent     int32
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the same wiring serves traced and untraced runs.
type recorder struct {
	t0 time.Time
	mu sync.Mutex
	// spans is guarded by mu: the live workload records from the caller's
	// goroutine and from endpoint callback goroutines at once.
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, id uint64, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent})
	// Read the clock last so growing the slice falls outside the span, in
	// its parent's self time.
	r.spans[i].Start = int64(time.Since(r.t0))
	r.mu.Unlock()
	return i
}

// end closes the span begin returned.
func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	end := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[i].End = end
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count uint64
	selfN int64 // summed durations minus the part child spans cover, ns
}

// selfTimes returns, per span name, the count and self time. A
// span's self time is its duration minus its children's durations; children
// of one parent never overlap on the single-threaded sim loop.
func (r *recorder) selfTimes() map[string]layerTime {
	out := map[string]layerTime{}
	if r == nil {
		return out
	}
	spans := r.snapshot()
	self := selfDurations(spans)
	for i, s := range spans {
		lt := out[s.Name]
		lt.count++
		lt.selfN += self[i]
		out[s.Name] = lt
	}
	return out
}

// selfDurations returns each span's duration minus its children's.
func selfDurations(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// writeCSV writes one line per span: name,id,start_ns,end_ns,parent.
func (r *recorder) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,start_ns,end_ns,parent")
	for _, s := range r.snapshot() {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.Name, s.ID, s.Start, s.End, s.Parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
