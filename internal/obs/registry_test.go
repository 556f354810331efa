package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentHammer is the satellite-1 contract test: many
// goroutines record into shared counters/gauges/histograms — through both
// cached handles and name lookups — while another goroutine dumps, and the
// final totals are exact once everyone joins. Run under -race this is the
// registry's synchronization proof.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const iters = 2000

	c := r.Counter("hammer_total")
	g := r.Gauge("hammer_gauge")
	h := r.Histogram("hammer_seconds", LogBuckets(0.001, 2, 10))

	stop := make(chan struct{})
	var dumper sync.WaitGroup
	dumper.Add(1)
	go func() { // concurrent reader: dumps must not race with writers
		defer dumper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = dumpString(r)
				_ = r.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				r.Counter("hammer_total").Add(1) // lookup path too
				g.Set(float64(w))
				h.Observe(float64(i%7) * 0.001)
				r.Histogram("hammer_seconds", nil).Observe(0.5)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	dumper.Wait()

	if got, want := c.Value(), uint64(2*workers*iters); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got, want := h.Count(), uint64(2*workers*iters); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if g.Value() < 0 || g.Value() > float64(workers*iters+workers) {
		t.Errorf("gauge out of range: %g", g.Value())
	}
}

// TestRegistryDumpFormat pins the text exposition shape the tooling and
// golden tests rely on: sorted, counters as integers, gauges as %g,
// histograms as cumulative le-buckets plus _sum/_count, a labeled
// histogram's labels kept inside the braces the suffixes follow.
func TestRegistryDumpFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Inc()
	r.Gauge("g").Set(1.5)
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	r.Histogram(MetricName("size").With("path", "1"), []float64{4}).Observe(2)

	want := strings.Join([]string{
		"a_total 1",
		"b_total 2",
		"g 1.5",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="10"} 2`,
		`lat_bucket{le="+Inf"} 3`,
		"lat_sum 55.5",
		"lat_count 3",
		`size_bucket{path="1",le="4"} 1`,
		`size_bucket{path="1",le="+Inf"} 1`,
		`size_sum{path="1"} 2`,
		`size_count{path="1"} 1`,
	}, "\n") + "\n"
	if got := dumpString(r); got != want {
		t.Errorf("dump:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricNameWith pins the labeled-name builder syntax.
func TestMetricNameWith(t *testing.T) {
	got := MetricBatchSize.With("path", "0")
	if want := MetricName(`xlink_batch_size{path="0"}`); got != want {
		t.Errorf("With = %q, want %q", got, want)
	}
}

// TestHistogramMergeDeterminism: the exposition of a histogram depends
// only on the multiset of observed values, not on the order (or goroutine
// interleaving) they were recorded in — the fixed-point sum makes the
// float total order-independent.
func TestHistogramMergeDeterminism(t *testing.T) {
	values := make([]float64, 0, 1000)
	v := 0.0003
	for i := 0; i < 1000; i++ {
		values = append(values, v)
		v = v*1.01 + 0.0001
	}

	dump := func(feed func(h *Histogram)) string {
		r := NewRegistry()
		h := r.Histogram("m_seconds", LogBuckets(0.001, 2, 12))
		feed(h)
		return dumpString(r)
	}

	forward := dump(func(h *Histogram) {
		for _, v := range values {
			h.Observe(v)
		}
	})
	reverse := dump(func(h *Histogram) {
		for i := len(values) - 1; i >= 0; i-- {
			h.Observe(values[i])
		}
	})
	concurrent := dump(func(h *Histogram) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(values); i += 8 {
					h.Observe(values[i])
				}
			}(w)
		}
		wg.Wait()
	})

	if forward != reverse {
		t.Error("exposition differs between forward and reverse feed order")
	}
	if forward != concurrent {
		t.Error("exposition differs between sequential and concurrent feed")
	}
}

// dumpString returns r's text exposition.
func dumpString(r *Registry) string {
	var b strings.Builder
	r.Dump(&b)
	return b.String()
}
