package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/stats"
)

const mib = 1 << 20

// usage is a reading of the process's resource counters.
type usage struct {
	at      time.Time
	userS   float64
	sysS    float64
	ctxSw   int64
	mallocs uint64
}

// readUsage samples wall clock, getrusage(RUSAGE_SELF) and the allocation
// count. ReadMemStats stops the world for some microseconds, so call it at
// repetition boundaries only.
func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		at:      time.Now(),
		userS:   tv(ru.Utime),
		sysS:    tv(ru.Stime),
		ctxSw:   int64(ru.Nvcsw) + int64(ru.Nivcsw),
		mallocs: ms.Mallocs,
	}
}

// cost is the difference between two usage readings.
type cost struct {
	wallS   float64
	userS   float64
	sysS    float64
	ctxSw   int64
	mallocs uint64
}

func (c cost) cpuS() float64 { return c.userS + c.sysS }

func (u usage) since(start usage) cost {
	return cost{
		wallS:   u.at.Sub(start.at).Seconds(),
		userS:   u.userS - start.userS,
		sysS:    u.sysS - start.sysS,
		ctxSw:   u.ctxSw - start.ctxSw,
		mallocs: u.mallocs - start.mallocs,
	}
}

// liveHeap forces a collection and returns the bytes still reachable. It
// collects twice: what a sync.Pool held survives one cycle in the pool's
// victim cache, which made readings bimodal.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// repSample is what one timed repetition of a workload measured. Each
// end-to-end metric is derived per repetition and the median over
// repetitions is reported.
type repSample struct {
	cost cost
	// appBytes are application bytes delivered and checked against the
	// expected content.
	appBytes uint64
	// goodputBytes over goodputWallS is the goodput figure; it differs from
	// appBytes over wall only on live-rr, whose goodput is the chunk phase.
	goodputBytes uint64
	goodputWallS float64
	// serverPkts are datagrams the serving end sent.
	serverPkts uint64
	// sessions (fleet-ab only) and requests over requestWallS (live-rr
	// only) feed e2e.sessions_per_s and e2e.req_per_s; 0 elsewhere.
	sessions     int
	requests     int
	requestWallS float64
	// retained is the live heap with the finished session still open, minus
	// the live heap before the run built anything.
	retained int64
	// playedS is virtual seconds of video played out (0 on live-rr).
	playedS float64

	attempted, failed int
	// broken names an output check that failed (empty when all held).
	broken string
}

// values derives the per-repetition metrics whose median over repetitions is
// reported: allocs_per_pkt and the timings. A repetition whose output failed
// verification has no verified bytes; its ratios read 0, so the run still
// prints a result line, with correct false.
func (r repSample) values() map[string]float64 {
	return map[string]float64{
		"allocs_per_pkt":     ratio(float64(r.cost.mallocs), float64(r.serverPkts)),
		"e2e.goodput_MiBps":  ratio(float64(r.goodputBytes)/mib, r.goodputWallS),
		"e2e.cpu_ms_per_MiB": ratio(r.cost.cpuS()*1e3, float64(r.appBytes)/mib),
		"e2e.sessions_per_s": ratio(float64(r.sessions), r.cost.wallS),
		"e2e.req_per_s":      ratio(float64(r.requests), r.requestWallS),
	}
}

// summary is a median with its quartiles and sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and the quartiles as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method), so
// the spreads printed here are the ones the driver will see.
func summarize(values []float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: v[0], Q1: v[0], Q3: v[0], N: 1}
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		return v[lo-1] + (pos-float64(lo))*(v[lo]-v[lo-1])
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}

func median(values []float64) float64 { return summarize(values).Median }

// percentile is stats.Percentile with 0, not NaN, for no samples: the result
// line must stay valid JSON.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return stats.Percentile(values, p)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
