package trace

import (
	"time"

	"repro/internal/sim"
)

// Technology identifies the wireless access technology of a path. The paper
// uses it for wireless-aware primary path selection (Sec 5.3) and for the
// path-delay study (Sec 3.2).
type Technology int

// Wireless technologies in the paper's preference order for primary path
// selection: 5G SA > 5G NSA > Wi-Fi > LTE.
const (
	Tech5GSA Technology = iota
	Tech5GNSA
	TechWiFi
	TechLTE
)

// String returns the technology name.
func (t Technology) String() string {
	switch t {
	case Tech5GSA:
		return "5G-SA"
	case Tech5GNSA:
		return "5G-NSA"
	case TechWiFi:
		return "WiFi"
	case TechLTE:
		return "LTE"
	default:
		return "unknown"
	}
}

// PrimaryPreference returns the rank of the technology for primary path
// selection; lower is preferred. This is the ordering recommended in
// Sec 5.3: 5G SA > 5G NSA > WiFi > LTE.
func (t Technology) PrimaryPreference() int { return int(t) }

// DelayModel samples one-way path delays for a wireless technology. The
// medians are calibrated to the paper's Sec 3.2 measurements: the median
// path delay of LTE is 2.7x Wi-Fi and 5.5x 5G SA, and the 90th-percentile
// LTE delay is 3.3x Wi-Fi's.
type DelayModel struct {
	Tech Technology
	// MedianRTT is the median round-trip path delay.
	MedianRTT time.Duration
	// Sigma is the log-normal shape parameter controlling the tail.
	Sigma float64
}

// Paper-calibrated delay models. With LTE median RTT of 44 ms:
// Wi-Fi = 44/2.7 ≈ 16.3 ms, 5G SA = 44/5.5 = 8 ms. LTE's heavier sigma
// yields the reported p90 ratio (≈3.3x Wi-Fi at p90).
var (
	DelayLTE   = DelayModel{Tech: TechLTE, MedianRTT: 44 * time.Millisecond, Sigma: 0.55}
	DelayWiFi  = DelayModel{Tech: TechWiFi, MedianRTT: 16300 * time.Microsecond, Sigma: 0.42}
	Delay5GNSA = DelayModel{Tech: Tech5GNSA, MedianRTT: 21 * time.Millisecond, Sigma: 0.40}
	Delay5GSA  = DelayModel{Tech: Tech5GSA, MedianRTT: 8 * time.Millisecond, Sigma: 0.35}
)

// SampleRTT draws one RTT sample.
func (m DelayModel) SampleRTT(rng *sim.RNG) time.Duration {
	ms := rng.LogNormal(float64(m.MedianRTT)/float64(time.Millisecond), m.Sigma)
	if ms < 1 {
		ms = 1
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// SampleOneWay draws a one-way delay sample (half the sampled RTT).
func (m DelayModel) SampleOneWay(rng *sim.RNG) time.Duration {
	return m.SampleRTT(rng) / 2
}

// ISP anonymizes the three ISPs of Appendix A's cross-ISP delay study.
type ISP int

// The three anonymized ISPs from Table 4.
const (
	ISPA ISP = iota
	ISPB
	ISPC
)

// String returns the ISP label.
func (i ISP) String() string { return [...]string{"A", "B", "C"}[i] }

// CrossISPInflation reproduces Table 4: the relative increase (in percent)
// of the LTE path delay when the client's ISP (row) differs from the CDN
// server's ISP (column).
var CrossISPInflation = [3][3]float64{
	//          to A  to B  to C
	/* from A */ {0, 21, 17},
	/* from B */ {42, 0, 54},
	/* from C */ {39, 34, 0},
}

// InflateCrossISP returns the delay inflated by the Table 4 factor for a
// client on `from` reaching a server on `to`.
func InflateCrossISP(d time.Duration, from, to ISP) time.Duration {
	pct := CrossISPInflation[from][to]
	return d + time.Duration(float64(d)*pct/100)
}
