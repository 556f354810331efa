// Package energy models smartphone radio energy consumption for the
// Fig 14 experiment: normalized communication energy per bit vs throughput
// for Wi-Fi, LTE, 5G NR, and the multi-path combinations Wi-Fi+LTE and
// Wi-Fi+NR. The model is the standard linear radio power model — a base
// active power per interface plus a throughput-proportional term, with an
// RRC-style tail after the transfer — calibrated so the orderings the
// paper reports hold: Wi-Fi is the most energy-efficient single link,
// multi-path raises instantaneous power but lowers energy per bit relative
// to single-path cellular because transfer time shrinks with aggregated
// throughput.
package energy

import (
	"time"

	"repro/internal/trace"
)

// RadioModel is the linear power model of one radio interface.
type RadioModel struct {
	Tech trace.Technology
	// ActiveW is the base power while the radio is transferring.
	ActiveW float64
	// PerMbpsW scales power with throughput.
	PerMbpsW float64
	// TailW and TailTime model the high-power RRC tail after activity.
	TailW    float64
	TailTime time.Duration
}

// Calibrated models (order-of-magnitude per the 5G measurement literature,
// e.g. Xu et al. SIGCOMM'20 for NR vs LTE).
var (
	WiFiRadio = RadioModel{Tech: trace.TechWiFi, ActiveW: 0.8, PerMbpsW: 0.030, TailW: 0.15, TailTime: 200 * time.Millisecond}
	LTERadio  = RadioModel{Tech: trace.TechLTE, ActiveW: 1.2, PerMbpsW: 0.060, TailW: 0.8, TailTime: 5 * time.Second}
	NRRadio   = RadioModel{Tech: trace.Tech5GNSA, ActiveW: 2.0, PerMbpsW: 0.080, TailW: 1.1, TailTime: 3 * time.Second}
)

// Result is one Fig 14 data point.
type Result struct {
	Name string
	// ThroughputMbps is the aggregate download throughput achieved.
	ThroughputMbps float64
	// EnergyJ is the total radio energy spent.
	EnergyJ float64
	// EnergyPerBitNJ is nanojoules per delivered bit.
	EnergyPerBitNJ float64
}

// Configuration is a single- or multi-radio setup under test.
type Configuration struct {
	Name   string
	Radios []RadioModel
	// LinkMbps caps each radio's link (30 Mbit/s in the paper, modelling
	// NR coverage that cannot reach peak rate).
	LinkMbps float64
}

// StandardConfigurations returns the five Fig 14 setups with each link
// capped at capMbps.
func StandardConfigurations(capMbps float64) []Configuration {
	return []Configuration{
		{Name: "WiFi", Radios: []RadioModel{WiFiRadio}, LinkMbps: capMbps},
		{Name: "LTE", Radios: []RadioModel{LTERadio}, LinkMbps: capMbps},
		{Name: "NR", Radios: []RadioModel{NRRadio}, LinkMbps: capMbps},
		{Name: "WiFi-LTE", Radios: []RadioModel{WiFiRadio, LTERadio}, LinkMbps: capMbps},
		{Name: "WiFi-NR", Radios: []RadioModel{WiFiRadio, NRRadio}, LinkMbps: capMbps},
	}
}

// Measure computes the Fig 14 point for a configuration downloading
// `bytes` where each radio i achieved perRadioMbps[i] (len must match; the
// efficiency parameter lets callers feed throughputs measured from real
// emulated downloads rather than the raw cap).
func Measure(cfg Configuration, bytes uint64, perRadioMbps []float64) Result {
	var total float64
	var agg float64
	for _, m := range perRadioMbps {
		agg += m
	}
	if agg <= 0 {
		return Result{Name: cfg.Name}
	}
	seconds := float64(bytes*8) / (agg * 1e6)
	for i, radio := range cfg.Radios {
		if i >= len(perRadioMbps) || perRadioMbps[i] <= 0 {
			continue
		}
		// All radios stay active for the whole (shorter) transfer.
		total += (radio.ActiveW + radio.PerMbpsW*perRadioMbps[i]) * seconds
		total += radio.TailW * radio.TailTime.Seconds()
	}
	return Result{
		Name:           cfg.Name,
		ThroughputMbps: agg,
		EnergyJ:        total,
		EnergyPerBitNJ: total / float64(bytes*8) * 1e9,
	}
}

// Normalize scales results so the maximum energy-per-bit and throughput
// are 1.0, matching Fig 14's normalized axes.
func Normalize(results []Result) []Result {
	var maxE, maxT float64
	for _, r := range results {
		if r.EnergyPerBitNJ > maxE {
			maxE = r.EnergyPerBitNJ
		}
		if r.ThroughputMbps > maxT {
			maxT = r.ThroughputMbps
		}
	}
	out := make([]Result, len(results))
	for i, r := range results {
		out[i] = r
		if maxE > 0 {
			out[i].EnergyPerBitNJ = r.EnergyPerBitNJ / maxE
		}
		if maxT > 0 {
			out[i].ThroughputMbps = r.ThroughputMbps / maxT
		}
	}
	return out
}
