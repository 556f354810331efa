package energy

import (
	"testing"
)

// measureEven splits the cap evenly across radios: the closed-form view of a
// configuration, with no emulated throughput measured.
func measureEven(cfg Configuration, bytes uint64) Result {
	per := make([]float64, len(cfg.Radios))
	for i := range per {
		per[i] = cfg.LinkMbps
	}
	return Measure(cfg, bytes, per)
}

func TestWiFiMostEfficient(t *testing.T) {
	const bytes = 30 << 20
	cfgs := StandardConfigurations(30)
	results := map[string]Result{}
	for _, c := range cfgs {
		results[c.Name] = measureEven(c, bytes)
	}
	if !(results["WiFi"].EnergyPerBitNJ < results["LTE"].EnergyPerBitNJ) {
		t.Fatal("WiFi must beat LTE in energy per bit")
	}
	if !(results["LTE"].EnergyPerBitNJ < results["NR"].EnergyPerBitNJ) {
		t.Fatal("LTE must beat NR in energy per bit (capped rate)")
	}
}

func TestMultipathBeatsSingleCellular(t *testing.T) {
	const bytes = 30 << 20
	cfgs := StandardConfigurations(30)
	results := map[string]Result{}
	for _, c := range cfgs {
		results[c.Name] = measureEven(c, bytes)
	}
	// Fig 14: WiFi-LTE improves on LTE alone, WiFi-NR on NR alone.
	if !(results["WiFi-LTE"].EnergyPerBitNJ < results["LTE"].EnergyPerBitNJ) {
		t.Fatalf("WiFi-LTE (%.1f) should beat LTE (%.1f) nJ/bit",
			results["WiFi-LTE"].EnergyPerBitNJ, results["LTE"].EnergyPerBitNJ)
	}
	if !(results["WiFi-NR"].EnergyPerBitNJ < results["NR"].EnergyPerBitNJ) {
		t.Fatal("WiFi-NR should beat NR in energy per bit")
	}
	// Throughput doubles with two capped links.
	if results["WiFi-LTE"].ThroughputMbps != 2*results["LTE"].ThroughputMbps {
		t.Fatal("multipath throughput should aggregate")
	}
}

func TestMeasureWithMeasuredThroughputs(t *testing.T) {
	cfg := Configuration{Name: "WiFi-LTE", Radios: []RadioModel{WiFiRadio, LTERadio}}
	r := Measure(cfg, 10<<20, []float64{22, 14})
	if r.ThroughputMbps != 36 {
		t.Fatalf("agg throughput %v", r.ThroughputMbps)
	}
	if r.EnergyPerBitNJ <= 0 {
		t.Fatal("energy per bit must be positive")
	}
	empty := Measure(cfg, 10<<20, []float64{0, 0})
	if empty.EnergyJ != 0 {
		t.Fatal("no throughput = no transfer")
	}
}

func TestNormalize(t *testing.T) {
	rs := []Result{
		{Name: "a", ThroughputMbps: 30, EnergyPerBitNJ: 100},
		{Name: "b", ThroughputMbps: 60, EnergyPerBitNJ: 50},
	}
	n := Normalize(rs)
	if n[0].ThroughputMbps != 0.5 || n[1].ThroughputMbps != 1.0 {
		t.Fatalf("throughput normalization: %+v", n)
	}
	if n[0].EnergyPerBitNJ != 1.0 || n[1].EnergyPerBitNJ != 0.5 {
		t.Fatalf("energy normalization: %+v", n)
	}
	if len(Normalize(nil)) != 0 {
		t.Fatal("empty normalize")
	}
}
