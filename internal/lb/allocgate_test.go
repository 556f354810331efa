package lb

import (
	"testing"

	"repro/internal/wire"
)

// TestAllocGateForward gates the balancer's per-datagram route path at zero
// allocations (scripts/check.sh runs every TestAllocGate*): a short header
// routed by its server ID, a long header routed by hash, and the counted
// drops of an unknown server ID and of a runt datagram bump the router's
// struct counters only.
func TestAllocGateForward(t *testing.T) {
	r := NewRouter(8)
	var hits int
	r.AddBackend(1, BackendFunc(func(int, []byte) { hits++ }))
	r.AddBackend(2, BackendFunc(func(int, []byte) { hits++ }))

	short := append(wire.AppendShort(nil, wire.ConnectionID{1, 9, 9, 9, 9, 9, 9, 9}, 0, 1), make([]byte, 32)...)
	unknown := append(wire.AppendShort(nil, wire.ConnectionID{99, 9, 9, 9, 9, 9, 9, 9}, 0, 1), make([]byte, 32)...)
	long := []byte{0xc0, 0, 0, 0, 1, 8, 5, 4, 3, 2, 1, 0, 7, 6, 0, 0}
	runt := []byte{0x40}
	route := func() {
		r.Forward(0, short)
		r.Forward(0, long)
		r.Forward(0, unknown)
		r.Forward(0, runt)
	}
	route()
	// One call above, AllocsPerRun's warm-up and 200 measured: 202 of each.
	if avg := testing.AllocsPerRun(200, route); avg != 0 {
		t.Fatalf("routing four datagrams allocates %.1f, want 0", avg)
	}
	if hits != 2*202 || r.RoutedByID != 202 || r.RoutedByHash != 202 || r.DroppedUnknownID != 202 || r.Dropped != 2*202 {
		t.Fatalf("%d delivered, by ID %d, by hash %d, unknown %d, dropped %d",
			hits, r.RoutedByID, r.RoutedByHash, r.DroppedUnknownID, r.Dropped)
	}
}
