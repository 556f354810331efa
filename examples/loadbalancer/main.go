// Loadbalancer: a QUIC-LB-style deployment (Sec 6) — multi-homed clients
// connect through a balancer to two backend media servers. Real servers
// embed a server ID in the connection IDs they issue, so every path of a
// connection is routed to the backend that owns it; client-chosen Initial
// CIDs are routed by consistent hashing.
//
//	go run ./examples/loadbalancer
package main

import (
	"fmt"
	"log"
	"slices"
	"time"

	"repro/internal/lb"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	loop := sim.NewLoop()
	env := transport.SimEnv{Loop: loop}
	params := wire.DefaultTransportParams()
	params.EnableMultipath = true

	pktCount := map[byte]int{}
	var totalByID, totalByHash uint64

	for c := 0; c < 4; c++ {
		clientName := fmt.Sprintf("client-%d", c)
		nw := netem.NewNetwork(loop, sim.NewRNG(int64(c+1)), []netem.PathConfig{
			{Name: "wifi", Tech: trace.TechWiFi, Up: trace.ConstantRate("w", 20, time.Second), OneWayDelay: 10 * time.Millisecond},
			{Name: "lte", Tech: trace.TechLTE, Up: trace.ConstantRate("l", 15, time.Second), OneWayDelay: 30 * time.Millisecond},
		})
		client := transport.NewConn(env, transport.NetemSender{Network: nw, Client: true},
			transport.Config{IsClient: true, Params: params, Seed: int64(c + 10)})
		client.AddInterface(0, trace.TechWiFi)
		client.AddInterface(1, trace.TechLTE)

		// Each client's traffic flows through its own balancer instance
		// (they'd share one in production; per-client here keeps the demo
		// self-contained), fronting the same two logical backends.
		router := lb.NewRouter(8)
		for _, id := range []byte{1, 2} {
			id := id
			srv := transport.NewConn(env, transport.NetemSender{Network: nw},
				transport.Config{Params: params, Seed: int64(c*7 + int(id)), ServerID: id})
			srv.SetOnStreamOpen(func(now time.Duration, rs *transport.RecvStream) {
				ss := srv.Stream(rs.ID())
				ss.Write(make([]byte, 256<<10))
				ss.Close()
			})
			router.AddBackend(id, lb.BackendFunc(func(netIdx int, data []byte) {
				pktCount[id]++
				srv.HandleDatagram(loop.Now(), netIdx, data)
			}))
		}

		nw.Attach(
			func(now time.Duration, pathIdx int, data []byte) {
				client.HandleDatagram(now, pathIdx, data)
			},
			func(now time.Duration, pathIdx int, data []byte) {
				router.Forward(pathIdx, data)
			})

		client.SetOnHandshakeDone(func(now time.Duration) {
			s := client.OpenStream()
			s.Write([]byte("GET"))
			s.Close()
		})
		received := 0
		client.SetOnStreamData(func(now time.Duration, rs *transport.RecvStream, data []byte, fin bool) {
			received += len(data)
			if fin {
				fmt.Printf("%s: fetched %d KB over %d paths at t=%v\n",
					clientName, received/1024, len(client.Paths()), now.Round(time.Millisecond))
			}
		})
		if err := client.Start(); err != nil {
			log.Fatal(err)
		}
		// Collect router stats after the run via closure capture.
		defer func(r *lb.Router) {
			totalByID += r.RoutedByID
			totalByHash += r.RoutedByHash
		}(router)
	}

	loop.RunUntil(10 * time.Second)
	fmt.Println()
	ids := make([]byte, 0, len(pktCount))
	for id := range pktCount {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fmt.Printf("backend %d handled %d packets\n", id, pktCount[id])
	}
	fmt.Println("\nevery connection's paths landed on the backend that issued its CIDs;")
	fmt.Println("Initials were hash-routed, everything else routed by the CID server ID.")
}
