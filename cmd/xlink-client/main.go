// Command xlink-client is the live demo client: it opens a multi-path
// connection to xlink-server over two local UDP sockets (standing in for
// Wi-Fi and LTE interfaces), fetches the demo video in chunked range
// requests, simulates playback, and prints QoE metrics.
//
//	xlink-client [-server 127.0.0.1:4242] [-size 8388608] [-chunk 524288]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/video"
	"repro/xlink"
)

func main() {
	serverAddr := flag.String("server", "127.0.0.1:4242", "server UDP address")
	size := flag.Uint64("size", 8<<20, "video size in bytes (must match server)")
	chunk := flag.Uint64("chunk", 512<<10, "range request size")
	flag.Parse()

	v := video.Video{
		ID: "demo", Size: *size, BitrateBps: 2_500_000, FPS: 30,
		FirstFrameSize: 128 << 10,
	}
	player := video.NewPlayer(v, video.DefaultPlayerConfig())
	// playerMu guards player: data callbacks feed it, the transport reads its
	// QoE signal whenever it sends an acknowledgement — on a shard or timer
	// goroutine, also after the last chunk's callback — and main reads the
	// metrics at the end.
	var playerMu sync.Mutex
	start := time.Now()

	type chunkState struct {
		offset, length, got uint64
		sentAt              time.Time
	}
	chunks := map[uint64]*chunkState{}
	var nextOffset uint64
	var delivered atomic.Uint64
	done := make(chan struct{})

	// Callbacks run on the endpoint's read-loop goroutine and can fire
	// before Dial returns; ready orders the client variable write below
	// before the closures read it.
	ready := make(chan struct{})

	var client *xlink.Endpoint
	var issue func()
	issue = func() {
		outstanding := 0
		for _, c := range chunks {
			if c.got < c.length {
				outstanding++
			}
		}
		for outstanding < 2 && nextOffset < v.Size {
			length := *chunk
			if nextOffset+length > v.Size {
				length = v.Size - nextOffset
			}
			s := client.OpenStream()
			chunks[s.ID()] = &chunkState{offset: nextOffset, length: length, sentAt: time.Now()}
			s.Write([]byte(video.FormatRequest(video.Request{ID: v.ID, Offset: nextOffset, Length: length})))
			s.Close()
			nextOffset += length
			outstanding++
		}
	}

	var err error
	client, err = xlink.Dial(*serverAddr,
		[]string{"127.0.0.1:0", "127.0.0.1:0"},
		[]xlink.Technology{xlink.TechWiFi, xlink.TechLTE},
		xlink.LiveConfig{
			Scheme: xlink.SchemeXLINK,
			QoEProvider: func() xlink.QoESignal {
				playerMu.Lock()
				defer playerMu.Unlock()
				return player.QoESignal()
			},
			OnHandshakeDone: func(now time.Duration) {
				<-ready
				log.Printf("handshake done in %v", time.Since(start))
				issue()
			},
			OnStreamData: func(now time.Duration, s *xlink.RecvStream, data []byte, fin bool) {
				<-ready
				c := chunks[s.ID()]
				if c == nil {
					return
				}
				c.got += uint64(len(data))
				delivered.Add(uint64(len(data)))
				playerMu.Lock()
				player.OnData(time.Since(start), uint64(len(data)))
				playerMu.Unlock()
				if fin {
					log.Printf("chunk [%d,%d) done in %v", c.offset, c.offset+c.length, time.Since(c.sentAt))
					issue()
					if delivered.Load() >= v.Size {
						close(done)
					}
				}
			},
		})
	if err != nil {
		log.Fatal(err)
	}
	close(ready)
	defer client.Close()

	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		log.Fatalf("timed out with %d of %d bytes", delivered.Load(), v.Size)
	}
	playerMu.Lock()
	m := player.Metrics(time.Since(start))
	playerMu.Unlock()
	st := client.Stats()
	fmt.Printf("downloaded %d bytes in %v\n", delivered.Load(), time.Since(start))
	fmt.Printf("first-frame latency: %v   startup: %v\n", m.FirstFrameLatency, m.StartupLatency)
	fmt.Printf("rebuffers: %d (%.0f ms)   duplicate bytes received: %d\n",
		m.RebufferCount, m.RebufferTime.Seconds()*1000, st.DuplicateBytesRecv)
}
