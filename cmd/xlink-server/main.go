// Command xlink-server is the live demo media server: it listens on a UDP
// address and answers range requests of the form "GET <id> <offset> <len>\n"
// with synthesized video content, tagging the first video frame for
// frame-priority re-injection.
//
//	xlink-server [-listen 127.0.0.1:4242] [-size 8388608] [-firstframe 131072]
//
// Pair it with xlink-client.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/video"
	"repro/xlink"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:4242", "UDP listen address")
	size := flag.Uint64("size", 8<<20, "video size in bytes")
	firstFrame := flag.Uint64("firstframe", 128<<10, "first video frame size in bytes")
	flag.Parse()

	v := video.Video{
		ID: "demo", Size: *size, BitrateBps: 2_500_000, FPS: 30,
		FirstFrameSize: *firstFrame,
	}

	var server *xlink.Endpoint
	pending := map[uint64]*strings.Builder{}
	// The callback runs on the endpoint's shard goroutine and can fire
	// before Listen returns; ready orders the server variable write below
	// before the closure reads it.
	ready := make(chan struct{})
	var err error
	server, err = xlink.Listen(*listen, xlink.LiveConfig{
		Scheme: xlink.SchemeXLINK,
		OnStreamData: func(now time.Duration, s *xlink.RecvStream, data []byte, fin bool) {
			<-ready
			b := pending[s.ID()]
			if b == nil {
				if len(data) == 0 && fin {
					return // trailing FIN on a stream whose request was already served
				}
				b = &strings.Builder{}
				pending[s.ID()] = b
			}
			b.Write(data)
			if !strings.Contains(b.String(), "\n") && !fin {
				return
			}
			req, err := video.ParseRequest(b.String())
			delete(pending, s.ID())
			if err != nil {
				log.Printf("bad request on stream %d: %v", s.ID(), err)
				return
			}
			end := req.Offset + req.Length
			if end > v.Size || req.Length == 0 {
				end = v.Size
			}
			ss := server.StreamFor(s.ID())
			payload := video.SynthesizeContent(v.ID, req.Offset, end-req.Offset)
			if req.Offset < v.FirstFrameSize {
				ff := v.FirstFrameSize - req.Offset
				if ff > uint64(len(payload)) {
					ff = uint64(len(payload))
				}
				ss.WriteFrame(payload[:ff], 0)
				payload = payload[ff:]
			}
			if len(payload) > 0 {
				ss.Write(payload)
			}
			ss.Close()
			log.Printf("served %s [%d,%d) on stream %d", req.ID, req.Offset, end, s.ID())
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	close(ready)
	defer server.Close()
	fmt.Printf("xlink-server: listening on %s, serving %q (%d bytes)\n",
		server.LocalAddrs()[0], v.ID, v.Size)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	st := server.Stats()
	fmt.Printf("\nserved: %d packets, %d bytes (%.2f%% re-injected)\n",
		st.SentPackets, st.SentBytes, st.RedundancyRatio()*100)
}
