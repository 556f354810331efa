// Package transport implements the multi-path QUIC-style connection that
// XLINK extends: streams with flow control, per-path packet number spaces
// and loss recovery, CID-based path management with validation, the
// ACK_MP/PATH_STATUS machinery, packet protection, and the send-queue
// plumbing (retransmission and re-injection mechanics) that the XLINK
// scheduler in internal/core drives.
//
// Connections are event-driven: datagrams, timers and application writes
// are all delivered as calls, and the connection transmits through a
// DatagramSender. Run on a sim.Loop for deterministic experiments or on a
// real-time environment for live UDP demos.
package transport

import (
	"time"

	"repro/internal/sim"
)

// Env provides time and timer scheduling to a connection.
type Env interface {
	// Now returns the current time.
	Now() time.Duration
	// Schedule runs fn at the given absolute time, returning a cancel
	// function. A connection holds at most one arm: it schedules only when
	// none is pending (the last one ran, or it cancelled it first), calls
	// cancel at most once, and only before fn starts — never after fn has
	// run or from inside it — so an Env may keep a single timer, and reuse
	// its cancel function, once either has happened.
	Schedule(at time.Duration, fn func(now time.Duration)) func()
}

// SimEnv adapts a sim.Loop to Env.
type SimEnv struct {
	Loop *sim.Loop
}

// Now implements Env.
func (e SimEnv) Now() time.Duration { return e.Loop.Now() }

// Schedule implements Env with the loop's own cancel, which allocates nothing
// once the loop is warm.
func (e SimEnv) Schedule(at time.Duration, fn func(now time.Duration)) func() {
	return e.Loop.Schedule(at, fn)
}

// DatagramSender transmits UDP payloads on a network interface. For
// emulated runs this is netem; for live runs it writes to a UDP socket.
// netIdx identifies the local interface/path the datagrams leave on.
//
// Ownership: the slice and every packet buffer in it alias the connection's
// reusable packet scratch (DESIGN.md §11, §16) and are valid only for the
// duration of the call. Implementations that queue, delay or record a
// datagram must copy it; netem's links and the UDP socket write both do.
// The same rule holds in the other direction at the receive boundary: the
// data passed to Conn.HandleDatagram is borrowed from the I/O layer's read
// buffers (e.g. the live read loop's pooled buffers) and must not be
// retained by the connection past the call — the connection decodes frames
// into its own scratch and the I/O layer recycles the buffer right after,
// even while the connection is held and its send pass is still owed.
type DatagramSender interface {
	// SendBatch transmits pkts in order on netIdx and returns how many
	// were handed to the network (implementations that cannot fail return
	// len(pkts)). It is sendmmsg-shaped: one virtual call per batch, and a
	// packet sent outside a send pass (an Initial, an overdue ACK, a close
	// resend) is a batch of one.
	SendBatch(netIdx int, pkts [][]byte) int
}
