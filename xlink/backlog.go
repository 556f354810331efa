package xlink

import (
	"runtime"
	"sync"
)

// The write backlog (DESIGN.md §16, hazard 4): a foreign writer waits for
// its endpoint's connection to drain; a shard never waits.

// writeBacklog bounds what a writer that is no shard may have queued on one
// endpoint (backlogLocked). Over it, such a Write waits (awaitBacklog) until
// the connection drains, as the endpoint's lock once slowed every writer, so
// a writer faster than the connection cannot grow the FIFO and the send
// buffer without bound.
const writeBacklog = 4 << 20

// awaitBacklog waits while the established connection's backlog is over
// writeBacklog, unless the caller is a shard goroutine: a callback may write
// to any endpoint, its own shard's included, and the ACKs that drain a
// connection are handled by shards alone, so a shard never waits.
func (ep *Endpoint) awaitBacklog() {
	for {
		ep.snapMu.Lock()
		wait := ep.snap.established && ep.backlogLocked() > writeBacklog
		if wait && ep.drained == nil {
			ep.drained = make(chan struct{})
		}
		drained := ep.drained
		ep.snapMu.Unlock()
		if !wait || onShardGoroutine() {
			return
		}
		<-drained
	}
}

// backlogLocked returns the endpoint's write backlog: the connection's send
// buffer as of the last snapshot, plus the bytes Writes posted that it does
// not count yet — those the shard has not applied and those a turn applied
// and has not published. publish moves bytes from the second term to the
// first under snapMu, which the caller holds, so no byte drops out between.
func (ep *Endpoint) backlogLocked() int64 {
	return ep.queued.Load() + int64(ep.snap.stats.SendBufferedBytes)
}

// shardGoroutines holds the IDs of the running shard goroutines, each
// registered by its shard (EventLoopGroup.run) while it runs.
var shardGoroutines sync.Map

// onShardGoroutine reports whether the caller is a shard goroutine.
func onShardGoroutine() bool {
	_, ok := shardGoroutines.Load(goid())
	return ok
}

// goid returns the calling goroutine's ID, read from the header of its
// stack trace ("goroutine 7 [running]:"): Go gives a goroutine no other
// identity. A shard asks once, as it starts, and a Write only when it
// finds its backlog over the bound.
func goid() uint64 {
	var buf [32]byte
	var id uint64
	for _, c := range buf[len("goroutine "):runtime.Stack(buf[:], false)] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
