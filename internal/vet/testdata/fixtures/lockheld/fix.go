// Package fix is an xlinkvet self-test fixture for the lockheld rule:
// blocking operations, callback invocations, trace emits, and deadlock
// shapes reachable while a sync.Mutex is held. 7 findings expected.
package fix

import (
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

type server struct {
	mu   sync.Mutex
	q    chan int
	conn *net.UDPConn
	o    *obs.Origin
	n    int
}

// SleepUnderLock sleeps while holding mu: 1 finding (direct blocking op).
func (s *server) SleepUnderLock() {
	s.mu.Lock()
	//xlinkvet:ignore determinism — fixture exercises lockheld, not the clock rule
	time.Sleep(time.Millisecond) // finding: lockheld
	s.mu.Unlock()
}

// SendUnderDeferredLock sends on a channel while a deferred unlock keeps mu
// held through the body: 1 finding.
func (s *server) SendUnderDeferredLock(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.q <- v // finding: lockheld
}

// CallbackUnderLock invokes a caller-supplied function under mu — it could
// re-enter the lock: 1 finding.
func (s *server) CallbackUnderLock(cb func()) {
	s.mu.Lock()
	cb() // finding: lockheld
	s.mu.Unlock()
}

// EmitUnderLock emits a trace event under mu: 1 finding.
func (s *server) EmitUnderLock(now time.Duration) {
	s.mu.Lock()
	s.o.PacketAcked(now, 0, 1) // finding: lockheld
	s.mu.Unlock()
}

// netIO blocks on socket I/O; clean on its own (no lock held here).
func (s *server) netIO(b []byte) {
	s.conn.Write(b)
}

// TransitiveBlock holds mu across a call whose callee blocks: 1 finding at
// the call site, attributed through the summary graph.
func (s *server) TransitiveBlock(b []byte) {
	s.mu.Lock()
	s.netIO(b) // finding: lockheld (reaches net I/O)
	s.mu.Unlock()
}

// lockAgain takes mu; clean on its own.
func (s *server) lockAgain() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// DoubleLock calls a helper that re-acquires the mutex it already holds:
// 1 finding (self-deadlock through the call graph).
func (s *server) DoubleLock() {
	s.mu.Lock()
	s.lockAgain() // finding: lockheld (deadlock)
	s.mu.Unlock()
}

type pair struct {
	a, b sync.Mutex
}

// ABOrder and BAOrder acquire the two locks in conflicting orders:
// 1 finding for the a/b ordering cycle (reported once, at the first edge).
func (p *pair) ABOrder() {
	p.a.Lock()
	p.b.Lock() // finding: lockheld (cycle edge a→b vs BAOrder's b→a)
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) BAOrder() {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}

// UnderLockOK does plain in-memory work under the lock: no finding.
func (s *server) UnderLockOK() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// BlockOutsideLock blocks with no lock held: no finding.
func (s *server) BlockOutsideLock(v int) {
	s.q <- v
}

// Suppressed documents a deliberate hand-off under the lock: no finding.
func (s *server) Suppressed(v int) {
	s.mu.Lock()
	//xlinkvet:ignore lockheld — fixture: deliberate, documented send under lock
	s.q <- v
	s.mu.Unlock()
}
