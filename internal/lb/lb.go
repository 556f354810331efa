// Package lb implements the QUIC-LB-style load balancing XLINK deploys in
// front of its CDN servers (Sec 6, "Work with Load Balancers"): real
// servers encode a server ID in the connection IDs they issue, and the
// balancer routes short-header packets by that ID so every path of a
// multi-path connection lands on the same backend. Long-header (Initial)
// packets, whose destination CID is client-chosen, are routed by
// consistent hashing.
package lb

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Backend receives datagrams for one real server.
type Backend interface {
	// Deliver hands the backend a datagram that arrived on netIdx.
	Deliver(netIdx int, data []byte)
}

// BackendFunc adapts a function to Backend.
type BackendFunc func(netIdx int, data []byte)

// Deliver implements Backend.
func (f BackendFunc) Deliver(netIdx int, data []byte) { f(netIdx, data) }

// Router routes datagrams to backends by the server ID byte embedded in
// connection IDs.
// A Router is confined to the single goroutine that pumps its listen
// socket: Add and Remove mutate its routing tables and its per-backend
// counter map without any lock, so they must be called from that
// goroutine too.
type Router struct {
	cidLen   int
	backends map[byte]Backend
	ids      []byte

	// FallbackRoute, when true, re-routes short-header packets whose server
	// ID matches no live backend to one chosen by the first CID byte instead
	// of dropping them. Off by default: the ID in a short-header CID was
	// placed there by a specific real server, so sending the packet anywhere
	// else only burns backend CPU on an undecryptable datagram. Enable it
	// only for migration windows where a backend's connections were handed
	// to a successor.
	FallbackRoute bool

	// Stats.
	RoutedByID   uint64
	RoutedByHash uint64
	// RoutedByFallback counts unknown-ID short-header packets re-routed by
	// the FallbackRoute option.
	RoutedByFallback uint64
	Dropped          uint64
	// DroppedUnknownID counts short-header packets whose embedded server ID
	// matched no registered backend (a removed or never-known server).
	DroppedUnknownID uint64

	// Registry metrics (optional, see SetRegistry): per-backend routed
	// counters and a drop counter. Handles are cached at registration so
	// the route path bumps atomics without lookups or allocation.
	routed  map[byte]*obs.Counter
	dropped *obs.Counter
	reg     *obs.Registry
}

// NewRouter creates a router for endpoints using cidLen-byte CIDs.
func NewRouter(cidLen int) *Router {
	return &Router{cidLen: cidLen, backends: make(map[byte]Backend)}
}

// SetRegistry attaches a metrics registry: routed packets are counted per
// backend under xlink_lb_routed_total{backend="<id>"} and drops under
// xlink_lb_dropped_total. Call before AddBackend so every backend gets its
// labeled counter (backends added afterwards are picked up too).
func (r *Router) SetRegistry(reg *obs.Registry) {
	r.reg = reg
	if reg == nil {
		return
	}
	r.dropped = reg.Counter(obs.MetricLBDropped)
	r.routed = make(map[byte]*obs.Counter)
	for _, id := range r.ids {
		r.routed[id] = reg.Counter(obs.MetricLBRouted.With("backend", fmt.Sprintf("%02x", id)))
	}
}

// AddBackend registers a real server under its server ID.
func (r *Router) AddBackend(serverID byte, b Backend) {
	if _, exists := r.backends[serverID]; !exists {
		r.ids = append(r.ids, serverID)
	}
	r.backends[serverID] = b
	if r.reg != nil && r.routed[serverID] == nil {
		r.routed[serverID] = r.reg.Counter(obs.MetricLBRouted.With("backend", fmt.Sprintf("%02x", serverID)))
	}
}

// RemoveBackend unregisters a real server (crash, drain, scale-down). Its
// in-flight connections become unroutable: subsequent short-header packets
// carrying its ID are counted in DroppedUnknownID (or re-routed when
// FallbackRoute is set), and long-header hashing redistributes over the
// survivors.
func (r *Router) RemoveBackend(serverID byte) {
	if _, exists := r.backends[serverID]; !exists {
		return
	}
	delete(r.backends, serverID)
	for i, id := range r.ids {
		if id == serverID {
			r.ids = append(r.ids[:i], r.ids[i+1:]...)
			break
		}
	}
}

// hashCID consistently hashes a CID onto a registered backend, used for
// client-chosen CIDs (Initials) where no server ID is embedded.
func (r *Router) hashCID(cid []byte) (byte, bool) {
	if len(r.ids) == 0 {
		return 0, false
	}
	var h uint32 = 2166136261
	for _, b := range cid {
		h ^= uint32(b)
		h *= 16777619
	}
	return r.ids[h%uint32(len(r.ids))], true
}

// extractDCID returns the destination CID of a datagram.
func (r *Router) extractDCID(data []byte) ([]byte, bool) {
	if len(data) < 2 {
		return nil, false
	}
	if wire.IsLongHeader(data[0]) {
		if len(data) < 7 {
			return nil, false
		}
		dcidLen := int(data[5])
		if dcidLen == 0 || 6+dcidLen > len(data) {
			return nil, false
		}
		return data[6 : 6+dcidLen], true
	}
	if len(data) < 1+r.cidLen {
		return nil, false
	}
	return data[1 : 1+r.cidLen], true
}

// Route selects the backend for a datagram. The bool reports routability.
func (r *Router) Route(data []byte) (Backend, bool) {
	dcid, ok := r.extractDCID(data)
	if !ok {
		r.drop()
		return nil, false
	}
	if !wire.IsLongHeader(data[0]) {
		// Short header: the first CID byte is the server ID the real
		// server embedded when issuing the CID.
		if b, ok := r.backends[dcid[0]]; ok {
			r.RoutedByID++
			r.countRouted(dcid[0])
			return b, true
		}
		// Unknown server ID: the owning backend is gone (or never existed).
		// Hashing the packet to an arbitrary backend cannot help — it holds
		// no keys for the connection — so the default is a counted drop.
		if !r.FallbackRoute || len(r.ids) == 0 {
			r.drop()
			r.DroppedUnknownID++
			return nil, false
		}
		r.RoutedByFallback++
		id := r.ids[int(dcid[0])%len(r.ids)]
		r.countRouted(id)
		return r.backends[id], true
	}
	id, ok := r.hashCID(dcid)
	if !ok {
		r.drop()
		return nil, false
	}
	r.RoutedByHash++
	r.countRouted(id)
	return r.backends[id], true
}

// countRouted bumps the chosen backend's labeled counter (no-op without a
// registry).
func (r *Router) countRouted(id byte) {
	if c := r.routed[id]; c != nil {
		c.Inc()
	}
}

// drop bumps both the struct counter and the registry counter.
func (r *Router) drop() {
	r.Dropped++
	if r.dropped != nil {
		r.dropped.Inc()
	}
}

// Forward routes and delivers a datagram that arrived on netIdx.
func (r *Router) Forward(netIdx int, data []byte) {
	if b, ok := r.Route(data); ok {
		b.Deliver(netIdx, data)
	}
}

// Datagram is one unit of route-loop work: a received datagram plus the
// network index it arrived on.
type Datagram struct {
	NetIdx int
	Data   []byte
}

// Pump is the balancer's route loop: it forwards datagrams from in until
// done closes or in is closed. Pump runs in the caller's goroutine and IS
// the confining goroutine for the router's tables — AddBackend/RemoveBackend
// must not race with it. Launch it as `go r.Pump(in, done)` and close done
// to get a clean exit; the -race test asserts the loop actually terminates.
func (r *Router) Pump(in <-chan Datagram, done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		case d, ok := <-in:
			if !ok {
				return
			}
			r.Forward(d.NetIdx, d.Data)
		}
	}
}
