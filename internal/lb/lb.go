// Package lb implements the QUIC-LB-style load balancing XLINK deploys in
// front of its CDN servers (Sec 6, "Work with Load Balancers"): real
// servers encode a server ID in the connection IDs they issue, and the
// balancer routes short-header packets by that ID so every path of a
// multi-path connection lands on the same backend. Long-header (Initial)
// packets, whose destination CID is client-chosen, are routed by
// consistent hashing.
package lb

import "repro/internal/wire"

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
// connection IDs. A Router is confined to the goroutine that forwards its
// listen socket's datagrams: AddBackend mutates its routing tables without
// any lock, so it must be called from that goroutine too.
type Router struct {
	cidLen   int
	backends map[byte]Backend
	ids      []byte

	// Stats.
	RoutedByID   uint64
	RoutedByHash uint64
	Dropped      uint64
	// DroppedUnknownID counts short-header packets whose embedded server ID
	// matched no registered backend.
	DroppedUnknownID uint64
}

// NewRouter creates a router for endpoints using cidLen-byte CIDs.
func NewRouter(cidLen int) *Router {
	return &Router{cidLen: cidLen, backends: make(map[byte]Backend)}
}

// AddBackend registers a real server under its server ID.
func (r *Router) AddBackend(serverID byte, b Backend) {
	if _, exists := r.backends[serverID]; !exists {
		r.ids = append(r.ids, serverID)
	}
	r.backends[serverID] = b
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
		r.Dropped++
		return nil, false
	}
	if !wire.IsLongHeader(data[0]) {
		// Short header: the first CID byte is the server ID the real
		// server embedded when issuing the CID.
		if b, ok := r.backends[dcid[0]]; ok {
			r.RoutedByID++
			return b, true
		}
		// Unknown server ID: the owning backend is gone (or never existed).
		// Any other backend holds no keys for the connection, so the packet
		// is a counted drop.
		r.Dropped++
		r.DroppedUnknownID++
		return nil, false
	}
	id, ok := r.hashCID(dcid)
	if !ok {
		r.Dropped++
		return nil, false
	}
	r.RoutedByHash++
	return r.backends[id], true
}

// Forward routes and delivers a datagram that arrived on netIdx.
func (r *Router) Forward(netIdx int, data []byte) {
	if b, ok := r.Route(data); ok {
		b.Deliver(netIdx, data)
	}
}
