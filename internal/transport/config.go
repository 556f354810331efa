package transport

import (
	"time"

	"repro/internal/cc"
	"repro/internal/obs"
	"repro/internal/wire"
)

// AckPolicy selects the return path for ACK_MP frames (Sec 5.3,
// "Fastest-path Multi-path ACK").
type AckPolicy int

// ACK_MP path selection strategies evaluated in Fig 8.
const (
	// AckMinRTT returns acknowledgements on the lowest-RTT active path —
	// XLINK's choice.
	AckMinRTT AckPolicy = iota
	// AckOriginalPath returns acknowledgements on the path the packets
	// arrived on, like MPTCP sub-flow ACKs.
	AckOriginalPath
)

// String returns the policy name.
func (p AckPolicy) String() string {
	if p == AckMinRTT {
		return "minRTT"
	}
	return "original"
}

// ReinjectionMode selects the re-injection strategy (Fig 4).
type ReinjectionMode int

// Re-injection modes, in increasing video-awareness.
const (
	// ReinjectNone disables re-injection (vanilla-MP).
	ReinjectNone ReinjectionMode = iota
	// ReinjectAppending is the traditional mode: duplicates are appended
	// behind all unsent data (Fig 4a).
	ReinjectAppending
	// ReinjectStreamPriority inserts duplicates of an early stream before
	// unsent data of later streams (Fig 4b).
	ReinjectStreamPriority
	// ReinjectFramePriority additionally orders duplicates by the
	// application's video-frame priorities within a stream, accelerating
	// the first video frame (Fig 4c).
	ReinjectFramePriority
)

// String returns the mode name.
func (m ReinjectionMode) String() string {
	switch m {
	case ReinjectNone:
		return "none"
	case ReinjectAppending:
		return "appending"
	case ReinjectStreamPriority:
		return "stream-priority"
	default:
		return "frame-priority"
	}
}

// ReinjectionGate decides, at pull time, whether re-injection is currently
// allowed. XLINK installs the double-thresholding controller here;
// "re-injection w/o QoE control" installs an always-true gate.
// maxDeliverTime is Eq. 1: the maximum RTT+δ over paths with unacked data.
type ReinjectionGate func(now, maxDeliverTime time.Duration) bool

// FECGate decides, per protection window of sourceSymbols symbols, whether
// to emit repair symbols and how many (the code rate). XLINK installs the
// QoE redundancy controller here: Alg. 1's Δt picks the recovery lane —
// re-inject on a fast path, or pre-emptively FEC the tail on lossy paths —
// and the loss estimate sizes the redundancy. nil means the default
// loss-proportional policy (always protect, ceil(k·loss) repairs in
// [1, 4]). maxDeliverTime is Eq. 1, as for ReinjectionGate; lossRate is
// the connection-wide estimate from the recovery spaces.
type FECGate func(now, maxDeliverTime time.Duration, lossRate float64, sourceSymbols int) (protect bool, repairs int)

// MinRTTSelector picks the path for the next data packet among usable paths
// with congestion window space: the lowest-smoothed-RTT candidate, as in
// MPQUIC's default scheduler.
func MinRTTSelector(now time.Duration, candidates []*Path) *Path {
	var best *Path
	for _, p := range candidates {
		if best == nil || p.RTT.Smoothed() < best.RTT.Smoothed() {
			best = p
		}
	}
	return best
}

// Protocol constants with one value in use everywhere, hence not Config
// fields.
const (
	// cidLen is the length of the connection IDs this endpoint issues and
	// expects on short-header packets.
	cidLen = 8
	// maxCIDs is the most connection IDs either side issues or accepts, and
	// so the most paths a connection can open: a path is identified by its
	// CID sequence number, and maybeInitSecondaryPaths opens path seq only
	// when both sides' CID for seq exists. Within it, each side issues what
	// the other's active_connection_id_limit allows (cidLimit), and a peer's
	// NEW_CONNECTION_ID beyond our own limit is refused before the sequence
	// number sizes the CID table.
	maxCIDs = 8
	// ackElicitingThreshold is how many ack-eliciting packets a path
	// receives before its ACK is due (RFC 9000 §13.2.2). A due ACK leaves in
	// the next send pass, on a packet of its own if nothing else is going
	// out; one not yet due rides only on a packet that carries another frame
	// (DESIGN.md §20). An ack-eliciting packet that arrives out of order
	// makes the ACK due at once.
	ackElicitingThreshold = 2
	// pathGiveUpPTOs abandons a path outright (PATH_STATUS abandon +
	// evacuation) when its PTO count reaches this threshold while another
	// usable path exists; path 0 stays the primary even when abandoned.
	// Not applied when Config.DisablePathHealth is set.
	pathGiveUpPTOs = 5
)

// cidLimit is how many connection IDs an active_connection_id_limit lets a
// side hold, capped at maxCIDs. The parser reports an absent limit as zero,
// which reads as RFC 9000's default of 2 (§18.2).
func cidLimit(advertised uint64) int {
	if advertised == 0 {
		return 2
	}
	return int(min(advertised, maxCIDs))
}

// Config parameterizes a connection.
type Config struct {
	// IsClient selects the connection role.
	IsClient bool
	// PSK is the pre-shared secret standing in for the TLS handshake
	// (see DESIGN.md substitutions). Both endpoints must agree.
	PSK []byte
	// Params are the local transport parameters.
	Params wire.TransportParams
	// CCAlgorithm selects each path's congestion controller, uncoupled
	// (Cubic in the paper).
	CCAlgorithm cc.Algorithm
	// AckPolicy selects the ACK_MP return path.
	AckPolicy AckPolicy
	// ReinjectionMode selects the re-injection strategy (server side).
	ReinjectionMode ReinjectionMode
	// ReinjectionGate gates re-injection; nil means always allowed when
	// ReinjectionMode != ReinjectNone.
	ReinjectionGate ReinjectionGate
	// FECGate gates the forward-erasure-correction lane per protection
	// window; nil means the default loss-proportional policy. Only
	// consulted when both endpoints negotiated Params.EnableFEC.
	FECGate FECGate
	// MaxAckDelay bounds how long an ack may be withheld: an ACK queued
	// below ackElicitingThreshold, with nothing to ride on, leaves alone
	// MaxAckDelay after the largest packet it covers arrived — the one
	// deadline that delays an ACK, and a connection timer deadline like a
	// PTO. Default 25 ms (RFC 9000's max_ack_delay).
	MaxAckDelay time.Duration
	// QoEProvider, on the client, supplies the current player signal to
	// piggyback on every outgoing ACK_MP frame; a zero signal rides none.
	QoEProvider func() wire.QoESignal
	// OnQoE, on the server, observes client QoE signals.
	OnQoE func(now time.Duration, sig wire.QoESignal)
	// OnStreamData delivers in-order stream data to the application. data is
	// valid for the call only: it aliases buffers the connection reuses once
	// the callback returns, so a callback that keeps bytes copies them.
	OnStreamData func(now time.Duration, s *RecvStream, data []byte, fin bool)
	// OnStreamOpen announces a peer-initiated stream.
	OnStreamOpen func(now time.Duration, s *RecvStream)
	// OnHandshakeDone fires when the handshake completes.
	OnHandshakeDone func(now time.Duration)
	// ServerID is encoded into issued CIDs for QUIC-LB routing (Sec 6,
	// "Work with Load Balancers"); zero is fine outside LB deployments.
	ServerID byte
	// SecondaryPathDelay models interface bring-up latency: secondary
	// paths are initiated this long after the handshake completes
	// (cellular radio attach takes hundreds of milliseconds on phones).
	SecondaryPathDelay time.Duration
	// DisablePathHealth turns off XLINK's QoE-aware path management
	// (suspicion on repeated timeouts, receive/ack staleness demotion,
	// PATH_STATUS standby signalling, evacuation with congestion reset).
	// The vanilla-MP baseline runs with it disabled, reproducing the
	// Sec 3 pathology: the min-RTT scheduler keeps trusting a dying path
	// and recovers stranded data only at RTO cadence.
	DisablePathHealth bool
	// ForcePrimary overrides wireless-aware primary path selection and
	// starts the connection on its first interface instead — used by the
	// Fig 7 experiment to contrast primary-path choices.
	ForcePrimary bool
	// IdleTimeout closes the connection (silently, RFC 9000 §10.1 style)
	// when no packet has been successfully received for this long. Zero
	// disables, preserving the pre-hardening behavior of experiments that
	// let connections sit idle.
	IdleTimeout time.Duration
	// HandshakeMaxPTOs caps Initial retransmission attempts; once
	// exhausted the connection enters a terminal error state (surfaced via
	// Stats and OnClosed) instead of stalling silently. Zero means the
	// default (8).
	HandshakeMaxPTOs int
	// OnClosed fires once when the connection leaves service — local
	// close, peer close, idle timeout, or handshake failure.
	OnClosed func(now time.Duration, code uint64, reason string, local bool)
	// Tracer, when set, receives qlog-style structured events for every
	// packet, path, lifecycle, CC and re-injection decision this
	// connection makes (see internal/obs). nil is the no-op default: the
	// emit sites are nil-receiver-safe and allocation-free.
	Tracer *obs.Origin
	// Seed randomizes CIDs and challenge payloads deterministically.
	Seed int64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if len(c.PSK) == 0 {
		c.PSK = []byte("xlink-reproduction-default-psk!!")
	}
	if c.Params == (wire.TransportParams{}) {
		c.Params = wire.DefaultTransportParams()
	}
	if c.MaxAckDelay == 0 {
		c.MaxAckDelay = 25 * time.Millisecond
	}
	if c.HandshakeMaxPTOs == 0 {
		c.HandshakeMaxPTOs = 8
	}
	return c
}

// Close error codes surfaced in ConnStats.CloseErrorCode and the OnClosed
// callback.
const (
	// ErrCodeNone is a clean application close.
	ErrCodeNone uint64 = 0
	// ErrCodeFlowControl (RFC 9000 FLOW_CONTROL_ERROR) means the peer sent
	// stream data beyond a limit this endpoint advertised.
	ErrCodeFlowControl uint64 = 0x03
	// ErrCodeFinalSize (RFC 9000 FINAL_SIZE_ERROR) means the peer changed a
	// stream's final size, or sent data beyond it.
	ErrCodeFinalSize uint64 = 0x06
	// ErrCodeConnectionIDLimit (RFC 9000 CONNECTION_ID_LIMIT_ERROR) means the
	// peer issued a connection ID with a sequence number beyond the
	// active_connection_id_limit this endpoint advertised (or maxCIDs).
	ErrCodeConnectionIDLimit uint64 = 0x09
	// ErrCodeProtocolViolation (RFC 9000 PROTOCOL_VIOLATION) means the peer
	// acknowledged a packet this endpoint never sent (RFC 9000 §13.1).
	ErrCodeProtocolViolation uint64 = 0x0a
	// ErrCodeHandshakeTimeout means the Initial PTO budget was exhausted
	// before the handshake completed.
	ErrCodeHandshakeTimeout uint64 = 0x11
	// ErrCodeIdleTimeout means nothing was received for IdleTimeout.
	ErrCodeIdleTimeout uint64 = 0x12
)
