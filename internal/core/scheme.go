// Package core assembles the pieces of XLINK (Sec 4-5) into runnable
// transport schemes and provides the session harness the experiments use:
// a multi-homed client playing a short video from a server over emulated
// paths, under a configurable scheme — single-path QUIC, vanilla multi-path
// (min-RTT, no re-injection), re-injection without QoE control, or full
// XLINK (stream/frame priority re-injection gated by double-thresholding
// QoE control, wireless-aware primary path selection, fastest-path ACK_MP).
package core

import (
	"time"

	"repro/internal/qoe"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Scheme names a transport configuration under test.
type Scheme int

// The schemes compared throughout the paper's evaluation.
const (
	// SchemeSinglePath is single-path QUIC (SP), the A/B control arm.
	SchemeSinglePath Scheme = iota
	// SchemeVanillaMP is multi-path QUIC with the min-RTT scheduler and
	// no re-injection, as deployed in Sec 3.
	SchemeVanillaMP
	// SchemeReinjNoQoE re-injects without QoE control (Fig 6c).
	SchemeReinjNoQoE
	// SchemeXLINK is the full system (Fig 6d).
	SchemeXLINK
)

// String returns the scheme name used in experiment output.
func (s Scheme) String() string {
	switch s {
	case SchemeSinglePath:
		return "SP"
	case SchemeVanillaMP:
		return "vanilla-MP"
	case SchemeReinjNoQoE:
		return "reinj-no-qoe"
	case SchemeXLINK:
		return "XLINK"
	default:
		return "unknown"
	}
}

// Options are the two scheme knobs the A/B arms vary. Anything else a
// variant changes (re-injection mode, congestion control, FEC) it sets on
// the transport configs through SessionConfig.Configure.
type Options struct {
	// Thresholds are the double-thresholding parameters; zero means the
	// paper's recommended (95, 80)-calibrated defaults (DefaultThresholds).
	Thresholds qoe.Thresholds
	// DisableFrameAcceleration turns off first-video-frame tagging
	// (Fig 12's "w/o first-frame acceleration" arm).
	DisableFrameAcceleration bool
}

// DefaultThresholds is a production-flavoured setting: re-inject urgently
// below one second of buffer, never above 2.5 s — the shape the (95, 80)
// calibration produces on this harness's play-time-left distribution
// (players here keep ~2.5 s of content ahead).
var DefaultThresholds = qoe.Thresholds{
	Tth1: time.Second,
	Tth2: 2500 * time.Millisecond,
}

// XLINK bundles the server-side controller state of one connection.
type XLINK struct {
	Scheme     Scheme
	Options    Options
	Controller *qoe.Controller
	// Redundancy sizes the FEC lane off Controller's Δt feed (SchemeXLINK
	// only; nil otherwise). The server consults it only once both endpoints
	// negotiate Params.EnableFEC.
	Redundancy *qoe.RedundancyController
}

// New creates the scheme assembly.
func New(s Scheme, opts Options) *XLINK {
	th := opts.Thresholds
	if !th.Valid() || th == (qoe.Thresholds{}) {
		th = DefaultThresholds
	}
	x := &XLINK{Scheme: s, Options: opts, Controller: qoe.NewController(th)}
	if s == SchemeXLINK {
		x.Redundancy = qoe.NewRedundancyController(x.Controller)
	}
	return x
}

// reinjectionMode returns the transport mode for the scheme.
func (x *XLINK) reinjectionMode() transport.ReinjectionMode {
	switch x.Scheme {
	case SchemeReinjNoQoE:
		return transport.ReinjectStreamPriority
	case SchemeXLINK:
		if x.Options.DisableFrameAcceleration {
			return transport.ReinjectStreamPriority
		}
		return transport.ReinjectFramePriority
	default:
		return transport.ReinjectNone
	}
}

// Multipath reports whether the scheme negotiates multi-path.
func (x *XLINK) Multipath() bool { return x.Scheme != SchemeSinglePath }

// ServerConfig builds the server transport configuration: re-injection
// mode, the QoE gate (Alg. 1) and the FEC gate for XLINK, and the feedback
// hook.
func (x *XLINK) ServerConfig(seed int64) transport.Config {
	params := wire.DefaultTransportParams()
	params.EnableMultipath = x.Multipath()
	cfg := transport.Config{
		Params:          params,
		Seed:            seed,
		ReinjectionMode: x.reinjectionMode(),
	}
	if x.Scheme == SchemeVanillaMP {
		// Vanilla multi-path QUIC has no QoE-aware path management: the
		// min-RTT scheduler keeps using degraded paths and recovers
		// stranded data only at RTO cadence (Sec 3).
		cfg.DisablePathHealth = true
	}
	if x.Scheme == SchemeXLINK {
		cfg.ReinjectionGate = x.Controller.Decide
		cfg.FECGate = x.Redundancy.PlanFEC
		cfg.OnQoE = x.Controller.OnSignal
	}
	return cfg
}

// ClientConfig builds the client transport configuration.
func (x *XLINK) ClientConfig(seed int64) transport.Config {
	params := wire.DefaultTransportParams()
	params.EnableMultipath = x.Multipath()
	cfg := transport.Config{Params: params, Seed: seed}
	if x.Scheme == SchemeVanillaMP {
		// Vanilla multi-path acknowledges on the original path, like
		// MPTCP sub-flows; fastest-path ACK_MP is XLINK's (Sec 5.3).
		cfg.AckPolicy = transport.AckOriginalPath
		cfg.DisablePathHealth = true
	}
	return cfg
}
