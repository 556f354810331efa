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

	"repro/internal/cc"
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

// Options tunes a scheme beyond its defaults, for the ablation benches.
type Options struct {
	// Thresholds are the double-thresholding parameters; zero means the
	// paper's recommended (95, 80)-calibrated defaults (DefaultThresholds).
	Thresholds qoe.Thresholds
	// ReinjectionMode overrides the scheme's re-injection mode;
	// ReinjectNone means "use the scheme default".
	ReinjectionMode transport.ReinjectionMode
	// DisableFrameAcceleration turns off first-video-frame tagging
	// (Fig 12's "w/o first-frame acceleration" arm).
	DisableFrameAcceleration bool
	// CCAlgorithm selects congestion control (default Cubic).
	CCAlgorithm cc.Algorithm
	// CoupledCC uses RFC 6356 linked increases across the connection's
	// paths instead of decoupled controllers — the fairness variant the
	// paper recommends when paths share a bottleneck (Sec 9).
	CoupledCC bool
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
}

// New creates the scheme assembly.
func New(s Scheme, opts Options) *XLINK {
	th := opts.Thresholds
	if !th.Valid() || th == (qoe.Thresholds{}) {
		th = DefaultThresholds
	}
	return &XLINK{Scheme: s, Options: opts, Controller: qoe.NewController(th)}
}

// reinjectionMode returns the transport mode for the scheme.
func (x *XLINK) reinjectionMode() transport.ReinjectionMode {
	if x.Options.ReinjectionMode != transport.ReinjectNone {
		return x.Options.ReinjectionMode
	}
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
// mode, the QoE gate (Alg. 1) for XLINK, and the feedback hook.
func (x *XLINK) ServerConfig(seed int64) transport.Config {
	params := wire.DefaultTransportParams()
	params.EnableMultipath = x.Multipath()
	cfg := transport.Config{
		Params:          params,
		Seed:            seed,
		CCAlgorithm:     x.Options.CCAlgorithm,
		ReinjectionMode: x.reinjectionMode(),
	}
	if x.Options.CoupledCC {
		group := cc.NewLIAGroup()
		cfg.CCFactory = func() cc.Controller { return group.NewFlow() }
	}
	if x.Scheme == SchemeVanillaMP {
		// Vanilla multi-path QUIC has no QoE-aware path management: the
		// min-RTT scheduler keeps using degraded paths and recovers
		// stranded data only at RTO cadence (Sec 3).
		cfg.DisablePathHealth = true
	}
	if x.Scheme == SchemeXLINK {
		cfg.ReinjectionGate = x.Controller.Decide
		cfg.OnQoE = x.Controller.OnSignal
	}
	return cfg
}

// ClientConfig builds the client transport configuration.
func (x *XLINK) ClientConfig(seed int64) transport.Config {
	params := wire.DefaultTransportParams()
	params.EnableMultipath = x.Multipath()
	cfg := transport.Config{
		Params:      params,
		Seed:        seed,
		CCAlgorithm: x.Options.CCAlgorithm,
	}
	if x.Scheme == SchemeVanillaMP {
		// Vanilla multi-path acknowledges on the original path, like
		// MPTCP sub-flows; fastest-path ACK_MP is XLINK's (Sec 5.3).
		cfg.AckPolicy = transport.AckOriginalPath
		cfg.DisablePathHealth = true
	}
	return cfg
}
