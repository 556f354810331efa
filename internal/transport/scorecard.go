package transport

import "repro/internal/obs"

// Scorecard composes the transport-side half of the per-session QoE
// rollup (DESIGN.md §14): recovery-lane byte attribution from the
// connection counters and per-path utilization/loss from the path stats,
// in creation order. The harness (chaos.Run, core.Session,
// xlink.Endpoint) fills in the player/controller fields — RCT, rebuffer,
// Alg. 1 activity — before emitting and merging the card.
func (c *Conn) Scorecard() obs.Scorecard {
	sc := obs.Scorecard{
		StreamBytes:       c.stats.StreamBytesSent,
		RtxBytes:          c.stats.RtxBytesSent,
		ReinjBytes:        c.stats.ReinjectedBytesSent,
		FECRecoveredBytes: c.stats.FECRecoveredBytes,
		CloseCode:         c.stats.CloseErrorCode,
	}
	var totalSent uint64
	for _, p := range c.paths {
		totalSent += p.SentBytes
	}
	for _, p := range c.paths {
		if sc.NumPaths >= obs.ScorecardMaxPaths {
			break
		}
		ps := obs.PathScore{
			ID:          p.ID,
			SentPackets: p.SentPackets,
			LostPackets: p.LostPackets,
			SentBytes:   p.SentBytes,
			ReinjBytes:  p.ReinjectBytes,
		}
		if totalSent > 0 {
			ps.UtilPermille = p.SentBytes * 1000 / totalSent
		}
		if p.SentPackets > 0 {
			ps.LossPermille = p.LostPackets * 1000 / p.SentPackets
		}
		sc.Paths[sc.NumPaths] = ps
		sc.NumPaths++
	}
	return sc
}
