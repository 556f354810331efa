package transport

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// TestConnectionIDSequenceBeyondLimitClosesConnection: NEW_CONNECTION_ID is
// the path-setup frame — a path is its CID sequence number — and the
// sequence number used to size the peer-CID table with no bound: one
// correctly sealed frame with Sequence 2^40 grew the table until the process
// died (this test did not return before the check existed). It must end the
// connection with CONNECTION_ID_LIMIT_ERROR and leave the table as it was.
func TestConnectionIDSequenceBeyondLimitClosesConnection(t *testing.T) {
	cid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tc := range []struct {
		name string
		seq  uint64
		want uint64
	}{
		{"last sequence number in the table", maxCIDs - 1, ErrCodeNone},
		{"first sequence number beyond it", maxCIDs, ErrCodeConnectionIDLimit},
		{"2^40", 1 << 40, ErrCodeConnectionIDLimit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pair := establishedPair(t, 31)
			before := len(pair.Server.peerCIDs)
			start := time.Now()
			injectFrames(pair, &wire.NewConnectionIDFrame{Sequence: tc.seq, ConnectionID: cid})
			if d := time.Since(start); d > time.Second {
				t.Fatalf("the frame took %v to handle", d)
			}
			st := pair.Server.Stats()
			if closed := pair.Server.Closed(); closed != (tc.want != ErrCodeNone) || st.CloseErrorCode != tc.want {
				t.Fatalf("closed %v with code %#x (%q), want code %#x", closed, st.CloseErrorCode, st.CloseReason, tc.want)
			}
			if tc.want == ErrCodeNone {
				if !pair.Server.peerCIDs[tc.seq].Equal(cid) {
					t.Fatalf("CID %d not recorded", tc.seq)
				}
				return
			}
			if !st.CloseLocal {
				t.Fatal("the close is not recorded as detected locally")
			}
			if got := len(pair.Server.peerCIDs); got != before {
				t.Fatalf("peer CID table went from %d to %d entries", before, got)
			}
			pair.RunUntil(30 * time.Second)
			if cs := pair.Client.Stats(); !pair.Client.Closed() || cs.CloseErrorCode != tc.want || cs.CloseLocal {
				t.Fatalf("client saw close code %#x local %v, want the server's %#x", cs.CloseErrorCode, cs.CloseLocal, tc.want)
			}
		})
	}
}

// TestIssuedCIDsRespectPeerLimit: a connection issues as many connection IDs
// as the peer's active_connection_id_limit allows (RFC 9000 §5.1.1), not as
// many as its own. The server used to size by its own limit of 8, so a
// client advertising 2 received sequence numbers 2 to 7, which it must refuse
// with CONNECTION_ID_LIMIT_ERROR. Issued by the peer's limit, nothing is
// refused and the second path still opens on sequence 1.
func TestIssuedCIDsRespectPeerLimit(t *testing.T) {
	ccfg, scfg := defaultMPConfig()
	ccfg.Params.ActiveCIDLimit = 2
	pair := NewPair(sim.NewLoop(), sim.NewRNG(33), TwoPathConfig(20, 20, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(3 * time.Second)
	if pair.Client.Closed() || pair.Server.Closed() {
		t.Fatalf("closed: client code %#x (%q), server code %#x", pair.Client.Stats().CloseErrorCode,
			pair.Client.Stats().CloseReason, pair.Server.Stats().CloseErrorCode)
	}
	if got := len(pair.Server.localCIDs); got != 2 {
		t.Fatalf("server issued %d connection IDs to a client that holds 2", got)
	}
	if got := len(pair.Client.localCIDs); got != maxCIDs {
		t.Fatalf("client issued %d connection IDs to a server that holds %d", got, maxCIDs)
	}
	if got := len(pair.Client.Paths()); got != 2 {
		t.Fatalf("client has %d paths, want 2", got)
	}
}

// TestAckOfUnsentPacketClosesConnection: an ACK range reaching beyond the
// packets a path has sent (RFC 9000 §13.1) used to acknowledge what it
// covered, move the space's largest-acked to the peer's number and have the
// next loss pass declare every packet in flight lost. It must end the
// connection with PROTOCOL_VIOLATION before the ledger sees it; an ACK up to
// the last packet sent is the legal neighbour.
func TestAckOfUnsentPacketClosesConnection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		beyond uint64 // how far past the last sent PN the ACK reaches
		want   uint64
	}{
		{"up to the last packet sent", 0, ErrCodeNone},
		{"one packet beyond", 1, ErrCodeProtocolViolation},
		{"optimistic, up to 2^61", 1 << 61, ErrCodeProtocolViolation},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pair := establishedPair(t, 32)
			srv := pair.Server
			srv.Stream(0).Write(make([]byte, 64<<10))
			pair.RunUntil(pair.Loop.Now() + 2*time.Millisecond) // sent, not yet acknowledged
			sp := srv.paths[0].Space
			if !sp.HasUnacked() {
				t.Fatal("nothing in flight on the server's path 0")
			}
			lastSent := sp.PeekPN() - 1
			lostBefore, ackedBefore := sp.Stats().LostPackets, sp.LargestAcked()
			injectFrames(pair, &wire.AckMPFrame{
				PathID: 0,
				Ranges: []wire.AckRange{{Smallest: lastSent, Largest: lastSent + tc.beyond}},
			})
			st := srv.Stats()
			if closed := srv.Closed(); closed != (tc.want != ErrCodeNone) || st.CloseErrorCode != tc.want {
				t.Fatalf("closed %v with code %#x (%q), want code %#x", closed, st.CloseErrorCode, st.CloseReason, tc.want)
			}
			if tc.want == ErrCodeNone {
				if sp.LargestAcked() != int64(lastSent) {
					t.Fatalf("largest acked %d, want %d", sp.LargestAcked(), lastSent)
				}
				return
			}
			if !st.CloseLocal {
				t.Fatal("the close is not recorded as detected locally")
			}
			if sp.LargestAcked() != ackedBefore {
				t.Fatalf("largest acked moved from %d to %d", ackedBefore, sp.LargestAcked())
			}
			if lost := sp.Stats().LostPackets - lostBefore; lost != 0 {
				t.Fatalf("%d packets declared lost on the strength of the ACK", lost)
			}
		})
	}
}
