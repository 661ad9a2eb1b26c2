package gossip

import (
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestWireRoundTrip(t *testing.T) {
	ups := []Update{
		{ID: "z3-gw", Status: StatusAlive, Incarnation: 4},
		{ID: "z7-cloudlet", Status: StatusSuspect, Incarnation: 1 << 40},
		{ID: "d", Status: StatusDead},
	}
	wiretest.Table(t, []wire.Tag{
		wire.TagGossipPing, wire.TagGossipAck, wire.TagGossipPingReq, wire.TagGossipJoin,
		wire.TagGossipJoinAck, wire.TagGossipSync, wire.TagGossipLeave,
	},
		pingMsg{Seq: 91, Updates: ups},
		pingMsg{Seq: 1},
		ackMsg{Seq: 1 << 33, Updates: ups[:1]},
		pingReqMsg{Seq: 7, Origin: "a", Target: "z12-gw", Updates: ups},
		joinMsg{},
		joinAckMsg{Members: ups},
		syncMsg{Members: ups[1:]},
		syncMsg{},
		leaveMsg{Update: ups[0]},
	)
}

// TestWirePingSize pins the point of the hand-written codec: a ping
// with no piggybacked updates, sender header included, fits in 24
// bytes (the gob framing it replaced took 217).
func TestWirePingSize(t *testing.T) {
	var w wire.Writer
	b, err := w.Frame("z199-gw", pingMsg{Seq: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 24 {
		t.Fatalf("empty ping is %d bytes on the wire, want <= 24", len(b))
	}
}

// BenchmarkWireCodec measures a ping piggybacking three updates.
func BenchmarkWireCodec(b *testing.B) {
	wiretest.Bench(b, pingMsg{Seq: 4411, Updates: []Update{
		{ID: "z3-gw", Status: StatusAlive, Incarnation: 4},
		{ID: "z7-cloudlet", Status: StatusSuspect, Incarnation: 2},
		{ID: "z12-gw", Status: StatusDead, Incarnation: 9},
	}})
}
