package gossip

import (
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Wire codecs for the protocol's messages, used when gossip runs over
// a real network.
func init() {
	wire.Register(wire.TagGossipPing,
		func(w *wire.Writer, m pingMsg) { w.Uvarint(m.Seq); writeUpdates(w, m.Updates) },
		func(r *wire.Reader) pingMsg { return pingMsg{Seq: r.Uvarint(), Updates: readUpdates(r)} })
	wire.Register(wire.TagGossipAck,
		func(w *wire.Writer, m ackMsg) { w.Uvarint(m.Seq); writeUpdates(w, m.Updates) },
		func(r *wire.Reader) ackMsg { return ackMsg{Seq: r.Uvarint(), Updates: readUpdates(r)} })
	wire.Register(wire.TagGossipPingReq,
		func(w *wire.Writer, m pingReqMsg) {
			w.Uvarint(m.Seq)
			w.String(string(m.Origin))
			w.String(string(m.Target))
			writeUpdates(w, m.Updates)
		},
		func(r *wire.Reader) pingReqMsg {
			return pingReqMsg{
				Seq:     r.Uvarint(),
				Origin:  simnet.NodeID(r.String()),
				Target:  simnet.NodeID(r.String()),
				Updates: readUpdates(r),
			}
		})
	wire.Register(wire.TagGossipJoin,
		func(*wire.Writer, joinMsg) {},
		func(*wire.Reader) joinMsg { return joinMsg{} })
	wire.Register(wire.TagGossipJoinAck,
		func(w *wire.Writer, m joinAckMsg) { writeUpdates(w, m.Members) },
		func(r *wire.Reader) joinAckMsg { return joinAckMsg{Members: readUpdates(r)} })
	wire.Register(wire.TagGossipSync,
		func(w *wire.Writer, m syncMsg) { writeUpdates(w, m.Members) },
		func(r *wire.Reader) syncMsg { return syncMsg{Members: readUpdates(r)} })
	wire.Register(wire.TagGossipLeave,
		func(w *wire.Writer, m leaveMsg) { writeUpdate(w, m.Update) },
		func(r *wire.Reader) leaveMsg { return leaveMsg{Update: readUpdate(r)} })
}

func writeUpdate(w *wire.Writer, u Update) {
	w.String(string(u.ID))
	w.Int(int(u.Status))
	w.Uvarint(u.Incarnation)
}

func readUpdate(r *wire.Reader) Update {
	return Update{ID: simnet.NodeID(r.String()), Status: Status(r.Int()), Incarnation: r.Uvarint()}
}

func writeUpdates(w *wire.Writer, us []Update) { wire.WriteSlice(w, us, writeUpdate) }

func readUpdates(r *wire.Reader) []Update { return wire.ReadSlice(r, readUpdate) }
