package core

import (
	"repro/internal/dataflow"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Wire codecs for the core plumbing messages and the raft placement
// command, used by live (real-socket) systems. placementCmd also
// travels inside raft entries through the wire value union.
func init() {
	wire.Register(wire.TagReading,
		func(w *wire.Writer, m readingMsg) { w.Uvarint(m.Seq); dataflow.WriteItem(w, m.Item) },
		func(r *wire.Reader) readingMsg { return readingMsg{Seq: r.Uvarint(), Item: dataflow.ReadItem(r)} })
	wire.Register(wire.TagReadingAck,
		func(w *wire.Writer, m readingAck) { w.Uvarint(m.Seq) },
		func(r *wire.Reader) readingAck { return readingAck{Seq: r.Uvarint()} })
	wire.Register(wire.TagActuate,
		func(w *wire.Writer, m actuateMsg) { w.Int(m.Zone); w.Bool(m.Engage) },
		func(r *wire.Reader) actuateMsg { return actuateMsg{Zone: r.Int(), Engage: r.Bool()} })
	wire.Register(wire.TagPlacementCmd, writePlacement, readPlacement)
}

// writePlacement encodes both maps in ascending zone order, so equal
// commands encode to equal bytes.
func writePlacement(w *wire.Writer, c placementCmd) {
	wire.WriteIntMap(w, c.Assignments, writeNodeID)
	wire.WriteIntMap(w, c.Backups, func(w *wire.Writer, ids []simnet.NodeID) {
		wire.WriteSlice(w, ids, writeNodeID)
	})
}

// readPlacement decodes a command written by writePlacement; empty maps
// and slices decode as nil.
func readPlacement(r *wire.Reader) placementCmd {
	return placementCmd{
		Assignments: wire.ReadIntMap(r, readNodeID),
		Backups: wire.ReadIntMap(r, func(r *wire.Reader) []simnet.NodeID {
			return wire.ReadSlice(r, readNodeID)
		}),
	}
}

func writeNodeID(w *wire.Writer, id simnet.NodeID) { w.String(string(id)) }

func readNodeID(r *wire.Reader) simnet.NodeID { return simnet.NodeID(r.String()) }
