package mape

import (
	"repro/internal/crdt"
	"repro/internal/wire"
)

// Wire codec for the knowledge-sync message, used when loops share
// knowledge over a real network.
func init() {
	wire.Register(wire.TagKnowledgeSync,
		func(w *wire.Writer, m syncMsg) { wire.WriteSlice(w, m.Entries, crdt.WriteEntry) },
		func(r *wire.Reader) syncMsg { return syncMsg{Entries: wire.ReadSlice(r, crdt.ReadEntry)} })
}
