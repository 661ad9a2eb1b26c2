package crdt

import "repro/internal/wire"

// WriteEntry encodes one LWW-map entry for the real-network codec; the
// value travels in the wire value union.
func WriteEntry(w *wire.Writer, e Entry) {
	w.String(e.Key)
	w.Value(e.Value)
	w.Duration(e.Ts)
	w.String(string(e.Replica))
	w.Bool(e.Deleted)
}

// ReadEntry decodes an entry written by WriteEntry.
func ReadEntry(r *wire.Reader) Entry {
	return Entry{Key: r.String(), Value: r.Value(), Ts: r.Duration(), Replica: ReplicaID(r.String()), Deleted: r.Bool()}
}
