package dataflow

import (
	"repro/internal/crdt"
	"repro/internal/space"
	"repro/internal/wire"
)

// Wire codecs for the data plane's messages, used when stores sync over
// a real network. Items travel in the wire value union, which carries
// their values in turn.
func init() {
	wire.Register(wire.TagStoreSync,
		func(w *wire.Writer, m storeSyncMsg) {
			w.Uvarint(m.Seq)
			w.Bool(m.Relayed)
			wire.WriteSlice(w, m.Entries, crdt.WriteEntry)
		},
		func(r *wire.Reader) storeSyncMsg {
			return storeSyncMsg{Seq: r.Uvarint(), Relayed: r.Bool(), Entries: wire.ReadSlice(r, crdt.ReadEntry)}
		})
	wire.Register(wire.TagStoreSyncAck,
		func(w *wire.Writer, m storeSyncAck) { w.Uvarint(m.Seq) },
		func(r *wire.Reader) storeSyncAck { return storeSyncAck{Seq: r.Uvarint()} })
	wire.Register(wire.TagStoreInterest,
		func(w *wire.Writer, m storeInterest) { wire.WriteSlice(w, m.Keys, (*wire.Writer).String) },
		func(r *wire.Reader) storeInterest {
			return storeInterest{Keys: wire.ReadSlice(r, (*wire.Reader).String)}
		})
	wire.Register(wire.TagItem, WriteItem, ReadItem)
}

// WriteItem encodes an item: key, value, label, production time and
// lineage.
func WriteItem(w *wire.Writer, it Item) {
	w.String(it.Key)
	w.Value(it.Value)
	w.String(it.Label.Topic)
	w.Int(int(it.Label.Sensitivity))
	w.String(string(it.Label.Origin))
	w.String(string(it.Label.Jurisdiction))
	w.Duration(it.Label.TTL)
	w.Duration(it.ProducedAt)
	wire.WriteSlice(w, it.Lineage, writeHop)
}

// ReadItem decodes an item written by WriteItem.
func ReadItem(r *wire.Reader) Item {
	return Item{
		Key:   r.String(),
		Value: r.Value(),
		Label: Label{
			Topic:        r.String(),
			Sensitivity:  Sensitivity(r.Int()),
			Origin:       space.DomainID(r.String()),
			Jurisdiction: space.Jurisdiction(r.String()),
			TTL:          r.Duration(),
		},
		ProducedAt: r.Duration(),
		Lineage:    wire.ReadSlice(r, readHop),
	}
}

func writeHop(w *wire.Writer, h Hop) {
	w.String(h.Node)
	w.Duration(h.At)
	w.String(h.Action)
}

func readHop(r *wire.Reader) Hop { return Hop{Node: r.String(), At: r.Duration(), Action: r.String()} }
