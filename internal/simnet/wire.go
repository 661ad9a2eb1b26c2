package simnet

import "repro/internal/wire"

// Wire codecs for the mux envelope and for Envelope, so multiplexed
// protocols run over a real network.
func init() {
	wire.Register(wire.TagMuxEnvelope,
		func(w *wire.Writer, e envelope) { w.String(e.Proto); w.Msg(e.Msg) },
		func(r *wire.Reader) envelope { return envelope{Proto: r.String(), Msg: r.Msg()} })
	wire.Register(wire.TagEnvelope,
		func(w *wire.Writer, e Envelope) {
			w.Uvarint(uint64(e.Kind))
			w.Bool(e.Flag)
			w.Uvarint(e.A)
			w.Uvarint(e.B)
			w.Uvarint(e.C)
			w.Uvarint(e.D)
			w.String(string(e.S))
			w.String(string(e.T))
			w.Varint(int64(e.Bytes))
		},
		func(r *wire.Reader) Envelope {
			return Envelope{
				Kind:  r.Uint16(),
				Flag:  r.Bool(),
				A:     r.Uvarint(),
				B:     r.Uvarint(),
				C:     r.Uvarint(),
				D:     r.Uvarint(),
				S:     NodeID(r.String()),
				T:     NodeID(r.String()),
				Bytes: r.Int32(),
			}
		})
}
