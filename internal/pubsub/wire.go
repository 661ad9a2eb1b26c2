package pubsub

import "repro/internal/wire"

// Wire codecs for the broker protocol's messages, used when pubsub runs
// over a real network. Payloads travel in the wire value union.
func init() {
	wire.Register(wire.TagPubSubscribe,
		func(w *wire.Writer, m subscribeMsg) { w.String(m.Topic) },
		func(r *wire.Reader) subscribeMsg { return subscribeMsg{Topic: r.String()} })
	wire.Register(wire.TagPubUnsubscribe,
		func(w *wire.Writer, m unsubscribeMsg) { w.String(m.Topic) },
		func(r *wire.Reader) unsubscribeMsg { return unsubscribeMsg{Topic: r.String()} })
	wire.Register(wire.TagPubPublish,
		func(w *wire.Writer, m publishMsg) {
			w.Uvarint(m.ID)
			w.String(m.Topic)
			w.Value(m.Payload)
			w.Bool(m.Retain)
		},
		func(r *wire.Reader) publishMsg {
			return publishMsg{ID: r.Uvarint(), Topic: r.String(), Payload: r.Value(), Retain: r.Bool()}
		})
	wire.Register(wire.TagPubAck,
		func(w *wire.Writer, m pubAckMsg) { w.Uvarint(m.ID) },
		func(r *wire.Reader) pubAckMsg { return pubAckMsg{ID: r.Uvarint()} })
	wire.Register(wire.TagPubDeliver,
		func(w *wire.Writer, m deliverMsg) {
			w.String(m.Topic)
			w.Value(m.Payload)
			w.Duration(m.SentAt)
		},
		func(r *wire.Reader) deliverMsg {
			return deliverMsg{Topic: r.String(), Payload: r.Value(), SentAt: r.Duration()}
		})
}
