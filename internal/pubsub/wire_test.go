package pubsub

import (
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestWireRoundTrip(t *testing.T) {
	wiretest.Table(t, []wire.Tag{
		wire.TagPubSubscribe, wire.TagPubUnsubscribe, wire.TagPubPublish, wire.TagPubAck, wire.TagPubDeliver,
	},
		subscribeMsg{Topic: "zone/+/temp"},
		unsubscribeMsg{Topic: "zone/#"},
		publishMsg{ID: 4, Topic: "zone/3/temp", Payload: 19.75, Retain: true},
		publishMsg{Topic: "zone/3/door", Payload: "open"},
		publishMsg{Topic: "zone/3/empty"},
		pubAckMsg{ID: 4},
		deliverMsg{Topic: "zone/3/temp", Payload: false, SentAt: 3 * time.Second},
	)
}
