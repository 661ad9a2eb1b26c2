package simnet

import (
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestWireRoundTrip(t *testing.T) {
	env := Envelope{Kind: 3, Flag: true, A: 1 << 63, B: 2, C: 0, D: 77, S: "z1-gw", T: "z2-gw", Bytes: 24}
	wiretest.Table(t, []wire.Tag{wire.TagMuxEnvelope, wire.TagEnvelope},
		env,
		Envelope{Kind: 1, Bytes: -1},
		envelope{Proto: "gossip", Msg: env},
		envelope{Proto: "outer", Msg: envelope{Proto: "inner", Msg: env}},
	)
}
