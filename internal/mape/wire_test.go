package mape

import (
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestWireRoundTrip(t *testing.T) {
	wiretest.Table(t, []wire.Tag{wire.TagKnowledgeSync},
		syncMsg{Entries: []crdt.Entry{
			{Key: "zone/1/temp", Value: 23.25, Ts: 5 * time.Second, Replica: "z1-gw"},
			{Key: "zone/1/mode", Value: "cooling", Ts: 6 * time.Second, Replica: "z1-gw"},
			{Key: "zone/1/old", Ts: 7 * time.Second, Replica: "z2-gw", Deleted: true},
		}},
		syncMsg{},
	)
}
