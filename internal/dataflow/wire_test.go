package dataflow

import (
	"math"
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestWireRoundTrip(t *testing.T) {
	label := Label{Topic: "temp", Sensitivity: Sensitive, Origin: "zone-3", Jurisdiction: "eu", TTL: 30 * time.Second}
	lineage := []Hop{
		{Node: "z3-s0", At: 2 * time.Second, Action: "produced"},
		{Node: "z3-gw", At: 2*time.Second + 40*time.Millisecond, Action: "received"},
	}
	inner := Item{Key: "inner", Value: -0.25, Label: label, ProducedAt: time.Second}
	items := []Item{
		{Key: "zone/3/temp", Value: 21.5, Label: label, ProducedAt: 2 * time.Second, Lineage: lineage},
		{Key: "nil", Label: label},
		{Key: "str", Value: "open", Label: label, Lineage: lineage[:1]},
		{Key: "bool", Value: true, Label: label},
		{Key: "big", Value: math.MaxFloat64, Label: Label{Topic: "t"}},
		{Key: "nested", Value: inner, Label: label, Lineage: lineage},
	}
	entries := make([]crdt.Entry, len(items))
	for i, it := range items {
		entries[i] = crdt.Entry{Key: it.Key, Value: it, Ts: time.Duration(i+1) * time.Second, Replica: "z3-gw"}
	}
	entries = append(entries, crdt.Entry{Key: "gone", Ts: time.Minute, Replica: "z4-gw", Deleted: true})

	msgs := []any{
		storeSyncMsg{Seq: 17, Relayed: true, Entries: entries},
		storeSyncMsg{Seq: 18},
		storeSyncAck{Seq: 17},
		storeInterest{Keys: []string{"zone/3/temp", "zone/4/temp", ""}},
		storeInterest{},
	}
	for _, it := range items {
		msgs = append(msgs, it)
	}
	wiretest.Table(t, []wire.Tag{wire.TagStoreSync, wire.TagStoreSyncAck, wire.TagStoreInterest, wire.TagItem}, msgs...)
}

// BenchmarkWireCodec measures a sync frame of three item entries, each
// with a one-hop lineage.
func BenchmarkWireCodec(b *testing.B) {
	label := Label{Topic: "temp", Sensitivity: Internal, Origin: "zone-3", Jurisdiction: "eu"}
	entries := make([]crdt.Entry, 3)
	for i := range entries {
		key := "zone/" + string(rune('1'+i)) + "/temp"
		it := Item{Key: key, Value: 20 + float64(i), Label: label, ProducedAt: time.Duration(i) * time.Second,
			Lineage: []Hop{{Node: "z3-s0", At: time.Duration(i) * time.Second, Action: "produced"}}}
		entries[i] = crdt.Entry{Key: key, Value: it, Ts: it.ProducedAt, Replica: "z3-gw"}
	}
	wiretest.Bench(b, storeSyncMsg{Seq: 77, Entries: entries})
}
