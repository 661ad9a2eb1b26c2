package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

func TestWireRoundTrip(t *testing.T) {
	place := placementCmd{
		Assignments: map[int]simnet.NodeID{0: "z0-gw", 3: "cloudlet-1", 12: "z12-gw"},
		Backups:     map[int][]simnet.NodeID{0: {"z1-gw", "z2-gw"}, 12: {"cloudlet-0"}},
	}
	item := dataflow.Item{
		Key:        "zone/2/temp",
		Value:      22.5,
		Label:      dataflow.Label{Topic: "temp", Sensitivity: dataflow.Internal, Origin: "z2", Jurisdiction: "eu"},
		ProducedAt: 90 * time.Second,
		Lineage:    []dataflow.Hop{{Node: "z2-s0", At: 90 * time.Second, Action: "produced"}},
	}
	carrier := item
	carrier.Value = place
	wiretest.Table(t, []wire.Tag{wire.TagReading, wire.TagReadingAck, wire.TagActuate, wire.TagPlacementCmd, wire.TagItem},
		readingMsg{Seq: 301, Item: item},
		readingAck{Seq: 301},
		actuateMsg{Zone: 12, Engage: true},
		actuateMsg{},
		place,
		placementCmd{Assignments: map[int]simnet.NodeID{1: "z1-gw"}},
		placementCmd{},
		carrier,
	)
}

// TestWirePlacementEncodingIsCanonical pins the sorted-key map
// encoding: equal commands encode to equal bytes whatever the map
// iteration order, and a command larger than a small city still
// encodes without allocating.
func TestWirePlacementEncodingIsCanonical(t *testing.T) {
	cmd := placementCmd{Assignments: make(map[int]simnet.NodeID), Backups: make(map[int][]simnet.NodeID)}
	for z := 0; z < 40; z++ {
		cmd.Assignments[z] = gatewayID(z)
		cmd.Backups[z] = []simnet.NodeID{gatewayID(z + 1)}
	}
	var w wire.Writer
	first, err := w.Frame("n", cmd)
	if err != nil {
		t.Fatal(err)
	}
	first = append([]byte(nil), first...)
	for i := 0; i < 20; i++ {
		again, _ := w.Frame("n", cmd)
		if string(again) != string(first) {
			t.Fatal("placementCmd encoding depends on map iteration order")
		}
	}
	var msg any = cmd // box once, as a send does
	if allocs := testing.AllocsPerRun(20, func() { _, _ = w.Frame("n", msg) }); allocs != 0 {
		t.Fatalf("encoding a %d-zone placementCmd allocates %.1f times", len(cmd.Assignments), allocs)
	}
}

// TestWireCoversArchetypeTraffic taps a short simulated run of every
// archetype, default and hardened (so ML4 replicates placements with
// backups), and encodes every message the archetypes send: a message
// type or payload outside the value union fails here, without sockets.
// The first message of each type — and a raft append carrying a
// placementCmd — also round-trips through the codec.
func TestWireCoversArchetypeTraffic(t *testing.T) {
	seen := make(map[reflect.Type]bool)
	var sample []any
	var placementAppend any
	var w wire.Writer
	for _, hardened := range []bool{false, true} {
		for _, arch := range AllArchetypes() {
			cfg := liveSmokeConfig()
			if hardened {
				cfg = cfg.Hardened()
			}
			sys := NewSystem(cfg, arch)
			sys.sim.Tap(func(_, _ simnet.NodeID, msg simnet.Message) {
				if _, err := w.Frame("n", msg); err != nil {
					t.Fatalf("%s (hardened %v): %v", arch, hardened, err)
				}
				if placementAppend == nil && carriesPlacement(msg) {
					placementAppend = msg
				}
				if typ := reflect.TypeOf(msg); !seen[typ] {
					seen[typ] = true
					sample = append(sample, msg)
				}
			})
			sys.Run()
		}
	}
	if placementAppend == nil {
		t.Fatal("no raft append carrying a placementCmd in the ML4 runs")
	}
	for _, msg := range append(sample, placementAppend) {
		wiretest.RoundTrip(t, msg)
	}
}

// carriesPlacement reports whether msg is a raft append whose entries
// include a placementCmd, read through reflection because the raft
// message type is unexported.
func carriesPlacement(msg simnet.Message) bool {
	v := reflect.ValueOf(msg)
	if v.Kind() != reflect.Struct || v.Type().Name() != "appendEntriesMsg" {
		return false
	}
	entries := v.FieldByName("Entries")
	for i := 0; i < entries.Len(); i++ {
		if cmd := entries.Index(i).FieldByName("Cmd"); !cmd.IsNil() && cmd.Elem().Type() == reflect.TypeOf(placementCmd{}) {
			return true
		}
	}
	return false
}
