package pubsub

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
)

// TestDeliveryOrderIsDeterministic runs the same scenario repeatedly:
// several exact subscribers, two wildcard subscribers, retained state
// replayed to a late wildcard subscriber. Deliveries must arrive in
// one order every time: exact subscribers first, then wildcard
// patterns in pattern order, each pattern's subscribers in ID order,
// and replayed retained topics in topic order. Links have no latency,
// and so no jitter: arrival order is the broker's send order.
func TestDeliveryOrderIsDeterministic(t *testing.T) {
	run := func() []string {
		sim := simnet.New(simnet.WithSeed(3), simnet.WithDefaultLatency(0))
		_, cs := rig(t, sim, 9)
		var log []string
		sub := func(i int, pattern string) {
			cs[i].Subscribe(pattern, func(topic string, _ any) {
				log = append(log, fmt.Sprintf("c%d:%s", i, topic))
			})
		}
		for _, i := range []int{5, 2, 4, 1, 3} {
			sub(i, "zone/1/act")
		}
		sub(7, "zone/+/act")
		sub(6, "#")
		sim.RunUntil(50 * time.Millisecond)
		cs[0].PublishRetained("zone/1/act", "on", AtMostOnce)
		cs[0].PublishRetained("zone/2/act", "off", AtMostOnce)
		cs[0].PublishRetained("zone/0/act", "on", AtMostOnce)
		sim.RunUntil(100 * time.Millisecond)
		sub(8, "zone/+/act")
		sim.RunUntil(200 * time.Millisecond)
		return log
	}
	want := run()
	if len(want) != 7+2+2+3 {
		t.Fatalf("got %d deliveries, want 14: %v", len(want), want)
	}
	if got := strings.Join(want[:7], " "); got != "c1:zone/1/act c2:zone/1/act c3:zone/1/act c4:zone/1/act c5:zone/1/act c6:zone/1/act c7:zone/1/act" {
		t.Fatalf("first publication delivered as %s", got)
	}
	if got := strings.Join(want[11:], " "); got != "c8:zone/0/act c8:zone/1/act c8:zone/2/act" {
		t.Fatalf("retained replay delivered as %s", got)
	}
	for i := 0; i < 20; i++ {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("run %d delivered in a different order:\n got %v\nwant %v", i, got, want)
		}
	}
}

// TestIndexedMatchEqualsBruteForce builds random subscription sets
// through the broker's subscribe and unsubscribe handling, with "+" and
// "#" patterns, and checks that the index selects exactly the
// subscriptions a brute-force TopicMatches scan selects, for random
// topics including ones that spell a wildcard literally.
func TestIndexedMatchEqualsBruteForce(t *testing.T) {
	levels := []string{"a", "b", "+", "#", "", "a+", "#b"}
	randPath := func(rng *rand.Rand) string {
		n := 1 + rng.Intn(4)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = levels[rng.Intn(len(levels))]
		}
		return strings.Join(parts, "/")
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBroker(simnet.New().AddNode("broker"))
		model := map[string]map[simnet.NodeID]bool{}
		for k := 0; k < 30; k++ {
			pattern := randPath(rng)
			id := simnet.NodeID(fmt.Sprintf("c%d", rng.Intn(8)))
			if rng.Intn(4) == 0 {
				b.handle(id, unsubscribeMsg{Topic: pattern})
				delete(model[pattern], id)
				continue
			}
			b.handle(id, subscribeMsg{Topic: pattern})
			if model[pattern] == nil {
				model[pattern] = map[simnet.NodeID]bool{}
			}
			model[pattern][id] = true
		}
		for k := 0; k < 50; k++ {
			topic := randPath(rng)
			var got, want []string
			b.subs.match(topic, func(ids []simnet.NodeID) {
				for _, id := range ids {
					got = append(got, string(id))
				}
			})
			for pattern, ids := range model {
				if TopicMatches(pattern, topic) {
					for id := range ids {
						want = append(want, string(id))
					}
				}
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d topic %q: index selects %v, brute force %v", seed, topic, got, want)
			}
		}
		for pattern, ids := range model {
			want := make([]simnet.NodeID, 0, len(ids))
			for id := range ids {
				want = append(want, id)
			}
			slices.Sort(want)
			if got := b.Subscribers(pattern); !slices.Equal(got, want) {
				t.Fatalf("seed %d: Subscribers(%q) = %v, want %v", seed, pattern, got, want)
			}
		}
	}
}

// TestLiteralWildcardTopicDeliveredOnce publishes a topic that spells a
// wildcard pattern: its subscriber must receive it exactly once, not
// once as an exact match and again as a wildcard match.
func TestLiteralWildcardTopicDeliveredOnce(t *testing.T) {
	sim := simnet.New()
	b, cs := rig(t, sim, 2)
	var got []string
	cs[1].Subscribe("zone/+", func(topic string, _ any) { got = append(got, topic) })
	sim.RunUntil(50 * time.Millisecond)
	cs[0].Publish("zone/+", 1, AtMostOnce)
	cs[0].Publish("zone/7", 2, AtMostOnce)
	sim.RunUntil(100 * time.Millisecond)
	if len(got) != 2 || got[0] != "zone/+" || got[1] != "zone/7" || b.Delivered() != 2 {
		t.Fatalf("got %v, delivered %d", got, b.Delivered())
	}
}
