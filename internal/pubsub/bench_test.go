package pubsub

import (
	"fmt"
	"testing"

	"repro/internal/simnet"
)

// BenchmarkFanOut measures one publication through a broker that
// holds the city's ML2 subscription table: 200 per-zone actuation
// topics with one subscriber each, plus one wildcard subscriber
// covering them all. Each op publishes to the next zone and so
// delivers twice. Subscribers are not simulated nodes, so deliveries
// are dropped at the broker and only matching and fan-out are measured.
func BenchmarkFanOut(b *testing.B) {
	sim := simnet.New(simnet.WithSeed(1))
	br := NewBroker(sim.AddNode("cloud"))
	topics := make([]string, 200)
	for z := range topics {
		topics[z] = fmt.Sprintf("act/%d", z)
		br.handle(simnet.NodeID(fmt.Sprintf("act-%03d", z)), subscribeMsg{Topic: topics[z]})
	}
	br.handle("monitor", subscribeMsg{Topic: "act/+"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Inject(topics[i%len(topics)], i)
	}
	b.StopTimer()
	if got, want := br.Delivered(), 2*b.N; got != want {
		b.Fatalf("delivered %d, want %d", got, want)
	}
}
