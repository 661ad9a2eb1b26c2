package gossip

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
)

// BenchmarkConvergence measures how much work full membership
// convergence takes at different cluster sizes.
func BenchmarkConvergence(b *testing.B) {
	for _, n := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("nodes-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := simnet.New(simnet.WithSeed(int64(i+1)), simnet.WithDefaultLatency(2*time.Millisecond))
				ids := make([]simnet.NodeID, n)
				ps := make([]*Protocol, n)
				for j := 0; j < n; j++ {
					ids[j] = simnet.NodeID(fmt.Sprintf("n%d", j))
					ps[j] = New(sim.AddNode(ids[j]), Config{
						ProbeInterval:    500 * time.Millisecond,
						ProbeTimeout:     100 * time.Millisecond,
						SuspicionTimeout: 2 * time.Second,
					})
				}
				for j, p := range ps {
					if j == 0 {
						p.Start()
					} else {
						p.Start(ids[0])
					}
				}
				sim.RunUntil(30 * time.Second)
				for j, p := range ps {
					if got := p.AliveCount(); got != n {
						b.Fatalf("node %d sees %d alive, want %d", j, got, n)
					}
				}
			}
		})
	}
}

// BenchmarkProbeRound measures one member of a 208-member group (the
// city's gateways and cloudlets) with a full broadcast queue: each op
// sends a ping, answers a ping with an ack (two piggyback selections
// of up to MaxPiggyback updates each), and refreshes one member's
// incarnation, which re-queues its update in place. Refreshes cycle
// through the group faster than updates retire, so every other member
// stays queued. Peers are not simulated nodes, so the sends are
// dropped at the sender and only the protocol's own work is measured.
func BenchmarkProbeRound(b *testing.B) {
	sim := simnet.New(simnet.WithSeed(1))
	p := New(sim.AddNode("gw-000"), Config{})
	peers := make([]simnet.NodeID, 207)
	for i := range peers {
		peers[i] = simnet.NodeID(fmt.Sprintf("gw-%03d", i+1))
		p.applyUpdate(Update{ID: peers[i], Status: StatusAlive})
	}
	if len(p.queue) != len(peers) {
		b.Fatalf("queue holds %d updates, want %d", len(p.queue), len(peers))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peer := peers[i%len(peers)]
		p.sendPing(peer, p.nextSeq())
		p.onPing(peer, uint64(i), nil)
		p.applyUpdate(Update{ID: peer, Status: StatusAlive, Incarnation: incOf(p, peer) + 1})
	}
	b.StopTimer()
	if len(p.queue) != len(peers) {
		b.Fatalf("queue drained to %d updates, want %d", len(p.queue), len(peers))
	}
}
