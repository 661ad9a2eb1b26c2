// UDP gossip: the exact protocol code that runs deterministically in
// the simulator, running over real UDP sockets on localhost. Five
// nodes converge on full membership, one is killed for real, and the
// survivors detect and disseminate its death — no simulator involved.
//
//	go run ./examples/udpgossip
package main

import (
	"fmt"
	"time"

	"repro/internal/gossip"
	"repro/internal/realnet"
	"repro/internal/simnet"
)

func main() {
	const n = 5
	cfg := gossip.Config{
		ProbeInterval:       100 * time.Millisecond,
		ProbeTimeout:        40 * time.Millisecond,
		SuspicionTimeout:    500 * time.Millisecond,
		AntiEntropyInterval: 300 * time.Millisecond,
	}

	nodes := make([]*realnet.Node, n)
	protos := make([]*gossip.Protocol, n)
	ids := make([]simnet.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = simnet.NodeID(fmt.Sprintf("node-%d", i))
		node, err := realnet.NewNode(ids[i], "127.0.0.1:0")
		must(err)
		nodes[i] = node
		protos[i] = gossip.New(node, cfg)
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i != j {
				must(a.AddPeer(ids[j], b.Addr()))
			}
		}
	}
	fmt.Printf("starting %d gossip nodes on localhost UDP (seed: %s @ %s)\n",
		n, ids[0], nodes[0].Addr())
	for i, node := range nodes {
		node.Run()
		i := i
		node.Do(func() {
			if i == 0 {
				protos[i].Start()
			} else {
				protos[i].Start(ids[0])
			}
		})
	}
	defer func() {
		for _, node := range nodes {
			node.Close()
		}
	}()

	waitFor(func() bool { return allSee(nodes, protos, n) }, 10*time.Second)
	fmt.Printf("converged: every node sees %d alive members\n", n)

	fmt.Printf("\nkilling %s (socket closed, process state gone)...\n", ids[n-1])
	nodes[n-1].Close()

	waitFor(func() bool { return allSee(nodes[:n-1], protos[:n-1], n-1) }, 10*time.Second)
	// Give the suspicion timeout a moment to confirm the death.
	waitFor(func() bool {
		dead := false
		nodes[0].Do(func() {
			for _, m := range protos[0].Members() {
				if m.ID == ids[n-1] && m.Status == gossip.StatusDead {
					dead = true
				}
			}
		})
		return dead
	}, 10*time.Second)
	fmt.Printf("survivors converged on %d alive members:\n", n-1)
	nodes[0].Do(func() {
		for _, m := range protos[0].Members() {
			fmt.Printf("  %-8s %s (incarnation %d)\n", m.ID, m.Status, m.Incarnation)
		}
	})
}

// allSee reports whether every listed node's protocol counts want
// members alive.
func allSee(nodes []*realnet.Node, protos []*gossip.Protocol, want int) bool {
	for i := range nodes {
		got := -1
		nodes[i].Do(func() { got = protos[i].AliveCount() })
		if got != want {
			return false
		}
	}
	return true
}

func waitFor(cond func() bool, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	panic("condition not reached in time")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
