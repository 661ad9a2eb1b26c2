package gossip

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/simnet"
)

// refBroadcast is a queue entry as the reference implementation keeps
// it: the update itself and its transmit count.
type refBroadcast struct {
	update    Update
	transmits int
}

// queueView lists the queue in order as reference entries.
func queueView(p *Protocol) []refBroadcast {
	out := make([]refBroadcast, len(p.queue))
	for i, b := range p.queue {
		out[i] = refBroadcast{update: b.ms.pending, transmits: b.transmits}
	}
	return out
}

// refTake is takePiggyback as a comparison sort: a stable sort of a
// copy of the queue by transmit count, then the same selection and
// retirement. The counting-sorted queue must match it exactly.
func refTake(q []refBroadcast, maxPiggyback, limit int) ([]Update, []refBroadcast) {
	ref := slices.Clone(q)
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].transmits < ref[j].transmits })
	var out []Update
	kept := ref[:0]
	for _, b := range ref {
		if len(out) < maxPiggyback {
			out = append(out, b.update)
			b.transmits++
		}
		if b.transmits < limit {
			kept = append(kept, b)
		}
	}
	return out, kept
}

// refEnqueue is enqueue on a copy: a queued ID is replaced in place,
// anything else appended.
func refEnqueue(q []refBroadcast, u Update) []refBroadcast {
	ref := slices.Clone(q)
	for i := range ref {
		if ref[i].update.ID == u.ID {
			ref[i] = refBroadcast{update: u}
			return ref
		}
	}
	return append(ref, refBroadcast{update: u})
}

// checkIndex asserts that the ID-ordered index holds exactly the
// members map, in key order, that the probeable count equals a recount
// of members that are neither self nor dead, and that exactly the
// members in the queue are marked queued.
func checkIndex(t *testing.T, p *Protocol, step int, op string) {
	t.Helper()
	inQueue := map[*memberState]bool{}
	for _, b := range p.queue {
		if inQueue[b.ms] {
			t.Fatalf("step %d (%s): %s queued twice", step, op, b.ms.ID)
		}
		inQueue[b.ms] = true
	}
	for id, ms := range p.members {
		if ms.queued != inQueue[ms] {
			t.Fatalf("step %d (%s): %s queued = %v, in queue = %v", step, op, id, ms.queued, inQueue[ms])
		}
	}
	keys := make([]simnet.NodeID, 0, len(p.members))
	probeable := 0
	for id, ms := range p.members {
		keys = append(keys, id)
		if id != p.ep.ID() && ms.Status != StatusDead {
			probeable++
		}
	}
	slices.Sort(keys)
	if len(p.byID) != len(keys) {
		t.Fatalf("step %d (%s): index has %d members, map has %d", step, op, len(p.byID), len(keys))
	}
	for i, ms := range p.byID {
		if ms.ID != keys[i] || p.members[ms.ID] != ms {
			t.Fatalf("step %d (%s): index[%d] = %s, want %s", step, op, i, ms.ID, keys[i])
		}
	}
	if p.probeable != probeable {
		t.Fatalf("step %d (%s): probeable = %d, recount %d", step, op, p.probeable, probeable)
	}
}

// TestIndexMatchesReference drives a Protocol through random operation
// sequences (joins, stranger updates, in-place re-enqueues, suspicion,
// death, resurrection, Leave, onRecover, and simulated time in which
// probes, timeouts and suspicion timers fire) and checks the
// membership index, the probeable count and the broadcast queue after
// every step.
func TestIndexMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := simnet.New(simnet.WithSeed(seed))
		self := simnet.NodeID("n050")
		p := New(sim.AddNode(self), Config{
			ProbeInterval:    100 * time.Millisecond,
			ProbeTimeout:     30 * time.Millisecond,
			SuspicionTimeout: 200 * time.Millisecond,
			MaxPiggyback:     1 + rng.Intn(6),
			RetransmitMult:   1 + rng.Intn(3),
		})
		p.Start()
		ids := make([]simnet.NodeID, 100) // self among them
		for i := range ids {
			ids[i] = simnet.NodeID(fmt.Sprintf("n%03d", i))
		}
		for step := 0; step < 500; step++ {
			id := ids[rng.Intn(len(ids))]
			var op string
			switch rng.Intn(12) {
			case 0, 1:
				op = "join or stranger update"
				p.applyUpdate(Update{ID: id, Status: StatusAlive, Incarnation: uint64(rng.Intn(3))})
			case 2:
				op = "suspect"
				p.applyUpdate(Update{ID: id, Status: StatusSuspect, Incarnation: incOf(p, id)})
			case 3:
				op = "dead"
				p.applyUpdate(Update{ID: id, Status: StatusDead, Incarnation: incOf(p, id)})
			case 4:
				op = "resurrection"
				p.applyUpdate(Update{ID: id, Status: StatusAlive, Incarnation: incOf(p, id) + uint64(rng.Intn(2))})
			case 5, 6:
				op = "re-enqueue"
				if len(p.queue) > 0 && rng.Intn(4) > 0 {
					id = p.queue[rng.Intn(len(p.queue))].ms.ID
				} else {
					id = p.byID[rng.Intn(len(p.byID))].ID
				}
				u := Update{ID: id, Status: StatusAlive, Incarnation: uint64(rng.Intn(5))}
				want := refEnqueue(queueView(p), u)
				p.enqueue(u)
				if got := queueView(p); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: enqueue order differs from reference\n got %v\nwant %v", seed, step, got, want)
				}
			case 7, 8, 9:
				op = "take"
				wantOut, wantQ := refTake(queueView(p), p.cfg.MaxPiggyback, p.retransmitLimit())
				got := p.takePiggyback()
				if !slices.Equal(got, wantOut) {
					t.Fatalf("seed %d step %d: takePiggyback = %v, reference %v", seed, step, got, wantOut)
				}
				if gotQ := queueView(p); !slices.Equal(gotQ, wantQ) {
					t.Fatalf("seed %d step %d: queue after take differs from reference\n got %v\nwant %v", seed, step, gotQ, wantQ)
				}
			case 10:
				op = "simulated time"
				sim.RunUntil(sim.Now() + time.Duration(1+rng.Intn(300))*time.Millisecond)
			case 11:
				switch rng.Intn(4) {
				case 0:
					op = "leave"
					if !p.left {
						p.Leave()
					}
				case 1:
					op = "recover"
					p.onRecover()
				default:
					op = "self suspected"
					p.applyUpdate(Update{ID: self, Status: StatusSuspect, Incarnation: p.incarnation})
				}
			}
			checkIndex(t, p, step, op)
		}
	}
}
