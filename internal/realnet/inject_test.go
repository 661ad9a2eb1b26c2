package realnet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/simnet"
)

// ping is the trivial wire payload for the fault tests: a boxed
// simnet.Envelope, whose codec the simnet package registers.
func ping(n uint64) simnet.Envelope { return simnet.Envelope{Kind: 1, A: n} }

// TestInjectorCrashRecover rehearses a crash/recover schedule on two
// live UDP nodes: while the fault is applied the target must drop
// traffic, silence its ticker and refuse Send; after the scheduled
// repair it must resume, with OnDown/OnUp observing both transitions.
func TestInjectorCrashRecover(t *testing.T) {
	a, err := NewNode("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer("b", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("a", a.Addr()); err != nil {
		t.Fatal(err)
	}

	received, ticks, downs, ups := 0, 0, 0, 0
	b.OnMessage(func(simnet.NodeID, simnet.Message) { received++ })
	b.OnDown(func() { downs++ })
	b.OnUp(func() { ups++ })
	b.Every(5*time.Millisecond, func() { ticks++ })
	a.Run()
	b.Run()
	a.Every(5*time.Millisecond, func() { a.Send("b", ping(1)) })

	// Crash b at 10ms (virtual 100ms, scale 0.1) for 150ms.
	s := (&fault.Schedule{}).Crash(100*time.Millisecond, "b", 1500*time.Millisecond)
	s.TransferDomain(50*time.Millisecond, "b", "foreign") // model-level: arms, delivered to subscribers
	inj := NewInjector(map[simnet.NodeID]*Node{"a": a, "b": b}, 0.1)
	defer inj.Stop()
	var modelEvents []fault.Event
	var modelMu sync.Mutex
	inj.Subscribe(func(ev fault.Event) {
		if ev.Kind == fault.KindDomainTransfer {
			modelMu.Lock()
			modelEvents = append(modelEvents, ev)
			modelMu.Unlock()
		}
	})
	armed, skipped := inj.Arm(s)
	if armed != 3 || skipped != 0 {
		t.Fatalf("Arm: armed=%d skipped=%d, want 3 armed (crash+recover+transfer), 0 skipped", armed, skipped)
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			if cond() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}

	waitFor("crash fault", func() bool { return b.Down() })
	// Snapshot counters on the event loop, wait a few tick periods, and
	// verify nothing moved while down: no receives, no ticks, no Send.
	var c1, t1 int
	b.Do(func() { c1, t1 = received, ticks })
	time.Sleep(40 * time.Millisecond)
	var c2, t2 int
	b.Do(func() { c2, t2 = received, ticks })
	if c2 != c1 || t2 != t1 {
		t.Fatalf("activity while down: received %d→%d, ticks %d→%d", c1, c2, t1, t2)
	}
	if b.Send("a", ping(2)) {
		t.Fatal("Send succeeded on a crashed node")
	}

	waitFor("scheduled repair", func() bool { return !b.Down() })
	waitFor("traffic after recovery", func() bool {
		var c int
		b.Do(func() { c = received })
		return c > c2
	})
	var gotDowns, gotUps int
	b.Do(func() { gotDowns, gotUps = downs, ups })
	if gotDowns != 1 || gotUps != 1 {
		t.Fatalf("transitions: OnDown=%d OnUp=%d, want 1/1", gotDowns, gotUps)
	}
	if lg := inj.Log(); len(lg) != 3 || lg[0].Kind != fault.KindDomainTransfer ||
		lg[1].Kind != fault.KindCrash || lg[2].Kind != fault.KindRecover {
		t.Fatalf("injector log = %v, want [transfer crash recover]", lg)
	}
	modelMu.Lock()
	nModel := len(modelEvents)
	modelMu.Unlock()
	if nModel != 1 {
		t.Fatalf("model-level subscriber saw %d events, want 1", nModel)
	}
	tl := inj.TimedLog()
	if len(tl) != 3 {
		t.Fatalf("timed log has %d entries, want 3", len(tl))
	}
	for i, te := range tl {
		if te.Wall.IsZero() {
			t.Fatalf("timed log entry %d has zero wall timestamp", i)
		}
		if i > 0 && te.Wall.Before(tl[i-1].Wall) {
			t.Fatalf("timed log out of order at %d", i)
		}
	}
}
