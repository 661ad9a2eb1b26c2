package realnet

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestMalformedDatagramsAreCountedAndDropped writes garbage, truncated
// and unknown-tag datagrams to a live gossip node's socket. Each one
// must be counted in Malformed and dropped, and the node must keep
// serving its peers: gossip still converges and still delivers.
func TestMalformedDatagramsAreCountedAndDropped(t *testing.T) {
	nodes, protos := gossipCluster(t, 3)
	waitAlive := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if aliveCount(nodes[1], protos[1]) == want {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("node b sees %d alive, want %d", aliveCount(nodes[1], protos[1]), want)
	}
	waitAlive(3)

	var w wire.Writer
	valid, err := w.Frame("a", simnet.Envelope{Kind: 1, A: 9, S: "a", T: "b"})
	if err != nil {
		t.Fatal(err)
	}
	unknown := append([]byte(nil), valid...)
	unknown[2] = 250 // the tag byte after the one-byte sender "a"
	bad := [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		valid[:len(valid)-3],
		unknown,
		append(append([]byte(nil), valid...), 0),
		{1, 'a', byte(wire.TagStoreInterest), 0xff, 0xff, 0xff, 0xff, 0x0f},
	}
	conn, err := net.Dial("udp", nodes[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	recvBefore := nodes[1].NetStats().Received
	for _, b := range bad {
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for nodes[1].NetStats().Malformed < int64(len(bad)) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := nodes[1].NetStats().Malformed; got != int64(len(bad)) {
		t.Fatalf("Malformed = %d, want %d", got, len(bad))
	}
	// Still serving: gossip traffic keeps arriving and membership holds.
	deadline = time.Now().Add(5 * time.Second)
	for nodes[1].NetStats().Received <= recvBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if nodes[1].NetStats().Received <= recvBefore {
		t.Fatal("node stopped receiving after the malformed datagrams")
	}
	waitAlive(3)
	for i, n := range nodes {
		if s := n.NetStats(); s.EncodeErrors != 0 || (i != 1 && s.Malformed != 0) {
			t.Errorf("node %d: %+v", i, s)
		}
	}
}

// TestUnencodableSendIsCounted sends a message type with no codec and
// one too large for a datagram: both sends fail and are counted.
func TestUnencodableSendIsCounted(t *testing.T) {
	a, err := NewNode("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.AddPeer("b", "127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	if a.Send("b", struct{ N int }{1}) {
		t.Fatal("send of a type without a codec succeeded")
	}
	huge := simnet.Envelope{S: simnet.NodeID(make([]byte, maxDatagram))}
	if a.Send("b", huge) {
		t.Fatal("send of an oversized frame succeeded")
	}
	if s := a.NetStats(); s.EncodeErrors != 2 || s.Sent != 0 {
		t.Fatalf("stats %+v, want 2 encode errors and nothing sent", s)
	}
}

// TestConcurrentSendsShareTheFrameBuffer sends from several goroutines
// at once through one node's reused frame buffer: every datagram must
// arrive intact, exactly once.
func TestConcurrentSendsShareTheFrameBuffer(t *testing.T) {
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
	const senders, each = 4, 50
	got := make(chan uint64, senders*each)
	b.OnMessage(func(_ simnet.NodeID, msg simnet.Message) {
		if env, ok := msg.(simnet.Envelope); ok && env.S == "a" {
			got <- env.A
		}
	})
	a.Run()
	b.Run()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a.Send("b", simnet.Envelope{Kind: 1, A: uint64(s*each + i), S: "a", T: "b"})
			}
		}(s)
	}
	wg.Wait()

	seen := make(map[uint64]bool)
	timeout := time.After(5 * time.Second)
	for len(seen) < senders*each {
		select {
		case v := <-got:
			if v >= senders*each || seen[v] {
				t.Fatalf("received corrupt or duplicate value %d", v)
			}
			seen[v] = true
		case <-timeout:
			t.Fatalf("received %d of %d datagrams (stats %+v)", len(seen), senders*each, b.NetStats())
		}
	}
	if s := b.NetStats(); s.Malformed != 0 {
		t.Fatalf("malformed datagrams: %+v", s)
	}
}
