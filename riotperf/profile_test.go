package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		want  string
		stack []string // leaf first
	}{
		{"gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
		{"gc", []string{"repro/internal/gossip.(*Protocol).handle", "runtime.gcBgMarkWorker"}},
		{"wire", []string{"reflect.Value.Field", "encoding/gob.(*Encoder).encodeStruct",
			"repro/internal/realnet.(*Node).Send", "repro/internal/gossip.(*Protocol).probe"}},
		{"socket", []string{"syscall.Syscall6", "internal/poll.(*FD).WriteTo", "net.(*UDPConn).WriteTo",
			"repro/internal/realnet.(*Node).Send"}},
		{"socket", []string{"runtime.memmove", "net.(*conn).Read", "net/http.(*connReader).Read", "net/http.(*conn).serve"}},
		{"http", []string{"runtime.mallocgc", "net/textproto.(*Reader).ReadLine", "net/http.readRequest", "net/http.(*conn).serve"}},
		{"serve", []string{"encoding/json.Marshal", "repro/internal/serve.writeJSON", "net/http.HandlerFunc.ServeHTTP"}},
		{"gossip", []string{"runtime.mapaccess2", "repro/internal/gossip.(*Protocol).handle", "repro/internal/realnet.(*Node).loop"}},
		{"simnet", []string{"repro/internal/simnet.(*Sim).Run.func1"}},
		{"crdt", []string{"repro/internal/crdt.Merge[go.shape.string,repro/internal/dataflow.Item]", "repro/internal/dataflow.(*Store).sync"}},
		{"other", []string{"repro/internal/env.(*World).Step", "repro/internal/core.(*System).envTickBody"}},
		{"load", []string{selfPackage + ".(*client).send", selfPackage + ".runOpen.func1"}},
		{"runtime", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}},
		{"runtime", nil},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// burn spins for d of CPU time in this package, which profiles
// attribute to the load layer.
func burn(d time.Duration) int {
	n := 0
	for t0 := cpuTime(); cpuTime()-t0 < d; {
		for i := 0; i < 10000; i++ {
			n += i * i
		}
	}
	return n
}

var sink int

// TestLedgerSumsToProfile profiles real work and checks that the parser
// reads the profile runtime/pprof writes, that the per-layer figures
// add up to the profile's total, and that the profile covers the CPU
// clock over the same window.
func TestLedgerSumsToProfile(t *testing.T) {
	l := newLedger(t.TempDir())
	if err := l.measure("run", func() { sink = burn(400 * time.Millisecond) }); err != nil {
		t.Fatal(err)
	}
	out := newOutcome()
	l.report(out)
	var sum float64
	for name, v := range out.values {
		if strings.HasPrefix(name, "cpu.") {
			sum += v
		}
	}
	if total := l.profile.Seconds(); total == 0 || abs(sum-total) > 1e-9 {
		t.Fatalf("per-layer sum %.6fs, profile total %.6fs", sum, total)
	}
	if got := out.values["cpu.run.load_s"]; got < 0.5*sum {
		t.Errorf("load layer %.3fs of %.3fs; burn runs in package main", got, sum)
	}
	if f := out.values["trace.attributed_frac"]; f < 0.8 || f > 1.1 {
		t.Errorf("profile covers %.2f of the CPU clock", f)
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed")
	}
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := parseCPUProfile(buf.Bytes()); err == nil {
		t.Error("a goroutine profile has no CPU time, yet it parsed")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
