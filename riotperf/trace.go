package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// tracer bundles what a traced pass records: the CPU ledger and the
// spans. A nil *tracer is a plain pass: phases just run and spans are
// not kept.
type tracer struct {
	led *ledger
	sp  *spans
}

func newTracer(dir string) *tracer { return &tracer{led: newLedger(dir), sp: newSpans()} }

// phase runs fn as part of phase "setup" or "run", under the profiler
// when tracing.
func (t *tracer) phase(phase string, fn func()) error {
	if t == nil {
		fn()
		return nil
	}
	return t.led.measure(phase, fn)
}

func (t *tracer) spans() *spans {
	if t == nil {
		return nil
	}
	return t.sp
}

// finish reports the ledger's per-layer CPU, the tracing overhead
// against the plain pass's CPU over the same work, and writes the
// spans as Chrome trace JSON.
func (t *tracer) finish(o *outcome, plainCPU time.Duration) error {
	t.led.report(o)
	if plainCPU > 0 {
		o.set("trace.overhead_frac", t.led.cost.Seconds()/plainCPU.Seconds()-1)
	}
	path := filepath.Join(t.led.dir, "spans.json")
	if err := t.sp.writeChrome(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
