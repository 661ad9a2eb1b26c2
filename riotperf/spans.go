package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spans records timed regions of the benchmark's own code around its
// calls into the system: name, start, end, the span that caused it, an
// id, and the lane (goroutine role) it ran on. A nil *spans records
// nothing, so plain runs pay one nil check per call site. Spans stay in
// memory until writeChrome.
type spans struct {
	mu     sync.Mutex
	origin time.Time
	next   uint64
	done   []spanRec
}

type spanRec struct {
	name       string
	id, parent uint64
	lane       int
	start, end time.Duration
}

// span is an open region; end closes it.
type span struct {
	s     *spans
	name  string
	id    uint64
	par   uint64
	lane  int
	start time.Duration
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// start opens a span under parent (0 for a root) on lane.
func (s *spans) start(name string, parent uint64, lane int) span {
	if s == nil {
		return span{}
	}
	s.mu.Lock()
	s.next++
	id := s.next
	s.mu.Unlock()
	return span{s: s, name: name, id: id, par: parent, lane: lane, start: time.Since(s.origin)}
}

// end closes the span.
func (sp span) end() {
	if sp.s == nil {
		return
	}
	end := time.Since(sp.s.origin)
	sp.s.mu.Lock()
	sp.s.done = append(sp.s.done, spanRec{name: sp.name, id: sp.id, parent: sp.par, lane: sp.lane, start: sp.start, end: end})
	sp.s.mu.Unlock()
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, the format riotsim -trace writes.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]uint64 `json:"args"`
}

// writeChrome writes every closed span as Chrome trace-event JSON,
// one track per lane.
func (s *spans) writeChrome(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	events := make([]chromeEvent, len(s.done))
	for i, r := range s.done {
		events[i] = chromeEvent{
			Name: r.name, Cat: "riotperf", Ph: "X",
			Ts: float64(r.start.Nanoseconds()) / 1e3, Dur: float64((r.end - r.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: r.lane,
			Args: map[string]uint64{"id": r.id, "parent": r.parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
