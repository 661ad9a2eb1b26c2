package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

type opKind uint8

const (
	opGet opKind = iota
	opPut
)

func (k opKind) String() string {
	if k == opPut {
		return "PUT"
	}
	return "GET"
}

// arrival is one request of a schedule: when it is due, relative to
// the schedule's start, what it does, and on which key.
type arrival struct {
	due time.Duration
	op  opKind
	key int
}

// openSchedule builds a seeded open-loop schedule up front: Poisson
// arrivals at rate per second over dur, each a read with probability
// readFrac, on a key drawn uniformly from nkeys. Arrivals are
// independent of how fast the system answers, as from independent
// users.
func openSchedule(rng *rand.Rand, rate float64, dur time.Duration, nkeys int, readFrac float64) []arrival {
	var sched []arrival
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			return sched
		}
		sched = append(sched, drawArrival(rng, at, nkeys, readFrac))
	}
}

// closedBatch draws n requests with no due times, for a closed loop.
func closedBatch(rng *rand.Rand, n, nkeys int, readFrac float64) []arrival {
	batch := make([]arrival, n)
	for i := range batch {
		batch[i] = drawArrival(rng, 0, nkeys, readFrac)
	}
	return batch
}

func drawArrival(rng *rand.Rand, at time.Duration, nkeys int, readFrac float64) arrival {
	op := opPut
	if rng.Float64() < readFrac {
		op = opGet
	}
	return arrival{due: at, op: op, key: rng.Intn(nkeys)}
}

// sendFunc performs one request on connection conn and reports
// whether it succeeded.
type sendFunc func(conn int, a arrival) bool

// loadStats is what one open-loop run measured. Latency runs from
// each request's due time to its completion, so time a request spent
// queued behind a stall counts against it.
type loadStats struct {
	lat        [2][]float64 // successful requests by opKind, ms from due
	late       []float64    // ms from due until a connection took the request
	attempted  int
	failed     int
	backlogMax int // most requests due but not yet taken by a connection
	backlogEnd int // requests still waiting when the last one fell due
}

// all returns every successful request's latency.
func (s loadStats) all() []float64 {
	return append(append([]float64(nil), s.lat[opGet]...), s.lat[opPut]...)
}

// within counts successful requests that finished within limit of due.
func (s loadStats) within(limit time.Duration) int {
	n := 0
	for _, l := range s.all() {
		if l <= ms(limit) {
			n++
		}
	}
	return n
}

// runOpen drives sched open-loop over conns connections. A dispatcher
// releases each request at its due time into one queue; each
// connection takes the next queued request when it is free. When every
// connection is busy, requests wait in the queue: none is dropped, and
// the queue depth is the generator's backlog.
func runOpen(sched []arrival, conns int, send sendFunc, sp *spans, parent uint64) loadStats {
	// Sized to the schedule so the dispatcher never blocks: a blocked
	// dispatcher would delay later arrivals and hide the backlog.
	queue := make(chan int, len(sched))
	var backlog atomic.Int64
	type workerStats struct {
		lat    [2][]float64
		late   []float64
		failed int
	}
	ws := make([]workerStats, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &ws[c]
			for i := range queue {
				backlog.Add(-1)
				a := sched[i]
				w.late = append(w.late, ms(time.Since(start)-a.due))
				rs := sp.start(a.op.String(), parent, 1+c)
				ok := send(c, a)
				rs.end()
				if !ok {
					w.failed++
					continue
				}
				w.lat[a.op] = append(w.lat[a.op], ms(time.Since(start)-a.due))
			}
		}(c)
	}
	st := loadStats{attempted: len(sched)}
	for i, a := range sched {
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		n := int(backlog.Add(1))
		if n > st.backlogMax {
			st.backlogMax = n
		}
		if i == len(sched)-1 {
			st.backlogEnd = n - 1
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	for _, w := range ws {
		st.lat[opGet] = append(st.lat[opGet], w.lat[opGet]...)
		st.lat[opPut] = append(st.lat[opPut], w.lat[opPut]...)
		st.late = append(st.late, w.late...)
		st.failed += w.failed
	}
	return st
}

// runClosed sends batch over conns connections, each sending its next
// request as soon as its previous one completes, and returns the wall
// time the whole batch took and how many requests failed.
func runClosed(batch []arrival, conns int, send sendFunc) (time.Duration, int) {
	var next atomic.Int64
	var failed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				if !send(c, batch[i]) {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), int(failed.Load())
}
