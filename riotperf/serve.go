package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/realnet"
	"repro/internal/serve"
)

const (
	serveKeys     = 64
	serveReadFrac = 0.5
	nominalRate   = 500                   // requests per second
	latencyLimit  = 10 * time.Millisecond // the serving path's latency goal
	burstSize     = 3000                  // requests per closed-loop burst
	loadConns     = 2                     // one to n0, one to n1
)

// ladderRates are the rates the rising ladder tries, in requests per
// second, each for ladderRung.
var ladderRates = []float64{500, 1000, 2000, 3000, 4000, 6000, 8000, 12000, 16000, 24000, 32000}

const ladderRung = time.Second

// servePlan sizes one serve pass.
type servePlan struct {
	nominal time.Duration // open loop at nominalRate
	probe   time.Duration // replicated-read probe
	bursts  int           // closed-loop bursts
}

// servePass is what one pass over a fresh cluster measured.
type servePass struct {
	setup    time.Duration
	cpu      time.Duration // set-up, warm-up and nominal phase
	phaseCPU time.Duration // every setup and run phase
	netBytes int64         // bytes the nodes sent through the nominal phase
	nominal  loadStats
	lags     []float64 // replication lag, ms
	bursts   []float64 // closed-loop burst wall times, s
	loopLag  []float64 // no-op Do round trips, ms (traced pass only)
	net      realnet.NetStats
	batch    float64 // mean writes applied per event-loop turn
	shed     uint64
	incid    int
}

// client is the benchmark's HTTP side: one keep-alive connection per
// load slot, each to its own node, plus a separate client for set-up
// and checks. It records every acknowledged write.
type client struct {
	conns  []*http.Client
	urls   []string
	check  *http.Client
	all    []string
	nextID atomic.Int64

	mu    sync.Mutex
	acked map[string]map[float64]bool
}

func newClient(urls []string) *client {
	c := &client{all: urls, acked: make(map[string]map[float64]bool),
		check: &http.Client{Timeout: 5 * time.Second}}
	for i := 0; i < loadConns; i++ {
		c.conns = append(c.conns, &http.Client{
			Timeout:   5 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
		c.urls = append(c.urls, urls[i])
	}
	return c
}

func (c *client) close() {
	for _, hc := range c.conns {
		hc.CloseIdleConnections()
	}
	c.check.CloseIdleConnections()
}

func loadKey(k int) string { return fmt.Sprintf("bench/k%02d", k) }

// put writes a fresh value to key through connection conn.
func (c *client) put(conn int, key string) (float64, bool) {
	v := float64(c.nextID.Add(1))
	req, err := http.NewRequest(http.MethodPut, c.urls[conn]+"/v1/data/"+key,
		bytes.NewReader([]byte(fmt.Sprintf(`{"value":%d}`, int64(v)))))
	if err != nil {
		return 0, false
	}
	resp, err := c.conns[conn].Do(req)
	if err != nil {
		return 0, false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return 0, false
	}
	c.mu.Lock()
	if c.acked[key] == nil {
		c.acked[key] = make(map[float64]bool)
	}
	c.acked[key][v] = true
	c.mu.Unlock()
	return v, true
}

// get reads key through hc from base and returns its value.
func get(hc *http.Client, base, key string) (float64, bool) {
	resp, err := hc.Get(base + "/v1/data/" + key)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var view struct {
		Value float64 `json:"value"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&view) != nil {
		return 0, false
	}
	return view.Value, true
}

// send is the load generator's sendFunc.
func (c *client) send(conn int, a arrival) bool {
	if a.op == opPut {
		_, ok := c.put(conn, loadKey(a.key))
		return ok
	}
	_, ok := get(c.conns[conn], c.urls[conn], loadKey(a.key))
	return ok
}

// waitReady polls every node's /readyz until all answer 200.
func waitReady(hc *http.Client, urls []string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, u := range urls {
		for {
			resp, err := hc.Get(u + "/readyz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after %s", u, limit)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// startCluster boots the three-node cluster and waits until every node
// is ready; the returned duration is the set-up time.
func startCluster(regs []*obs.Registry, hc *http.Client) (*serve.Cluster, time.Duration, error) {
	t0 := time.Now()
	cl, err := serve.StartCluster(3, serve.ClusterOptions{Registries: regs})
	if err != nil {
		return nil, 0, err
	}
	if err := waitReady(hc, cl.URLs(), 10*time.Second); err != nil {
		cl.Close()
		return nil, 0, err
	}
	return cl, time.Since(t0), nil
}

// runServe runs the serve workload: three timed cluster start-ups, then
// one pass of open-loop load at the nominal rate, the replicated-read
// probe, and the convergence check. Its run time is a write's trip to
// a readable replica: request → replicated read.
func runServe(o runOpts, out *outcome) error {
	if o.trace {
		return traceServe(o, out)
	}
	var setups []float64
	hc := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 2; i++ {
		cl, d, err := startCluster(nil, hc)
		if err != nil {
			return err
		}
		cl.Close()
		setups = append(setups, d.Seconds())
	}
	hc.CloseIdleConnections()
	plan := servePlan{nominal: o.budget * 2 / 5, probe: o.budget * 2 / 5}
	p, err := runServePass(o.seed, plan, nil, out)
	if err != nil {
		return err
	}
	setups = append(setups, p.setup.Seconds())
	out.set("setup_s", median(setups))
	out.set("run_s", median(p.lags)/1e3)
	out.set("cpu_s", p.cpu.Seconds())
	out.set("peak_rss_mb", peakRSSMB())
	out.set("net_mb", float64(p.netBytes)/1e6)
	out.set("r_goal", float64(p.nominal.within(latencyLimit))/float64(p.nominal.attempted))
	return nil
}

// traceServe runs a plain pass and a traced pass, each with
// closed-loop bursts, then the rate ladder, and reports the per-layer
// metrics. Latencies and burst times come from the plain pass so
// profiling does not inflate them.
func traceServe(o runOpts, out *outcome) error {
	plan := servePlan{nominal: o.budget / 4, probe: o.budget / 10, bursts: 3}
	plain, err := runServePass(o.seed, plan, nil, out)
	if err != nil {
		return err
	}
	tr := newTracer(o.outDir)
	traced, err := runServePass(o.seed, plan, tr, out)
	if err != nil {
		return err
	}
	maxRPS, err := ladder(o.seed, out)
	if err != nil {
		return err
	}

	n := plain.nominal
	out.set("serve.put_p50_ms", percentile(n.lat[opPut], 50))
	out.set("serve.put_p99_ms", percentile(n.lat[opPut], 99))
	out.set("serve.get_p50_ms", percentile(n.lat[opGet], 50))
	out.set("serve.get_p99_ms", percentile(n.lat[opGet], 99))
	out.set("serve.repl_lag_p50_ms", percentile(plain.lags, 50))
	out.set("serve.repl_lag_p99_ms", percentile(plain.lags, 99))
	out.set("serve.max_rps", maxRPS)
	out.set("serve.burst_s", median(plain.bursts))
	out.set("load.late_p99_ms", percentile(n.late, 99))
	out.set("load.backlog_max", float64(n.backlogMax))
	out.set("serve.batch_mean", traced.batch)
	out.set("serve.shed", float64(traced.shed))
	out.set("gossip.incidents", float64(traced.incid))
	setNet(out, traced.net)
	out.set("realnet.loop_lag_p50_ms", percentile(traced.loopLag, 50))
	out.set("realnet.loop_lag_p99_ms", percentile(traced.loopLag, 99))
	return tr.finish(out, plain.phaseCPU)
}

// setNet reports socket-level counters summed over the nodes.
func setNet(out *outcome, ns realnet.NetStats) {
	out.set("realnet.pkts", float64(ns.Sent))
	if ns.Sent > 0 {
		out.set("realnet.bytes_per_pkt", float64(ns.SentBytes)/float64(ns.Sent))
	}
	out.set("realnet.dropped", float64(ns.Dropped))
	out.set("realnet.delayed", float64(ns.Delayed))
	out.set("realnet.shaped", float64(ns.Shaped))
}

// runServePass starts a cluster and drives it through plan's phases.
func runServePass(seed int64, plan servePlan, tr *tracer, out *outcome) (servePass, error) {
	var p servePass
	rng := newRand(seed)
	phase := func(name string, fn func()) error {
		c0 := cpuTime()
		err := tr.phase(name, fn)
		p.phaseCPU += cpuTime() - c0
		return err
	}
	sp := tr.spans()
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()}
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()

	c0 := cpuTime()
	var cl *serve.Cluster
	var err error
	if perr := phase("setup", func() {
		s := sp.start("StartCluster", 0, 0)
		cl, p.setup, err = startCluster(regs, hc)
		s.end()
	}); perr != nil {
		return p, perr
	}
	if err != nil {
		return p, err
	}
	defer cl.Close()
	c := newClient(cl.URLs())
	defer c.close()

	var stopLag func() []float64
	if tr != nil {
		stopLag = probeLoops(cl, sp)
	}
	// One profiled window covers every run phase: each window loses
	// up to a sampling period per thread, and serving spreads its CPU
	// over many threads.
	perr := phase("run", func() {
		if err = c.warmUp(); err != nil {
			return
		}
		s := sp.start("nominal", 0, 0)
		p.nominal = runOpen(openSchedule(rng, nominalRate, plan.nominal, serveKeys, serveReadFrac), loadConns, c.send, sp, s.id)
		s.end()
		p.cpu = cpuTime() - c0
		p.netBytes = clusterNet(cl).SentBytes
		out.tally(p.nominal.attempted, p.nominal.failed, "nominal-rate requests")

		s = sp.start("replication probe", 0, 0)
		var failed int
		p.lags, failed = c.probeReplication(plan.probe, sp, s.id)
		s.end()
		out.tally(len(p.lags)+failed, failed, "replication probes")

		for i := 0; i < plan.bursts; i++ {
			s := sp.start("burst", 0, 0)
			d, failed := runClosed(closedBatch(rng, burstSize, serveKeys, serveReadFrac), loadConns, c.send)
			s.end()
			p.bursts = append(p.bursts, d.Seconds())
			out.tally(burstSize, failed, "burst requests")
		}
	})
	if perr != nil {
		return p, perr
	}
	if err != nil {
		return p, err
	}
	if stopLag != nil {
		p.loopLag = stopLag()
	}
	c.checkConverged(out)

	p.net = clusterNet(cl)
	var batches, batchSum float64
	for i, reg := range regs {
		h := reg.Histogram("riot_serve_batch_size", "writes applied per event-loop turn",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128})
		batches += float64(h.Count())
		batchSum += h.Sum()
		p.shed += reg.Counter("riot_serve_shed_total", "requests shed by admission control").Value()
		n, err := incidents(hc, cl.URLs()[i])
		if err != nil {
			return p, err
		}
		p.incid += n
	}
	if batches > 0 {
		p.batch = batchSum / batches
	}
	return p, nil
}

// clusterNet sums every node's socket counters.
func clusterNet(cl *serve.Cluster) realnet.NetStats {
	var t realnet.NetStats
	for _, n := range cl.Nodes {
		s := n.Node.NetStats()
		t.Sent += s.Sent
		t.SentBytes += s.SentBytes
		t.Received += s.Received
		t.Dropped += s.Dropped
		t.Delayed += s.Delayed
		t.Shaped += s.Shaped
	}
	return t
}

// incidents returns the total of a node's /v1/incidents.
func incidents(hc *http.Client, base string) (int, error) {
	resp, err := hc.Get(base + "/v1/incidents")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var v serve.IncidentsView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, fmt.Errorf("decoding incidents: %w", err)
	}
	return v.Total, nil
}

// warmUp writes every load key once through n0 and waits until all
// three nodes serve it, so reads during the measured phases find their
// keys and the connections are open.
func (c *client) warmUp() error {
	for k := 0; k < serveKeys; k++ {
		if _, ok := c.put(0, loadKey(k)); !ok {
			return fmt.Errorf("warm-up write of %s failed", loadKey(k))
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for k := 0; k < serveKeys; k++ {
		for _, u := range c.all {
			for {
				if _, ok := get(c.check, u, loadKey(k)); ok {
					break
				}
				if time.Now().After(deadline) {
					return errors.New("warm-up writes did not replicate")
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	for conn := range c.conns {
		if _, ok := get(c.conns[conn], c.urls[conn], loadKey(0)); !ok {
			return errors.New("warm-up read failed")
		}
	}
	return nil
}

// probeReplication measures replication lag for dur: every probeEvery
// it writes a fresh value through n0, and a reader polls n1 for every
// value not yet seen there. A probe's lag runs from its write's 2xx to
// the first read on n1 that returns it. Probes not seen within
// probeTimeout of the last write count as failed.
func (c *client) probeReplication(dur time.Duration, sp *spans, parent uint64) ([]float64, int) {
	const (
		probeEvery   = 10 * time.Millisecond
		probeSlots   = 64
		probeTimeout = 3 * time.Second
	)
	type probe struct {
		key   string
		value float64
		acked time.Time
		span  span
	}
	n := int(dur / probeEvery)
	// Sized to the number of sends: the writer never waits on the reader.
	written := make(chan probe, n)
	writeFailed := 0
	go func() {
		defer close(written)
		start := time.Now()
		for i := 0; i < n; i++ {
			if d := time.Duration(i)*probeEvery - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			key := fmt.Sprintf("bench/probe%02d", i%probeSlots)
			s := sp.start("probe", parent, 1)
			v, ok := c.put(0, key)
			if !ok {
				s.end()
				writeFailed++
				continue
			}
			written <- probe{key: key, value: v, acked: time.Now(), span: s}
		}
	}()

	var lags []float64
	var pending []probe
	open := true
	var deadline time.Time
	for open || len(pending) > 0 {
		if open {
			// Take every probe written so far; block only when none is
			// pending.
		drain:
			for {
				var p probe
				var ok bool
				if len(pending) == 0 {
					p, ok = <-written
				} else {
					select {
					case p, ok = <-written:
					default:
						break drain
					}
				}
				if !ok {
					open = false
					deadline = time.Now().Add(probeTimeout)
					break drain
				}
				pending = append(pending, p)
			}
		}
		if !open && time.Now().After(deadline) {
			break
		}
		kept := pending[:0]
		for _, p := range pending {
			ps := sp.start("poll", p.span.id, 2)
			v, ok := get(c.conns[1], c.urls[1], p.key)
			ps.end()
			if ok && v >= p.value {
				lags = append(lags, ms(time.Since(p.acked)))
				p.span.end()
				continue
			}
			kept = append(kept, p)
		}
		pending = kept
		time.Sleep(time.Millisecond)
	}
	// The writer has finished once written is closed.
	return lags, len(pending) + writeFailed
}

// checkConverged waits for replication to quiesce and checks that all
// three nodes return the same value for every key with an acknowledged
// write, and that the value is one of those writes.
func (c *client) checkConverged(out *outcome) {
	deadline := time.Now().Add(10 * time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, acked := range c.acked {
		var vals []float64
		converged := false
		for !converged && time.Now().Before(deadline) {
			vals = vals[:0]
			converged = true
			for _, u := range c.all {
				v, ok := get(c.check, u, key)
				vals = append(vals, v)
				converged = converged && ok && acked[v] && v == vals[0]
			}
			if !converged {
				time.Sleep(20 * time.Millisecond)
			}
		}
		out.check(converged, "serve key %s: nodes hold %v", key, vals)
	}
}

// probeLoops times a no-op Do on every node's event loop at a fixed
// cadence until the returned stop function is called, which returns
// the round trips in ms.
func probeLoops(cl *serve.Cluster, sp *spans) func() []float64 {
	const every = 5 * time.Millisecond
	stop := make(chan struct{})
	var mu sync.Mutex
	var lags []float64
	var wg sync.WaitGroup
	for i, cn := range cl.Nodes {
		wg.Add(1)
		go func(lane int, node *realnet.Node) {
			defer wg.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				s := sp.start("Do "+string(node.ID()), 0, lane)
				t0 := time.Now()
				if !node.Do(func() {}) {
					s.end()
					return
				}
				d := time.Since(t0)
				s.end()
				mu.Lock()
				lags = append(lags, ms(d))
				mu.Unlock()
			}
		}(3+i, cn.Node)
	}
	return func() []float64 {
		close(stop)
		wg.Wait()
		return lags
	}
}

// ladder raises the open-loop rate rung by rung and returns the highest
// rate at which the p99 over both operations stays within latencyLimit
// (failed requests count as misses) and the backlog does not grow. It
// stops at a rung whose backlog grew, or at the second missed rung in a
// row, so one transient stall does not end the climb.
func ladder(seed int64, out *outcome) (float64, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	cl, _, err := startCluster(nil, hc)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	c := newClient(cl.URLs())
	defer c.close()
	if err := c.warmUp(); err != nil {
		return 0, err
	}
	rng := newRand(seed)
	best := 0.0
	missed := 0
	for _, rate := range ladderRates {
		st := runOpen(openSchedule(rng, rate, ladderRung, serveKeys, serveReadFrac), loadConns, c.send, nil, 0)
		out.tally(st.attempted, st.failed, fmt.Sprintf("ladder requests at %.0f/s", rate))
		misses := st.attempted - st.within(latencyLimit)
		// A backlog holding more than the latency limit's worth of
		// arrivals when the rung ends has grown without bound.
		grew := float64(st.backlogEnd) > rate*latencyLimit.Seconds()
		fmt.Fprintf(os.Stderr, "ladder: %5.0f req/s  p99 %6.2fms  misses %d of %d  backlog at end %d\n",
			rate, percentile(st.all(), 99), misses, st.attempted, st.backlogEnd)
		switch {
		case grew:
			return best, nil
		case float64(misses) > 0.01*float64(st.attempted):
			if missed++; missed == 2 {
				return best, nil
			}
		default:
			missed = 0
			best = rate
		}
	}
	return best, nil
}
