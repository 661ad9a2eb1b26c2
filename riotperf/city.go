package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/observatory"
)

// cityPass is one run of the maturity matrix ML1→ML4 on the city tier.
type cityPass struct {
	setup, run, hash, analyze time.Duration // summed over archetypes
	cpu                       time.Duration // process CPU over those phases
	reports                   []core.Report
	hashes                    []string
	journalEvents             int
	ml4                       observatory.Analysis
}

// runCityPass builds, runs, hashes and analyzes each archetype in turn
// on the default scheduler. A forced collection before each archetype
// keeps the previous one's garbage out of the timed phases.
func runCityPass(cfg core.ScenarioConfig, tr *tracer, parent uint64) (cityPass, error) {
	var p cityPass
	for _, arch := range core.AllArchetypes() {
		runtime.GC()
		var sys *core.System
		c0 := cpuTime()
		err := tr.phase("setup", func() {
			sp := tr.spans().start("NewSystem "+arch.String(), parent, 0)
			t0 := time.Now()
			sys = core.NewSystem(cfg, arch)
			p.setup += time.Since(t0)
			sp.end()
		})
		if err != nil {
			return p, err
		}
		err = tr.phase("run", func() {
			sp := tr.spans().start("Run "+arch.String(), parent, 0)
			t0 := time.Now()
			rep := sys.Run()
			p.run += time.Since(t0)
			sp.end()
			p.reports = append(p.reports, rep)

			sp = tr.spans().start("JournalHash", parent, 0)
			t0 = time.Now()
			journal := sys.Journal()
			p.hashes = append(p.hashes, core.JournalHash(journal))
			p.hash += time.Since(t0)
			sp.end()
			p.journalEvents += len(journal)

			sp = tr.spans().start("Analyze", parent, 0)
			t0 = time.Now()
			a := observatory.Analyze(journal, observatory.Options{Duration: cfg.Duration, Zones: cfg.Zones})
			p.analyze += time.Since(t0)
			sp.end()
			if arch == core.ML4 {
				p.ml4 = a
			}
		})
		if err != nil {
			return p, err
		}
		p.cpu += cpuTime() - c0
	}
	return p, nil
}

// cityScenario is the city tier at the workload seed.
func cityScenario(seed int64) core.ScenarioConfig {
	cfg := core.CityScenario()
	cfg.Seed = seed
	return cfg
}

// runCity runs the city workload: whole matrix passes until the budget
// would be overrun (at least two, so their journals can be compared),
// then extra construction-only rounds until set-up has five samples.
func runCity(o runOpts, out *outcome) error {
	cfg := cityScenario(o.seed)
	if o.trace {
		return traceCity(cfg, o, out)
	}
	start := time.Now()
	var passes []cityPass
	var setups []float64
	for {
		t0 := time.Now()
		p, err := runCityPass(cfg, nil, 0)
		if err != nil {
			return err
		}
		passes = append(passes, p)
		setups = append(setups, p.setup.Seconds())
		if len(passes) >= 2 && time.Since(start)+time.Since(t0) > o.budget {
			break
		}
	}
	for len(setups) < 5 {
		setups = append(setups, citySetupOnly(cfg).Seconds())
	}
	checkCity(out, passes)

	var runs, cpus []float64
	for _, p := range passes {
		runs = append(runs, p.run.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
	}
	first := passes[0]
	var bytes int
	for _, r := range first.reports {
		bytes += r.Bytes
	}
	out.set("setup_s", median(setups))
	out.set("run_s", median(runs))
	out.set("cpu_s", median(cpus))
	out.set("peak_rss_mb", peakRSSMB())
	out.set("net_mb", float64(bytes)/1e6)
	out.set("r_goal", first.reports[ml4Index].GoalPersistence)
	return nil
}

// citySetupOnly times one construction of every archetype.
func citySetupOnly(cfg core.ScenarioConfig) time.Duration {
	var total time.Duration
	for _, arch := range core.AllArchetypes() {
		runtime.GC()
		t0 := time.Now()
		sys := core.NewSystem(cfg, arch)
		total += time.Since(t0)
		runtime.KeepAlive(sys)
	}
	return total
}

// Report order follows core.AllArchetypes: ML1, ML2, ML3, ML4.
const (
	ml1Index = 0
	ml4Index = 3
)

// checkCity checks every archetype run: R lies in [0,1], its journal
// hash equals the first pass's (the simulator is deterministic per
// seed), and ML4's R is not below ML1's.
func checkCity(out *outcome, passes []cityPass) {
	ref := passes[0]
	for i, p := range passes {
		for j, r := range p.reports {
			ok := r.GoalPersistence >= 0 && r.GoalPersistence <= 1 && p.hashes[j] == ref.hashes[j]
			if j == ml4Index {
				ok = ok && r.GoalPersistence >= p.reports[ml1Index].GoalPersistence
			}
			out.check(ok, "city pass %d %s: R=%.3f hash=%s want hash %s (ML1 R=%.3f)",
				i, r.Archetype, r.GoalPersistence, p.hashes[j], ref.hashes[j], p.reports[ml1Index].GoalPersistence)
		}
	}
}

// traceCity runs one plain pass and one traced pass and reports the
// per-layer metrics from the traced one.
func traceCity(cfg core.ScenarioConfig, o runOpts, out *outcome) error {
	plain, err := runCityPass(cfg, nil, 0)
	if err != nil {
		return err
	}
	tr := newTracer(o.outDir)
	root := tr.sp.start("city pass", 0, 0)
	traced, err := runCityPass(cfg, tr, root.id)
	root.end()
	if err != nil {
		return err
	}
	checkCity(out, []cityPass{plain, traced})

	var msgs int
	for _, r := range traced.reports {
		msgs += r.Messages
	}
	ml4 := traced.reports[ml4Index]
	out.set("simnet.msgs", float64(msgs))
	out.set("simnet.msgs_per_s", float64(msgs)/traced.run.Seconds())
	out.set("core.runtime_checks", float64(ml4.RuntimeChecks))
	setSync(out, ml4)
	out.set("core.journal_events", float64(traced.journalEvents))
	out.set("core.journal_hash_s", traced.hash.Seconds())
	out.set("observatory.analyze_s", traced.analyze.Seconds())
	setAnalysis(out, traced.ml4)
	return tr.finish(out, plain.cpu)
}

// setSync reports the store-sync counters of one report.
func setSync(out *outcome, r core.Report) {
	out.set("dataflow.sync_bytes", float64(r.SyncBytes))
	out.set("dataflow.sync_frames", float64(r.SyncFrames))
	if r.SyncFrames > 0 {
		out.set("dataflow.entries_per_frame", float64(r.SyncEntries)/float64(r.SyncFrames))
		out.set("dataflow.acks_per_frame", float64(r.SyncAcks)/float64(r.SyncFrames))
	}
}

// setAnalysis reports the observatory's incident summary of one run,
// in virtual seconds.
func setAnalysis(out *outcome, a observatory.Analysis) {
	out.set("observatory.incidents", float64(len(a.Incidents)))
	out.set("observatory.mttd_p50_s", a.MTTD.P50.Seconds())
	out.set("observatory.mttd_p99_s", a.MTTD.P99.Seconds())
	out.set("observatory.mttr_p50_s", a.MTTR.P50.Seconds())
	out.set("observatory.mttr_p99_s", a.MTTR.P99.Seconds())
}
