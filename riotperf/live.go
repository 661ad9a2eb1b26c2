package main

import (
	"runtime/debug"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/observatory"
)

const (
	// liveScale maps virtual onto wall time. At 0.1 the 365-node city
	// saturates two cores and collapses; 0.25 leaves headroom.
	liveScale   = 0.25
	liveHorizon = 3 * time.Minute
)

// liveScenario is the hardened city smoke tier at the workload seed
// under corpus entry ml4-low-persistence-af146e73's schedule: a
// permanent crash of zone 0's actuator. The entry crashes it at 3m37s
// of a 6-minute run; the benchmark keeps that 0.6 share of a shorter
// horizon so one run fits its time budget. The boot transient is a
// fixed stretch of wall time, so a shorter horizon weighs it more: at
// 40 zones and 3 minutes it pushed R below the oracle's floor on 3 of
// 20 runs, at 20 zones never.
func liveScenario(seed int64) core.ScenarioConfig {
	sc := core.CityScenarioSmoke().Hardened()
	sc.Seed = seed
	sc.Zones = 20
	sc.Preset = core.FaultsNone
	sc.Duration = liveHorizon
	sc.Faults = (&fault.Schedule{}).Crash(liveHorizon*3/5, "z0-act", 0)
	return sc
}

// livePass is one live run of the city.
type livePass struct {
	setup, run, hash, analyze time.Duration
	cpu                       time.Duration
	report                    core.Report
	info                      core.LiveInfo
	journalEvents             int
	analysis                  observatory.Analysis
}

// runLivePass boots the city on loopback UDP, runs it to its horizon,
// and judges the outcome with the chaos oracle: the run must pass and
// its whole schedule must arm.
func runLivePass(sc core.ScenarioConfig, tr *tracer, out *outcome) (livePass, error) {
	var p livePass
	var sys *core.System
	var err error
	c0 := cpuTime()
	if perr := tr.phase("setup", func() {
		s := tr.spans().start("NewLiveSystem", 0, 0)
		t0 := time.Now()
		sys, err = core.NewLiveSystem(sc, core.ML4, core.LiveConfig{TimeScale: liveScale})
		p.setup = time.Since(t0)
		s.end()
	}); perr != nil {
		return p, perr
	}
	if err != nil {
		return p, err
	}
	var journal []core.RunEvent
	if perr := tr.phase("run", func() {
		s := tr.spans().start("RunLive", 0, 0)
		t0 := time.Now()
		p.report, p.info, err = sys.RunLive()
		p.run = time.Since(t0)
		s.end()
		if err != nil {
			return
		}
		journal = sys.Journal()
		p.journalEvents = len(journal)
		s = tr.spans().start("JournalHash", 0, 0)
		t0 = time.Now()
		core.JournalHash(journal)
		p.hash = time.Since(t0)
		s.end()
		s = tr.spans().start("Analyze", 0, 0)
		t0 = time.Now()
		p.analysis = observatory.Analyze(journal, observatory.Options{Duration: sc.Duration, Zones: sc.Zones})
		p.analyze = time.Since(t0)
		s.end()
	}); perr != nil {
		return p, perr
	}
	if err != nil {
		return p, err
	}
	p.cpu = cpuTime() - c0
	v := chaos.NewOracle(chaos.Config{Scenario: sc, Archetype: core.ML4}).JudgeLive(p.report, journal)
	out.check(!v.Failed() && p.info.Armed == sc.Faults.Len() && p.info.Skipped == 0,
		"live city: verdict %s, armed %d of %d, skipped %d", v, p.info.Armed, sc.Faults.Len(), p.info.Skipped)
	return p, nil
}

// liveSetupOnly times one NewLiveSystem of the city. The system is run
// for a single environment step only so that RunLive closes its
// sockets.
func liveSetupOnly(sc core.ScenarioConfig) (time.Duration, error) {
	sc.Duration = sc.EnvStep
	sc.Faults = &fault.Schedule{}
	t0 := time.Now()
	sys, err := core.NewLiveSystem(sc, core.ML4, core.LiveConfig{TimeScale: liveScale})
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	_, _, err = sys.RunLive()
	return d, err
}

// runLiveCity runs the live-city workload: four extra timed start-ups,
// then one full live run.
func runLiveCity(o runOpts, out *outcome) error {
	sc := liveScenario(o.seed)
	if o.trace {
		return traceLiveCity(sc, o, out)
	}
	var setups []float64
	for i := 0; i < 4; i++ {
		d, err := liveSetupOnly(sc)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	// Hand the start-up systems' memory back so peak RSS is the run's.
	debug.FreeOSMemory()
	p, err := runLivePass(sc, nil, out)
	if err != nil {
		return err
	}
	setups = append(setups, p.setup.Seconds())
	out.set("setup_s", median(setups))
	out.set("run_s", p.run.Seconds())
	out.set("cpu_s", p.cpu.Seconds())
	out.set("peak_rss_mb", peakRSSMB())
	out.set("net_mb", float64(p.info.Net.SentBytes)/1e6)
	out.set("r_goal", p.report.GoalPersistence)
	return nil
}

// traceLiveCity runs a plain and a traced live run and reports the
// per-layer metrics from the traced one.
func traceLiveCity(sc core.ScenarioConfig, o runOpts, out *outcome) error {
	plain, err := runLivePass(sc, nil, out)
	if err != nil {
		return err
	}
	tr := newTracer(o.outDir)
	p, err := runLivePass(sc, tr, out)
	if err != nil {
		return err
	}
	out.set("simnet.msgs", float64(p.report.Messages))
	out.set("simnet.msgs_per_s", float64(p.report.Messages)/p.run.Seconds())
	out.set("core.runtime_checks", float64(p.report.RuntimeChecks))
	setSync(out, p.report)
	out.set("core.journal_events", float64(p.journalEvents))
	out.set("core.journal_hash_s", p.hash.Seconds())
	out.set("observatory.analyze_s", p.analyze.Seconds())
	setAnalysis(out, p.analysis)
	setNet(out, p.info.Net)
	return tr.finish(out, plain.cpu)
}
