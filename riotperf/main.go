// Command riotperf is the repository benchmark. It runs one named
// workload against the riot packages' exported API, checks the
// workload's outputs, and prints its metrics as one JSON object on the
// last line of standard output:
//
//	riotperf --workload city|serve|live-city --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics BENCHMARK.json
// names, measured with tracing off. With --trace 1 it runs the
// workload twice, once plain and once under CPU profiling with spans,
// and reports the per-layer metrics. run.sh builds and runs it; see
// README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runOpts is what every workload receives.
type runOpts struct {
	seed   int64
	budget time.Duration // how long the run measures
	trace  bool
	outDir string // where a traced run writes its spans and profiles
}

// outcome is what a workload hands back: the values it measured, by
// metric name, and the tally of its output checks.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// check counts one checked operation and reports a failed one on
// standard error.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}

// tally counts attempted operations of which failed failed.
func (o *outcome) tally(attempted, failed int, what string) {
	o.attempted += attempted
	o.failed += failed
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "check failed: %d of %d %s\n", failed, attempted, what)
	}
}

type workloadFunc func(runOpts, *outcome) error

var workloads = map[string]workloadFunc{
	"city":      runCity,
	"serve":     runServe,
	"live-city": runLiveCity,
}

// spec is the part of BENCHMARK.json this program reads: the metric
// names it must print and their units.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "riotperf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("riotperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: city, serve or live-city")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
	outDir := fs.String("out", ".bench_build/trace", "directory for a traced run's spans and profiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	opts := runOpts{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		outDir: filepath.Join(*outDir, *name)}
	if opts.trace {
		// Start from an empty directory so no profile of an earlier run
		// is mistaken for this one's.
		if err := os.RemoveAll(opts.outDir); err != nil {
			return err
		}
		if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
			return err
		}
	}

	host := startHost()
	out := newOutcome()
	if err := wl(opts, out); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	hs := host.stop()
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d go=%s steal=%.4f\n", hs.nproc, hs.gomaxprocs, hs.goVersion, hs.steal)
	if opts.trace {
		out.set("host.steal_frac", hs.steal)
		out.set("host.nproc", float64(hs.nproc))
		out.set("host.gomaxprocs", float64(hs.gomaxprocs))
	}

	want := sp.EndToEnd
	if opts.trace {
		want = sp.PerLayer
	}
	res, err := buildResult(want, out, opts.trace)
	if err != nil {
		return err
	}
	printMetrics(stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func readSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// buildResult matches the measured values against the metric list.
// Every end-to-end metric must have been measured. A per-layer metric
// a workload never touches reads zero: that layer did no work in it.
// A measured value the list does not name is a bug in this program.
func buildResult(want []specMetric, out *outcome, zeroFill bool) (result, error) {
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, m := range want {
		v, ok := out.values[m.Name]
		if !ok && !zeroFill {
			return res, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range out.values {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("measured metric %s is not listed in the benchmark definition", name)
		}
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	return res, nil
}

// printMetrics writes one human-readable line per metric.
func printMetrics(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "checks: correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
