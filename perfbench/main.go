// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one workload per invocation, generated from --seed:
//
//	slot-small    100 back-to-back d=10 slotted hypercube runs:
//	              harness → sim → slotsim
//	sweep-mixed   a fixed list of sweeps through sim.RunSweep (event-driven,
//	              deflection and small slot-stepped points, sinks, journal),
//	              then jobs served by two jobs.Manager daemons and a
//	              cluster.Coordinator on loopback
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics taken from spans the benchmark records around each
// layer's public calls. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See NOTES.md.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload slot-small --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// options are the command-line arguments shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// dir is the run's private directory under .bench_build for daemon
	// state, checkpoints and journals, removed when the run ends.
	dir string
	// traceDir receives the traced run's spans.
	traceDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back to main.
type report struct {
	attempted int
	failed    int
	// problems lists every failed output check; any entry makes the run
	// incorrect.
	problems []string
	metrics  map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer list every metric with its unit, in the order of
// BENCHMARK.json. An untraced run prints every endToEnd metric; a traced
// run prints every perLayer metric, 0 where the layer does not run.
var endToEnd = []metricName{
	{"setup_s", "s"}, {"wall_s", "s"}, {"hops_per_s", "hops/s"},
	{"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"}, {"capacity_rps", "req/s"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricName{
	{"slotsim.busy_s", "s"}, {"slotsim.hops", "count"}, {"slotsim.packets", "count"},
	{"slotsim.ns_per_hop", "ns"}, {"slotsim.mean_hops_over_dp", "ratio"},
	{"go.heap_peak_mb", "MiB"}, {"go.alloc_mb", "MiB"}, {"go.gc_cycles", "count"},
	{"network.busy_s", "s"}, {"network.hops", "count"}, {"network.ns_per_hop", "ns"},
	{"deflection.busy_s", "s"}, {"deflection.hops", "count"}, {"deflection.ns_per_hop", "ns"},
	{"engine.replications", "count"}, {"engine.idle_frac", "ratio"},
	{"sim.sink.write_s", "s"}, {"sim.sink.rows", "count"}, {"sim.sink.bytes", "bytes"},
	{"sim.journal.append_s", "s"}, {"sim.journal.bytes", "bytes"},
	{"harness.load_s", "s"}, {"sim.validate_s", "s"}, {"sim.expand_s", "s"}, {"sim.warmup_s", "s"},
	{"jobs.submit_ms", "ms"}, {"jobs.first_row_ms", "ms"}, {"jobs.stream_ms", "ms"},
	{"jobs.cache_hits", "count"}, {"jobs.cache_misses", "count"}, {"jobs.rejected", "count"},
	{"jobs.state_bytes", "bytes"},
	{"cluster.run_ms", "ms"}, {"cluster.shards", "count"}, {"cluster.retries", "count"},
	{"trace.overhead_frac", "ratio"},
}

type metricName struct{ name, unit string }

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts options) (*report, error){
	"slot-small":  runSlotSmall,
	"sweep-mixed": runSweepMixed,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opts options
	var traceFlag int
	fs.StringVar(&opts.workload, "workload", "", "workload to run: slot-small or sweep-mixed")
	fs.Uint64Var(&opts.seed, "seed", 1, "workload seed")
	fs.IntVar(&opts.seconds, "seconds", 30, "target length of the timed phase; sets the fixed amount of work")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[opts.workload]
	if !ok || opts.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (slot-small|sweep-mixed), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	opts.trace = traceFlag == 1
	build, err := buildDir()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	opts.traceDir = filepath.Join(build, "traces")
	pattern := fmt.Sprintf("state-%s-%d-", opts.workload, opts.seed)
	if opts.dir, err = os.MkdirTemp(build, pattern); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(opts.dir)
	// A run stopped by a signal still removes its state.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			os.RemoveAll(opts.dir)
			os.Exit(1)
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()

	printHeader(opts)
	rep, err := runner(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s\n", p)
	}
	if opts.trace {
		for _, m := range perLayer {
			if _, ok := rep.metrics[m.name]; !ok {
				rep.set(m.name, m.unit, 0) // the layer does not run in this workload
			}
		}
	} else {
		rep.set("peak_rss_mb", "MiB", peakRSSMiB())
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0 && rep.failed == 0, rep.attempted, rep.failed, rep.metrics}
	want := endToEnd
	if opts.trace {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := rep.metrics[m.name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report %s\n", opts.workload, m.name)
			return 1
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// buildDir is .bench_build in the current directory, which must be the
// repository root.
func buildDir() (string, error) {
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		return "", err
	}
	return build, os.MkdirAll(build, 0o755)
}

// printHeader prints the run's provenance as one JSON line.
func printHeader(opts options) {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	hdr := map[string]any{
		"benchmark":  "perfbench",
		"workload":   opts.workload,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     os.Getenv("PERFBENCH_SOURCE"),
	}
	line, _ := json.Marshal(map[string]any{"header": hdr})
	fmt.Println(string(line))
}

// writeTrace stores the run's spans as .bench_build/traces/<workload>-<seed>.jsonl.
func writeTrace(opts options, tr *tracer) error {
	if err := os.MkdirAll(opts.traceDir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(opts.traceDir, fmt.Sprintf("%s-%d.jsonl", opts.workload, opts.seed)))
}

// peakRSSMiB is the process's peak resident set size (getrusage maxrss,
// which Linux reports in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (rank q·(n−1)); NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
