package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/sim"
)

// sweep-mixed: the benchmark's own sweeps, shaped like the committed
// sweep-smoke, fault-sweep, quantile-smoke and sweep-load specs. Together
// they run the event-driven kernel (greedy, random-order and valiant
// routing), deflection, and small slotted hypercube and FIFO butterfly
// points with many short replications, every point with tail quantiles on.
// Horizons are sized so that each of the three kernel families takes at
// least about a fifth of the busy time. A served part follows: requests
// through two jobs.Manager daemons and a cluster.Coordinator (service.go).

// sweepParallelism is the sweep worker budget; at most nproc on the 2-core
// host the workload was sized on.
const sweepParallelism = 2

// sweepMixedSpecs returns the workload's sweep specs for a seed. scale
// multiplies every horizon: 1 is the --seconds 20 size.
func sweepMixedSpecs(seed uint64, scale float64) [][]byte {
	h := func(base float64) float64 { return math.Max(20, math.Round(base*scale)) }
	loads := func(vs ...float64) string {
		return strings.Join(strings.Fields(strings.Trim(fmt.Sprint(vs), "[]")), ", ")
	}
	spec := func(i int, name, base, axes string) []byte {
		return fmt.Appendf(nil, `{"name": %q, "base": {%s, "seed": %d, "tail_quantiles": true}, "split_seeds": true, "axes": [%s]}`,
			name, base, seed*100+uint64(i), axes)
	}
	return [][]byte{
		spec(0, "event-routers",
			fmt.Sprintf(`"topology": {"kind": "hypercube", "d": 6}, "p": 0.5, "horizon": %g`, h(5500)),
			`{"field": "router", "values": ["greedy", "random-order"]}, {"field": "load_factor", "values": [`+loads(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)+`]}`),
		spec(1, "event-valiant",
			fmt.Sprintf(`"topology": {"kind": "hypercube", "d": 6}, "p": 0.5, "router": "valiant", "horizon": %g`, h(5500)),
			`{"field": "load_factor", "values": [`+loads(0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)+`]}`),
		spec(2, "event-load",
			fmt.Sprintf(`"topology": {"kind": "hypercube", "d": 7}, "p": 0.5, "horizon": %g`, h(3600)),
			`{"field": "load_factor", "values": [`+loads(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95)+`]}`),
		spec(3, "fault-deflection",
			fmt.Sprintf(`"topology": {"kind": "hypercube", "d": 8}, "p": 0.5, "horizon": %g`, h(900)),
			`{"field": "router", "values": ["greedy", "deflection"]}, {"field": "load_factor", "values": [0.3, 0.6]}, {"field": "arc_fail_prob", "values": [0, 0.02, 0.05, 0.1]}`),
		spec(4, "deflection-load",
			fmt.Sprintf(`"topology": {"kind": "hypercube", "d": 10}, "p": 0.5, "router": "deflection", "horizon": %g`, h(330)),
			`{"field": "load_factor", "values": [`+loads(0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75)+`]}`),
		spec(5, "slot-small",
			fmt.Sprintf(`"topology": {"kind": "hypercube", "d": 8}, "p": 0.5, "slotted": true, "tau": 1, "replications": 8, "horizon": %g`, h(650)),
			`{"field": "load_factor", "values": [`+loads(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)+`]}`),
		spec(6, "butterfly-fifo",
			fmt.Sprintf(`"topology": {"kind": "butterfly", "d": 6}, "p": 0.5, "replications": 8, "horizon": %g`, h(650)),
			`{"field": "load_factor", "values": [`+loads(0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)+`]}`),
		spec(7, "quantile-precision",
			fmt.Sprintf(`"topology": {"kind": "hypercube", "d": 4}, "p": 0.5, "horizon": %g, "precision": {"target_ci": 0.05, "rank_error": 0.05, "batch": 4, "max_replications": 32}`, h(300)),
			`{"field": "load_factor", "values": [`+loads(0.3, 0.45, 0.6, 0.75, 0.9)+`]}`),
	}
}

// sweepMixedScale is the horizon multiplier for a --seconds budget.
func sweepMixedScale(secs int) float64 { return float64(secs) / 20 }

// loadSweeps parses and expands the specs, recording the set-up spans.
func loadSweeps(tr *tracer, specs [][]byte) ([]sim.Sweep, [][]sim.Scenario, error) {
	sws := make([]sim.Sweep, len(specs))
	pts := make([][]sim.Scenario, len(specs))
	for i, spec := range specs {
		id := tr.begin("harness.load", 0, 0)
		_, sw, err := harness.LoadSpecData("sweep-mixed", spec)
		tr.end(id, "")
		if err != nil {
			return nil, nil, err
		}
		if sw == nil {
			return nil, nil, fmt.Errorf("sweep-mixed spec %d is not a sweep", i)
		}
		id = tr.begin("sim.expand", 0, 0)
		pts[i], err = sw.Expand()
		tr.end(id, "")
		if err != nil {
			return nil, nil, err
		}
		sws[i] = *sw
	}
	return sws, pts, nil
}

// sweepOutput is what one pass over the sweep list produced.
type sweepOutput struct {
	rows   []sim.Row
	sweeps []string // the sweep each row belongs to
	jsonl  bytes.Buffer
	csv    bytes.Buffer
	wall   time.Duration
}

func (o *sweepOutput) add(sweep string, rows []sim.Row) {
	o.rows = append(o.rows, rows...)
	for range rows {
		o.sweeps = append(o.sweeps, sweep)
	}
}

// runSweeps is the untraced path: every sweep through sim.RunSweep with a
// JSONL sink, a CSV sink and a checkpoint journal under dir.
func runSweeps(sws []sim.Sweep, dir string) (*sweepOutput, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := &sweepOutput{}
	t0 := time.Now()
	for i, sw := range sws {
		sw.Parallelism = sweepParallelism
		sw.CheckpointPath = filepath.Join(dir, fmt.Sprintf("sweep-%d.ckpt", i))
		csv := sim.NewCSVSink(&out.csv)
		rows, err := sim.RunSweep(context.Background(), sw, sim.NewJSONLSink(&out.jsonl), csv)
		if err != nil {
			return nil, fmt.Errorf("sweep %s: %w", sw.Name, err)
		}
		out.add(sw.Name, rows)
	}
	out.wall = time.Since(t0)
	return out, nil
}

// tracedSink wraps a RowSink with a span around every WriteRow.
type tracedSink struct {
	tr    *tracer
	inner sim.RowSink
	name  string
}

func (s tracedSink) WriteRow(r sim.Row) error {
	id := s.tr.begin(s.name, 0, 0)
	err := s.inner.WriteRow(r)
	s.tr.end(id, "")
	return err
}

// runSweepsTraced is the traced path. RunSweep hides its per-point calls,
// so this runs the expanded points itself — each through sim.Run on
// sweepParallelism workers, exactly as RunSweep prepares them — and streams
// rows in point order to the same sinks and a SweepJournal, with a span
// around every call.
func runSweepsTraced(tr *tracer, sws []sim.Sweep, dir string) (*sweepOutput, error) {
	out := &sweepOutput{}
	settle()
	t0 := time.Now()
	for i, sw := range sws {
		rows, err := sw.ExpandRows()
		if err != nil {
			return nil, err
		}
		j, err := sim.OpenSweepJournal(sw, filepath.Join(dir, fmt.Sprintf("traced-%d.ckpt", i)))
		if err != nil {
			return nil, err
		}
		sinks := []sim.RowSink{
			tracedSink{tr, sim.NewJSONLSink(&out.jsonl), "sim.sink.write"},
			tracedSink{tr, sim.NewCSVSink(&out.csv), "sim.sink.write"},
		}
		var (
			mu    sync.Mutex
			next  int
			done  = make([]bool, len(rows))
			first error
			wg    sync.WaitGroup
		)
		work := make(chan int)
		for w := 0; w < sweepParallelism; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range work {
					sc := rows[k].Scenario
					sc.Parallelism, sc.Progress, sc.Pool = 1, nil, nil
					id := tr.begin("sim.run", 0, 0)
					res, err := sim.Run(context.Background(), sc)
					tag := ""
					if err == nil {
						tag = res.Kernel
					}
					tr.end(id, tag)
					mu.Lock()
					if err == nil {
						rows[k].Result = res
						done[k] = true
						id := tr.begin("sim.journal.append", 0, 0)
						err = j.Record(k, res)
						tr.end(id, "")
					}
					for err == nil && next < len(rows) && done[next] {
						for _, s := range sinks {
							if err = s.WriteRow(rows[next]); err != nil {
								break
							}
						}
						next++
					}
					if err != nil && first == nil {
						first = err
					}
					mu.Unlock()
				}
			}()
		}
		for k := range rows {
			work <- k
		}
		close(work)
		wg.Wait()
		if cerr := j.Close(); first == nil {
			first = cerr
		}
		if first != nil {
			return nil, fmt.Errorf("sweep %s: %w", sw.Name, first)
		}
		out.add(sw.Name, rows)
	}
	out.wall = time.Since(t0)
	return out, nil
}

// servedJobs sizes sweep-mixed's served requests at about 25 ms of
// simulation each, so that compute, not the host's scheduling latency,
// dominates them; servedPerSecond is their count per second of --seconds.
var servedJobs = jobSize{d: 6, horizon: 400}

const servedPerSecond = 8

func runSweepMixed(opts options) (*report, error) {
	return sweepMixed(opts, sweepMixedSpecs(opts.seed, sweepMixedScale(opts.seconds)),
		serviceRequests(opts.seed, servedPerSecond*opts.seconds, servedJobs))
}

func sweepMixed(opts options, specs [][]byte, served []request) (*report, error) {
	rep := newReport()
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	// Set-up: load, validate and expand every spec and request, start the
	// two managers and the coordinator, then a fixed warm-up — the sweep
	// list at a twentieth of the horizon and 8 requests of another seed —
	// so every kernel's pooled state exists before timing. The last
	// repeat's fleet serves the timed phase.
	warmServed := serviceRequests(opts.seed^0x3a3a, 8, servedJobs)
	var sws []sim.Sweep
	var points [][]sim.Scenario
	var fl *fleet
	defer func() {
		if fl != nil {
			fl.stop()
		}
	}()
	setups := make([]float64, setupRepeats)
	for r := range setups {
		if fl != nil {
			fl.stop()
			fl = nil
		}
		t0 := time.Now()
		var err error
		if sws, points, err = loadSweeps(tr, specs); err != nil {
			return nil, err
		}
		if err := parseRequests(tr, served); err != nil {
			return nil, err
		}
		if fl, err = startFleet(filepath.Join(opts.dir, fmt.Sprintf("fleet-%d", r))); err != nil {
			return nil, err
		}
		warm := make([]sim.Sweep, len(sws))
		for i, sw := range sws {
			sw.Base.Horizon = math.Max(10, math.Round(sw.Base.Horizon/20))
			warm[i] = sw
		}
		id := tr.begin("sim.warmup", 0, 0)
		_, err = runSweeps(warm, filepath.Join(opts.dir, fmt.Sprintf("warm-%d", r)))
		for i := 0; err == nil && i < len(warmServed); i++ {
			err = fl.do(nil, i, warmServed[i]).err
		}
		tr.end(id, "")
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups[r] = seconds(time.Since(t0))
	}
	for _, pts := range points {
		rep.attempted += len(pts)
	}
	rep.attempted += len(served)

	var gs *goStats
	if opts.trace {
		gs = startGoStats()
	}
	settle()
	t0 := time.Now()
	plain, err := runSweeps(sws, filepath.Join(opts.dir, "plain"))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	servedOut := fl.closedLoop(nil, served, 0)
	servedWall := seconds(time.Since(t1))
	wall := seconds(time.Since(t0))
	fmt.Fprintf(os.Stderr, "perfbench: sweep-mixed local part %.2f s, served part %.2f s\n", wall-servedWall, servedWall)
	if gs != nil {
		gs.finish(rep)
	}
	checkSweepRows(rep, plain)
	hops := checkService(rep, served, servedOut)
	for _, r := range plain.rows {
		h, _ := resultWork(r.Result)
		hops += h
	}
	if !opts.trace {
		var lat []float64
		for _, o := range servedOut {
			if o.err != nil {
				lat = append(lat, ms(1<<62)) // a failed request misses every limit
				continue
			}
			lat = append(lat, ms(o.latency))
		}
		rep.set("setup_s", "s", median(setups))
		rep.set("wall_s", "s", wall)
		rep.set("hops_per_s", "hops/s", float64(hops)/wall)
		rep.set("latency_p50_ms", "ms", quantile(lat, 0.5))
		rep.set("latency_p90_ms", "ms", quantile(lat, 0.9))
		rep.set("capacity_rps", "req/s", float64(len(served))/servedWall)
		return rep, nil
	}

	tracedDir := filepath.Join(opts.dir, "traced")
	if err := os.MkdirAll(tracedDir, 0o755); err != nil {
		return nil, err
	}
	traced, err := runSweepsTraced(tr, sws, tracedDir)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(plain.jsonl.Bytes(), traced.jsonl.Bytes()) {
		rep.fail("sweep-mixed: JSONL rows from RunSweep and from the per-point rendering differ")
	}
	if !bytes.Equal(plain.csv.Bytes(), traced.csv.Bytes()) {
		rep.fail("sweep-mixed: CSV rows from RunSweep and from the per-point rendering differ")
	}
	// The traced requests run on a fresh fleet, so they do the same work
	// (no finished jobs or cached points from the untraced pass).
	fleetDir := filepath.Join(opts.dir, "fleet-traced")
	tfl, err := startFleet(fleetDir)
	if err != nil {
		return nil, err
	}
	before := tfl.counters()
	settle()
	t2 := time.Now()
	tracedOut := tfl.closedLoop(tr, served, 0)
	tracedServed := seconds(time.Since(t2))
	after := tfl.counters()
	tfl.stop()
	checkService(rep, served, tracedOut)

	lt := tr.aggregate()
	kernelWork := map[string][2]int64{}
	reps := 0
	for _, r := range traced.rows {
		h, p := resultWork(r.Result)
		w := kernelWork[r.Result.Kernel]
		kernelWork[r.Result.Kernel] = [2]int64{w[0] + h, w[1] + p}
		switch {
		case r.Result.Precision != nil:
			reps += r.Result.Precision.Replications
		case r.Scenario.Replications > 1:
			reps += r.Scenario.Replications
		default:
			reps++
		}
	}
	for layer, kernel := range map[string]string{
		"slotsim": sim.KernelSlotStepped, "network": sim.KernelEventDriven, "deflection": sim.KernelDeflection,
	} {
		w := kernelWork[kernel]
		packets := int64(-1)
		if layer == "slotsim" {
			packets = w[1]
		}
		setKernelLayer(rep, layer, lt.self["sim.run/"+kernel], w[0], packets)
	}
	rep.set("engine.replications", "count", float64(reps))
	// Busy and wall time both come from the traced pass.
	rep.set("engine.idle_frac", "ratio", 1-lt.self["sim.run"]/(seconds(traced.wall)*sweepParallelism))
	rep.set("sim.sink.write_s", "s", lt.self["sim.sink.write"])
	rep.set("sim.sink.rows", "count", float64(len(traced.rows)))
	rep.set("sim.sink.bytes", "bytes", float64(traced.jsonl.Len()+traced.csv.Len()))
	rep.set("sim.journal.append_s", "s", lt.self["sim.journal.append"])
	rep.set("sim.journal.bytes", "bytes", float64(dirBytes(tracedDir)))
	setSetupLayers(rep, lt, setupRepeats)
	setServiceLayers(rep, lt, tracedOut, before, after, dirBytes(fleetDir))
	rep.set("trace.overhead_frac", "ratio", (seconds(traced.wall)+tracedServed)/wall-1)
	return rep, writeTrace(opts, tr)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// checkSweepRows checks the paper's identities on every point.
func checkSweepRows(rep *report, out *sweepOutput) {
	for i, r := range out.rows {
		if msg := checkPoint(r.Scenario, r.Result); msg != "" {
			rep.fail("%s point %d: %s", out.sweeps[i], r.Point, msg)
		}
	}
}

// checkPoint returns why a point's result violates the model, or "".
func checkPoint(sc sim.Scenario, res *sim.Result) string {
	if res == nil {
		return "no result"
	}
	hops, packets := resultWork(res)
	if packets <= 0 || hops <= 0 {
		return fmt.Sprintf("no delivered work (%d packets, %d hops)", packets, hops)
	}
	d := float64(res.Topology.D)
	mh := meanHops(res)
	delay := delayScale(sc, res)
	window := measuredWindow(sc)
	switch {
	case res.Butterfly != nil:
		if math.Abs(mh-d) > 1e-9 {
			return fmt.Sprintf("butterfly mean hops %.6f, want exactly d=%g", mh, d)
		}
	case res.Deflection != nil:
		dp := d * sc.P
		if sc.Faults != nil {
			// Faults drop long trips more often, so the delivered packets'
			// shortest paths can only be shorter than dp.
			return hopsWithin("mean shortest path", res.Deflection.MeanShortest, dp, 0, packets, 1, 0)
		}
		if msg := hopsWithin("mean shortest path", res.Deflection.MeanShortest, dp, math.Sqrt(dp*(1-sc.P)), packets, delay, window); msg != "" {
			return msg
		}
		if mh < res.Deflection.MeanShortest-1e-9 {
			return fmt.Sprintf("mean hops %.4f below the mean shortest path %.4f", mh, res.Deflection.MeanShortest)
		}
	case sc.Router == sim.ValiantTwoPhase:
		// Two independent legs: to a uniform intermediate node, then on.
		return hopsWithin("valiant mean hops", mh, d/2+d*sc.P, math.Sqrt(d/4+d*sc.P*(1-sc.P)), packets, delay, window)
	default:
		// A hop survives a transient fault with probability 1−f, so the
		// delivered packets flip each bit with p' = p(1−f)/(1−pf).
		p := sc.P
		if sc.Faults != nil {
			f := sc.Faults.ArcFailProb
			p = p * (1 - f) / (1 - sc.P*f)
		}
		if msg := hopsWithin("mean hops", mh, d*p, math.Sqrt(d*p*(1-p)), packets, delay, window); msg != "" {
			return msg
		}
		if f := res.Faults; f != nil && sc.Faults != nil && sc.Router == sim.GreedyDimensionOrder {
			want := math.Pow(1-sc.P*sc.Faults.ArcFailProb, d)
			n := float64(f.Delivered + f.DroppedFault)
			if sd := math.Sqrt(want * (1 - want) / n); math.Abs(f.DeliveryRatio-want) > 5*sd+1e-12 {
				return fmt.Sprintf("delivery ratio %.5f, want (1-pf)^d=%.5f ± %.5f (5σ)", f.DeliveryRatio, want, 5*sd)
			}
		}
	}
	return ""
}

// delayScale is the mean delay the censoring allowance is based on: the
// measured one, or the paper's upper bound for greedy hypercube routing when
// that is larger, since censoring biases the measured delay low too.
func delayScale(sc sim.Scenario, res *sim.Result) float64 {
	delay := res.MeanDelay
	if res.Replicated != nil {
		delay = res.Replicated[sim.MetricMeanDelay].Mean
	}
	if h := res.Hypercube; h != nil && sc.Router == sim.GreedyDimensionOrder {
		ub := h.GreedyUpperBound
		if sc.Slotted {
			ub = h.SlottedUpperBound
		}
		if !math.IsNaN(ub) {
			delay = math.Max(delay, ub)
		}
	}
	return delay
}

// measuredWindow is the length of a scenario's measurement window.
func measuredWindow(sc sim.Scenario) float64 {
	wf := sc.WarmupFraction
	if wf == 0 {
		wf = 0.2
	}
	return sc.Horizon * (1 - wf)
}

// hopsWithin checks a mean path length against its exact expectation want:
// within 1% plus six standard errors (sd is one packet's standard
// deviation) above, and as far below as horizon censoring can reach. The
// window keeps only packets generated and delivered inside it (ROADMAP
// item 1), which drops long trips first; to first order the relative bias
// is Var(hops)/E[hops]² times the mean delay over the window length, and
// the allowance takes the delay ratio alone, which is larger whenever
// dp > 1−p.
func hopsWithin(what string, got, want, sd float64, packets int64, delay, window float64) string {
	se := 6 * sd / math.Sqrt(float64(packets))
	censored := math.Min(1, delay/window)
	if lo, hi := want*(0.99-censored)-se, want*1.01+se; got < lo || got > hi {
		return fmt.Sprintf("%s %.4f outside [%.4f, %.4f] around %.4f", what, got, lo, hi, want)
	}
	return ""
}
