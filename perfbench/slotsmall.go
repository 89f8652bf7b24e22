package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/harness"
	"repro/sim"
)

// slot-small: slotSmallRuns back-to-back runs of one slotted hypercube at
// d=10, ρ=0.5, τ=1, each with its own seed and single-threaded, so the slot
// kernel is all that is timed. Its arc and packet state (about 0.5 MiB)
// stays in a core's cache. Each run yields one result, and the runs' times
// are the latency sample.
//
// slotSmallUnitsPerSecond is the simulated time one host second covered
// when the workload was defined (2-core x86-64 VM). It only turns --seconds
// into a horizon; the work is then fixed, identical on every commit.
const (
	slotSmallD              = 10
	slotSmallUnitsPerSecond = 2400
	// slotSmallRuns is the number of timed runs: enough that ten of them
	// lie beyond the 90th percentile.
	slotSmallRuns = 100
	// setupRepeats is how many times each workload repeats its set-up; the
	// median is setup_s.
	setupRepeats = 5
)

// slotSmallSpec is the workload's spec file for a seed and per-run horizon.
func slotSmallSpec(seed uint64, horizon float64) []byte {
	return fmt.Appendf(nil, `{
  "name": "slot-small",
  "topology": {"kind": "hypercube", "d": %d},
  "p": 0.5,
  "load_factor": 0.5,
  "slotted": true,
  "tau": 1,
  "horizon": %g,
  "seed": %d,
  "skip_per_dimension_stats": true
}`, slotSmallD, horizon, seed)
}

// runSeed is the seed of timed run i; run index runs is the warm-up's.
func runSeed(seed uint64, i int) uint64 { return seed<<8 | uint64(i) }

// slotSmallSetup loads and validates the spec and runs the warm-up, one run
// of the timed size under a seed no timed run uses, which allocates the
// pooled kernel state and fills the caches.
func slotSmallSetup(tr *tracer, spec []byte, warmSeed uint64) (sim.Scenario, error) {
	id := tr.begin("harness.load", 0, 0)
	scs, sw, err := harness.LoadSpecData("slot-small", spec)
	tr.end(id, "")
	if err != nil {
		return sim.Scenario{}, err
	}
	if sw != nil || len(scs) != 1 {
		return sim.Scenario{}, fmt.Errorf("slot-small spec must hold one scenario")
	}
	sc := scs[0]
	sc.Parallelism = 1
	id = tr.begin("sim.validate", 0, 0)
	err = sc.Validate()
	tr.end(id, "")
	if err != nil {
		return sim.Scenario{}, err
	}
	warm := sc
	warm.Seed = warmSeed
	id = tr.begin("sim.warmup", 0, 0)
	_, err = sim.Run(context.Background(), warm)
	tr.end(id, "")
	return sc, err
}

func runSlotSmall(opts options) (*report, error) {
	return slotSmall(opts, float64(slotSmallUnitsPerSecond*opts.seconds)/slotSmallRuns, slotSmallRuns)
}

// slotSmallPass is one timed pass: every run's result and time.
type slotSmallPass struct {
	results []*sim.Result
	latMS   []float64
	wall    float64
}

func slotSmall(opts options, horizon float64, runs int) (*report, error) {
	rep := newReport()
	spec := slotSmallSpec(opts.seed, horizon)
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	var sc sim.Scenario
	setups := make([]float64, setupRepeats)
	for i := range setups {
		if i > 0 {
			// Drop the pooled kernel state (sync.Pool empties after two
			// collections) and hand its pages back, so every repeat pays
			// the same cold allocation a fresh process does.
			runtime.GC()
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if sc, err = slotSmallSetup(tr, spec, runSeed(opts.seed, runs)); err != nil {
			return nil, err
		}
		setups[i] = seconds(time.Since(t0))
	}

	timed := func(tr *tracer) (*slotSmallPass, error) {
		p := &slotSmallPass{results: make([]*sim.Result, runs), latMS: make([]float64, runs)}
		settle()
		t0 := time.Now()
		for i := range runs {
			run := sc
			run.Seed = runSeed(opts.seed, i)
			t := time.Now()
			id := tr.begin("sim.run", 0, 0)
			res, err := sim.Run(context.Background(), run)
			if err != nil {
				return nil, fmt.Errorf("run %d: %w", i, err)
			}
			tr.end(id, res.Kernel)
			p.latMS[i] = ms(time.Since(t))
			p.results[i] = res
		}
		p.wall = seconds(time.Since(t0))
		return p, nil
	}
	// check checks every run and returns the pass's packet-hops and packets.
	check := func(p *slotSmallPass) (hops, packets int64) {
		for i, res := range p.results {
			run := sc
			run.Seed = runSeed(opts.seed, i)
			checkSlotSmall(rep, i, run, res)
			h, n := resultWork(res)
			hops += h
			packets += n
		}
		return hops, packets
	}

	rep.attempted = runs
	plain, err := timed(nil)
	if err != nil {
		return nil, err
	}
	if !opts.trace {
		hops, _ := check(plain)
		rep.set("setup_s", "s", median(setups))
		rep.set("wall_s", "s", plain.wall)
		rep.set("hops_per_s", "hops/s", float64(hops)/plain.wall)
		rep.set("latency_p50_ms", "ms", quantile(plain.latMS, 0.5))
		rep.set("latency_p90_ms", "ms", quantile(plain.latMS, 0.9))
		rep.set("capacity_rps", "req/s", float64(runs)/plain.wall)
		return rep, nil
	}

	gs := startGoStats()
	traced, err := timed(tr)
	if err != nil {
		return nil, err
	}
	gs.finish(rep)
	hops, packets := check(traced)
	lt := tr.aggregate()
	setKernelLayer(rep, "slotsim", lt.self["sim.run/"+sim.KernelSlotStepped], hops, packets)
	setSetupLayers(rep, lt, setupRepeats)
	rep.set("slotsim.mean_hops_over_dp", "ratio", float64(hops)/float64(packets)/(slotSmallD*sc.P))
	rep.set("trace.overhead_frac", "ratio", traced.wall/plain.wall-1)
	return rep, writeTrace(opts, tr)
}

// checkSlotSmall checks the model's identities on timed run i. Arrivals
// are Poisson: the window's slot ticks must carry λ·2^d·τ packets each,
// within 5σ. Mean hops must sit at dp, less what horizon censoring removes
// (see hopsWithin); WithinPaperBounds is checked only when the window is
// at least ten slotted upper bounds long, because a shorter window keeps
// only the fast packets and censoring, not the kernel, decides it.
func checkSlotSmall(rep *report, i int, sc sim.Scenario, res *sim.Result) {
	m := res.Metrics
	d := float64(res.Topology.D)
	dp := d * sc.P
	ticks := math.Floor(sc.Horizon/sc.Tau) - math.Floor((sc.Horizon-measuredWindow(sc))/sc.Tau)
	want := res.Lambda * math.Exp2(d) * sc.Tau * ticks
	if diff := math.Abs(float64(m.Generated) - want); diff > 5*math.Sqrt(want) {
		rep.fail("run %d: %d packets generated, want %.0f ± %.0f (5σ)", i, m.Generated, want, 5*math.Sqrt(want))
	}
	if m.Delivered <= 0 || m.Delivered > m.Generated {
		rep.fail("run %d: delivered %d of %d generated", i, m.Delivered, m.Generated)
	}
	if msg := hopsWithin("mean hops", m.MeanHops, dp, math.Sqrt(dp*(1-sc.P)), m.Delivered, delayScale(sc, res), m.Elapsed); msg != "" {
		rep.fail("run %d: %s", i, msg)
	}
	if res.Kernel != sim.KernelSlotStepped {
		rep.fail("run %d: ran on the %s kernel, want %s", i, res.Kernel, sim.KernelSlotStepped)
	}
	if ub := res.Hypercube.SlottedUpperBound; !math.IsNaN(ub) && m.Elapsed >= 10*ub && !res.WithinPaperBounds {
		rep.fail("run %d: mean delay %.4f outside the paper's bounds", i, res.MeanDelay)
	}
}

// resultWork is a result's simulated work: packet-hops and packets. A
// replicated result carries zeroed Metrics, so its work is the sketch's
// delivered count times the replicated mean hops.
func resultWork(res *sim.Result) (hops, packets int64) {
	if res.Replicated != nil {
		if res.Tail == nil {
			return 0, 0
		}
		return int64(math.Round(float64(res.Tail.Count) * res.Replicated[sim.MetricMeanHops].Mean)), res.Tail.Count
	}
	return int64(math.Round(float64(res.Metrics.Delivered) * res.Metrics.MeanHops)), res.Metrics.Delivered
}

// meanHops is a result's mean path length, replicated or single.
func meanHops(res *sim.Result) float64 {
	if res.Replicated != nil {
		return res.Replicated[sim.MetricMeanHops].Mean
	}
	return res.Metrics.MeanHops
}

// setKernelLayer records a kernel's busy time, work and cost per hop.
func setKernelLayer(rep *report, layer string, busy float64, hops, packets int64) {
	rep.set(layer+".busy_s", "s", busy)
	rep.set(layer+".hops", "count", float64(hops))
	if packets >= 0 {
		rep.set(layer+".packets", "count", float64(packets))
	}
	if hops > 0 {
		rep.set(layer+".ns_per_hop", "ns", busy*1e9/float64(hops))
	}
}

// setSetupLayers records the set-up spans as the mean time per repeat.
func setSetupLayers(rep *report, lt layerTimes, repeats int) {
	for _, name := range []string{"harness.load", "sim.validate", "sim.expand", "sim.warmup"} {
		rep.set(name+"_s", "s", lt.self[name]/float64(repeats))
	}
}
