package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The determinism tests run each workload at a reduced size, twice with one
// seed and once with another: every count must repeat exactly for the same
// seed and change with the seed. Inputs are functions of the seed and the
// size alone, never of a measured rate or time.

// countMetrics picks the named metrics out of a traced report.
func countMetrics(t *testing.T, rep *report, names ...string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, n := range names {
		m, ok := rep.metrics[n]
		if !ok {
			t.Fatalf("metric %s missing", n)
		}
		out[n] = m.Value
	}
	return out
}

func checkRepeats(t *testing.T, run func(seed uint64) map[string]float64) {
	t.Helper()
	a, b, c := run(1), run(1), run(2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different counts:\n%v\n%v", a, b)
	}
	for name, v := range a {
		if v == 0 {
			t.Errorf("%s is 0; the workload does no such work", name)
		}
		// Work and bytes depend on every simulated packet, so they must
		// move with the seed; shape counts such as rows need not.
		if c[name] == v && (strings.Contains(name, "hops") || strings.Contains(name, "bytes") || strings.Contains(name, "packets")) {
			t.Errorf("%s = %v for both seeds", name, v)
		}
	}
}

func TestSlotSmallCountsRepeat(t *testing.T) {
	checkRepeats(t, func(seed uint64) map[string]float64 {
		rep, err := slotSmall(options{workload: "slot-small", seed: seed, trace: true, dir: t.TempDir(), traceDir: t.TempDir()}, 60, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.problems) > 0 {
			t.Fatalf("output checks failed: %v", rep.problems)
		}
		return countMetrics(t, rep, "slotsim.hops", "slotsim.packets")
	})
}

func TestSweepMixedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep list three times")
	}
	checkRepeats(t, func(seed uint64) map[string]float64 {
		rep, err := sweepMixed(options{seed: seed, trace: true, dir: t.TempDir(), traceDir: t.TempDir()},
			sweepMixedSpecs(seed, 0.1), serviceRequests(seed, 24, servedJobs))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.problems {
			if bytes.Contains([]byte(p), []byte("differ")) {
				t.Fatalf("traced rendering: %s", p)
			}
		}
		return countMetrics(t, rep, "slotsim.hops", "slotsim.packets", "network.hops", "deflection.hops",
			"engine.replications", "sim.sink.rows", "sim.sink.bytes", "jobs.cache_misses")
	})
}

// TestRequestMix pins the request classes' shares and that a repeat always
// names an earlier direct spec served by the same manager.
func TestRequestMix(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		checkRequestMix(t, seed)
	}
}

func checkRequestMix(t *testing.T, seed uint64) {
	reqs := serviceRequests(seed, 4000, servedJobs)
	if !reflect.DeepEqual(reqs, serviceRequests(seed, 4000, servedJobs)) {
		t.Fatal("request sequence differs for one seed")
	}
	direct := map[string]int{}
	n := map[string]int{}
	for i, r := range reqs {
		n[r.class]++
		switch r.class {
		case classDirect:
			direct[string(r.spec)] = r.worker
		case classRepeat:
			spec := bytes.Replace(r.spec, []byte(`"repeat-`), []byte(`"direct-`), 1)
			w, ok := direct[string(spec)]
			if !ok || w != r.worker {
				t.Fatalf("request %d repeats no earlier direct spec on worker %d", i, r.worker)
			}
		}
	}
	for class, want := range map[string]float64{classDirect: 0.60, classSharded: 0.25, classRepeat: 0.15} {
		if got := float64(n[class]) / float64(len(reqs)); got < want-0.03 || got > want+0.03 {
			t.Errorf("%s share %.3f, want %.2f", class, got, want)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// program prints in step with BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		prog []metricName
	}{{bench.EndToEnd, endToEnd}, {bench.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.file), len(c.prog))
		}
		for i, m := range c.file {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

func TestCoveredUnionsChildren(t *testing.T) {
	parent := span{Start: 0, End: 10}
	kids := []span{{Start: 1, End: 3}, {Start: 2, End: 5}, {Start: 7, End: 8}, {Start: 9, End: 12}}
	if got := covered(parent, kids); got != 6 {
		t.Fatalf("covered = %d, want 6", got)
	}
}
