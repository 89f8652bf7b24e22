package sim_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/sim"
)

// kernelLabel matches the store-and-forward kernel names wherever a result
// rendering carries them: the JSON "kernel" field and the CSV kernel column.
var kernelLabel = strings.NewReplacer(
	sim.KernelSlotStepped, "<kernel>",
	sim.KernelEventDriven, "<kernel>",
)

// TestCrossKernelPoissonHypercube pins the Poisson (continuous-time)
// hypercube on the slot kernel: every variant must render byte-equal result
// JSON, apart from the kernel label, with and without force_event_driven,
// and return bit-identical per-packet delays.
func TestCrossKernelPoissonHypercube(t *testing.T) {
	base := sim.Scenario{
		Topology: sim.Hypercube(4), P: 0.5, LoadFactor: 0.7, Horizon: 400, Seed: 12345,
	}
	cases := []struct {
		name string
		mod  func(*sim.Scenario)
	}{
		{"greedy", func(s *sim.Scenario) {}},
		{"random-order routing", func(s *sim.Scenario) { s.Router = sim.GreedyRandomOrder }},
		{"valiant routing", func(s *sim.Scenario) { s.Router = sim.ValiantTwoPhase; s.LoadFactor = 0.3 }},
		{"unstable", func(s *sim.Scenario) { s.LoadFactor = 1.2 }},
		{"arc_fail_prob", func(s *sim.Scenario) { s.Faults = &sim.FaultSpec{ArcFailProb: 0.02} }},
		{"buffer_capacity", func(s *sim.Scenario) { s.Faults = &sim.FaultSpec{BufferCapacity: 1}; s.LoadFactor = 0.9 }},
		{"outages", func(s *sim.Scenario) {
			s.Faults = &sim.FaultSpec{
				ArcFailProb:    0.01,
				BufferCapacity: 3,
				Outages: []sim.Outage{
					{From: 80, Until: 160, Fraction: 0.25},
					{From: 160, Until: 170, Arcs: []int{0, 1, 2, 5}},
					{From: 200.25, Until: 233.5, Fraction: 0.5},
				},
			}
		}},
		{"track_per_dimension_wait", func(s *sim.Scenario) { s.TrackPerDimensionWait = true }},
		{"population_trace_interval", func(s *sim.Scenario) { s.PopulationTraceInterval = 25 }},
		{"custom_weights", func(s *sim.Scenario) {
			s.LoadFactor = 0
			s.Lambda = 1.0
			s.CustomWeights = []float64{0, 1, 1, 0.5, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 3}
		}},
		{"track_quantiles+return_delays", func(s *sim.Scenario) { s.TrackQuantiles = true; s.ReturnDelays = true }},
		{"tail_quantiles", func(s *sim.Scenario) { s.TailQuantiles = true }},
		{"replications", func(s *sim.Scenario) { s.Replications = 4; s.TailQuantiles = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast := base
			tc.mod(&fast)
			slow := fast
			slow.ForceEventDriven = true
			a, err := sim.Run(context.Background(), fast)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sim.Run(context.Background(), slow)
			if err != nil {
				t.Fatal(err)
			}
			if a.Kernel != sim.KernelSlotStepped || b.Kernel != sim.KernelEventDriven {
				t.Fatalf("kernels: %s vs %s", a.Kernel, b.Kernel)
			}
			ja, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			jb, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			if ma, mb := kernelLabel.Replace(string(ja)), kernelLabel.Replace(string(jb)); ma != mb {
				t.Errorf("result JSON differs beyond the kernel label:\n%s\nvs\n%s", ma, mb)
			}
			if len(a.Delays) != len(b.Delays) {
				t.Fatalf("delay samples: %d vs %d", len(a.Delays), len(b.Delays))
			}
			for i := range a.Delays {
				if math.Float64bits(a.Delays[i]) != math.Float64bits(b.Delays[i]) {
					t.Fatalf("delay %d differs: %v vs %v", i, a.Delays[i], b.Delays[i])
				}
			}
			if fast.Faults != nil && b.Faults.DroppedFault+b.Faults.DroppedOverflow == 0 {
				t.Error("fault variant recorded no drops; the loss path was not exercised")
			}
		})
	}
}

// TestGoldensKernelIndependent re-runs the committed golden sweeps with
// force_event_driven set on the base scenario: the event-driven calendar
// must reproduce every golden byte for byte once the kernel label is masked.
func TestGoldensKernelIndependent(t *testing.T) {
	for _, name := range []string{"sweep-smoke", "quantile-smoke", "fault-sweep"} {
		sw, err := harness.LoadSweep(filepath.Join("..", "specs", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		sw.Base.ForceEventDriven = true
		for _, format := range []string{"csv", "jsonl"} {
			t.Run(fmt.Sprintf("%s/%s", name, format), func(t *testing.T) {
				want, err := os.ReadFile(filepath.Join("..", "specs", "golden", name+"."+format))
				if err != nil {
					t.Fatal(err)
				}
				var got strings.Builder
				var sink sim.RowSink = sim.NewCSVSink(&got)
				if format == "jsonl" {
					sink = sim.NewJSONLSink(&got)
				}
				if _, err := sim.RunSweep(context.Background(), *sw, sink); err != nil {
					t.Fatal(err)
				}
				if strings.Contains(got.String(), sim.KernelSlotStepped) {
					t.Fatal("force_event_driven run still reports the slot kernel")
				}
				if g, w := kernelLabel.Replace(got.String()), kernelLabel.Replace(string(want)); g != w {
					t.Errorf("event-driven output differs from golden %s.%s beyond the kernel label:\n--- got ---\n%s\n--- want ---\n%s",
						name, format, g, w)
				}
			})
		}
	}
}
