//go:build !race

// The race detector makes sync.Pool drop a random share of Puts, so the
// pooled runner this test measures would be rebuilt at random; it runs only
// without -race.

package sim_test

import (
	"context"
	"runtime/debug"
	"testing"

	"repro/sim"
)

// TestPoissonHypercubeSteadyStateAllocs pins the pooled path every Poisson
// hypercube run takes on the slot kernel: once the per-worker runner is warm,
// a run allocates only what it hands back — the scenario copy and normalized
// config, the Result with its hypercube block and per-dimension slices, and
// the Metrics snapshot — however long the horizon.
func TestPoissonHypercubeSteadyStateAllocs(t *testing.T) {
	const resultAllocs = 12
	// A collection may empty the runner pool mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	for _, horizon := range []float64{200, 2000} {
		sc := sim.Scenario{Topology: sim.Hypercube(5), P: 0.5, LoadFactor: 0.6, Horizon: horizon, Seed: 3}
		res, err := sim.Run(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kernel != sim.KernelSlotStepped {
			t.Fatalf("kernel = %s, want %s", res.Kernel, sim.KernelSlotStepped)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := sim.Run(ctx, sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > resultAllocs {
			t.Errorf("horizon %v: a warm run allocates %v times, want at most %d (the Result assembly)",
				horizon, allocs, resultAllocs)
		}
	}
}
