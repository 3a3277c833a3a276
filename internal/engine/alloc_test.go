package engine

import (
	"context"
	"testing"
)

// Allocation-regression tests: the replication hot path was rebuilt to
// be allocation-free per pattern and allocation-lean per fan-out (from
// 519 allocs per ReplicatePatternParallel call in the per-call-pool
// design). These pins run in regular CI — unlike benchmarks, they fail
// the build on regression rather than just recording a number.

// TestRunPatternNoAllocs pins the per-pattern simulation loop at zero
// heap allocations.
func TestRunPatternNoAllocs(t *testing.T) {
	p := benchPattern(t)
	p.RunPattern() // warm any lazy state before measuring
	if allocs := testing.AllocsPerRun(200, func() { p.RunPattern() }); allocs != 0 {
		t.Errorf("RunPattern allocates %.0f times per pattern, want 0", allocs)
	}
}

// fanOutAllocBudget bounds one full 64-chunk parallel replication call:
// chunk accumulators, the fan-out task and channel, recruited-goroutine
// overhead and the final estimate. Measured at ~4; the budget leaves
// headroom for scheduler noise while still catching any return to
// per-chunk construction (which costs hundreds).
const fanOutAllocBudget = 100

func TestReplicatePatternParallelAllocBudget(t *testing.T) {
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	costs := Costs{C: 6, V: 1.5, R: 6, LambdaS: 1e-4}
	run := func() {
		if _, err := ReplicatePatternParallel(plan, costs, testModel(), 1, 1000, 0); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the shared executor and scratch pools
	if allocs := testing.AllocsPerRun(10, run); allocs > fanOutAllocBudget {
		t.Errorf("ReplicatePatternParallel allocates %.0f times per call, budget %d", allocs, fanOutAllocBudget)
	}
}

// scenarioAllocBudget bounds one full 50-run pooled scenario
// replication call: the campaign context (prototype workload, initial
// state, pattern sizes), the fan-out machinery, and nothing per run —
// every per-run component comes from the scratch pool and is reset in
// place. Measured at ~19 (from 2360 in the build-per-run design); the
// budget leaves headroom for scheduler noise while still catching any
// return to per-run App construction.
const scenarioAllocBudget = 64

func TestReplicateScenarioAllocBudget(t *testing.T) {
	sc := testScenario()
	run := func() {
		if _, err := ReplicateScenario(sc, 1, 50, 0); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the shared executor and scenario scratch pool
	if allocs := testing.AllocsPerRun(10, run); allocs > scenarioAllocBudget {
		t.Errorf("ReplicateScenario allocates %.0f times per call, budget %d", allocs, scenarioAllocBudget)
	}
}

// scenarioPerNodeAllocBudget bounds the same 50-run call on the
// per-node two-level composition: the pooled per-node process reseeds
// its streams in place, so nothing is allocated per run there either.
const scenarioPerNodeAllocBudget = 64

func TestReplicateScenarioPerNodeAllocBudget(t *testing.T) {
	sc := perNodeBenchScenario()
	run := func() {
		if _, err := ReplicateScenario(sc, 1, 50, 0); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs > scenarioPerNodeAllocBudget {
		t.Errorf("per-node ReplicateScenario allocates %.0f times per call, budget %d", allocs, scenarioPerNodeAllocBudget)
	}
}

// TestChunkFanOutAllocBudget bounds the executor fan-out machinery alone
// (no simulation): the per-call cost of dispatching 64 no-op chunks.
func TestChunkFanOutAllocBudget(t *testing.T) {
	e := SharedExecutor()
	run := func() {
		if err := e.FanOut(context.Background(), 64, 4, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs > 32 {
		t.Errorf("FanOut allocates %.0f times per call, budget 32", allocs)
	}
}
