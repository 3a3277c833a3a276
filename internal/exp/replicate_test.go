package exp

import (
	"fmt"
	"math"
	"testing"

	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/platform"
	"respeed/internal/rngx"
	"respeed/internal/workload"
)

func wantBits(t *testing.T, name string, got float64, want string) {
	t.Helper()
	g := fmt.Sprintf("0x%016x", math.Float64bits(got))
	if g != want {
		t.Errorf("%s: got %s (%v), want %s", name, g, got, want)
	}
}

func twoLevelConfig(lambdaS, lambdaF float64, k int) engine.TwoLevelConfig {
	return engine.TwoLevelConfig{
		Plan:      engine.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     engine.Costs{V: 15.4, R: 30, LambdaS: lambdaS, LambdaF: lambdaF},
		MemC:      20,
		DiskC:     300,
		DiskR:     300,
		DiskEvery: k,
		Model:     energy.Model{Kappa: 1550, Pidle: 60, Pio: 5.23},
		TotalWork: 1000, // 20 patterns
	}
}

func streamRunner() *engine.Runner { return engine.FromWorkload(workload.NewStream(9, 8)) }

// TestGoldenReplicateTwoLevel pins the per-replicate makespans behind
// replicateTwoLevel's "twolevel/%d" streams. The individual runs are
// the equivalence surface; the aggregate is checked against the same
// runs with a small relative tolerance so the estimator may switch
// from a plain sum to Welford without invalidating the golden.
func TestGoldenReplicateTwoLevel(t *testing.T) {
	cfg := twoLevelConfig(5e-4, 2e-3, 4)

	const n = 40
	var sum float64
	for i := 0; i < n; i++ {
		rep, err := cfg.Run(streamRunner(), rngx.NewStream(107, fmt.Sprintf("twolevel/%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		sum += rep.Makespan
	}
	wantBits(t, "sumMean", sum/n, "0x40c46b0b49ef531f")

	est, err := replicateTwoLevel(cfg, streamRunner, 107, n)
	if err != nil {
		t.Fatal(err)
	}
	mean := est.Time.Mean
	if rel := math.Abs(mean-sum/n) / (sum / n); rel > 1e-12 {
		t.Errorf("aggregate mean: got %v, want %v (rel err %g)", mean, sum/n, rel)
	}
}

func TestTwoLevelKTradeoff(t *testing.T) {
	// Small k: many expensive disk checkpoints. Large k: long rollbacks.
	// With frequent crashes, the mean makespan over k must not be
	// monotone-decreasing through k=1..12 — there is an interior trade-off
	// (k=1 pays maximal checkpoint cost, k=12 maximal rollback cost).
	mean := func(k int) float64 {
		cfg := twoLevelConfig(0, 2e-3, k)
		est, err := replicateTwoLevel(cfg, streamRunner, 7, 60)
		if err != nil {
			t.Fatal(err)
		}
		if est.Energy.Mean <= 0 || est.Time.StdDev < 0 {
			t.Fatalf("estimate not aggregated: %+v", est)
		}
		return est.Time.Mean
	}
	m1, m4, m20 := mean(1), mean(4), mean(20)
	if !(m4 < m1) {
		t.Errorf("k=4 (%.0f) should beat k=1 (%.0f): disk checkpoints are expensive", m4, m1)
	}
	if !(m4 < m20) {
		t.Errorf("k=4 (%.0f) should beat k=20 (%.0f): rollbacks are expensive", m4, m20)
	}
}

// heraCluster is the node-level Hera/XScale setup: n uniform nodes
// sharing the platform silent rate boosted by boost, the aggregate
// pattern W=2764 at (0.4, 0.8), and the platform costs and power model.
func heraCluster(n int, boost float64) ([]engine.Node, engine.Plan, engine.Costs, energy.Model, core.Params) {
	cfg, _ := platform.ByName("Hera/XScale")
	p := core.FromConfig(cfg)
	p.Lambda *= boost
	return engine.UniformNodes(n, p.Lambda, 0),
		engine.Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8},
		engine.Costs{C: p.C, V: p.V, R: p.R},
		energy.Model{Kappa: p.Kappa, Pidle: p.Pidle, Pio: p.Pio},
		p
}

// TestGoldenClusterReplicate pins replicateCluster bit-for-bit against
// the pre-engine cluster simulator.
func TestGoldenClusterReplicate(t *testing.T) {
	nodes, plan, costs, model, _ := heraCluster(4, 150)
	nodes = engine.UniformNodes(4, nodes[0].SilentRate*4, 2e-5)
	est, err := replicateCluster(nodes, plan, costs, model, 201, 300)
	if err != nil {
		t.Fatal(err)
	}
	wantBits(t, "time.mean", est.Time.Mean, "0x40dc3252b336c955")
	wantBits(t, "time.stddev", est.Time.StdDev, "0x40d27e18758ba316")
	wantBits(t, "energy.mean", est.Energy.Mean, "0x41719df7294d4553")
	wantBits(t, "meanAttempts", est.MeanAttempts, "0x401c0a3d70a3d70a")
}

// TestAggregationTheorem checks the aggregation argument: a cluster of
// N nodes with per-node rate λ/N must match the single-machine
// aggregate-model expectation (Proposition 2 with rate λ), because the
// union of independent Poisson processes is a Poisson process with the
// summed rate.
func TestAggregationTheorem(t *testing.T) {
	for _, n := range []int{1, 4, 32} {
		nodes, plan, costs, model, p := heraCluster(n, 100)
		est, err := replicateCluster(nodes, plan, costs, model, 42, 30000)
		if err != nil {
			t.Fatal(err)
		}
		want := p.ExpectedTime(plan.W, plan.Sigma1, plan.Sigma2)
		if d := math.Abs(est.Time.Mean - want); d > 4*est.Time.StdErr {
			t.Errorf("%d nodes: cluster mean %g vs aggregate %g (Δ=%g, 4se=%g)",
				n, est.Time.Mean, want, d, 4*est.Time.StdErr)
		}
		wantE := p.ExpectedEnergy(plan.W, plan.Sigma1, plan.Sigma2)
		if d := math.Abs(est.Energy.Mean - wantE); d > 4*est.Energy.StdErr {
			t.Errorf("%d nodes: cluster energy %g vs aggregate %g", n, est.Energy.Mean, wantE)
		}
	}
}

func TestAggregationWithFailStop(t *testing.T) {
	// Same theorem with both error sources, against the Section 5
	// recursion.
	nodes, plan, costs, model, p := heraCluster(8, 100)
	cp := p.Split(0.4)
	for i := range nodes {
		nodes[i].SilentRate = cp.LambdaS / float64(len(nodes))
		nodes[i].FailStopRate = cp.LambdaF / float64(len(nodes))
	}
	est, err := replicateCluster(nodes, plan, costs, model, 7, 30000)
	if err != nil {
		t.Fatal(err)
	}
	want := cp.ExpectedTimeCombined(plan.W, plan.Sigma1, plan.Sigma2)
	if d := math.Abs(est.Time.Mean - want); d > 4*est.Time.StdErr {
		t.Errorf("cluster %g vs combined recursion %g (Δ=%g, 4se=%g)",
			est.Time.Mean, want, d, 4*est.Time.StdErr)
	}
}

func TestClusterDeterminism(t *testing.T) {
	nodes, plan, costs, model, _ := heraCluster(4, 100)
	a, err := replicateCluster(nodes, plan, costs, model, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replicateCluster(nodes, plan, costs, model, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time.Mean != b.Time.Mean {
		t.Error("same-seed cluster runs differ")
	}
}

func TestReplicateRejectsBadInput(t *testing.T) {
	nodes, plan, costs, model, _ := heraCluster(2, 1)
	if _, err := replicateCluster(nodes, plan, costs, model, 1, 0); err == nil {
		t.Error("cluster: n=0 should be rejected")
	}
	rated := costs
	rated.LambdaS = 1e-6
	if _, err := replicateCluster(nodes, plan, rated, model, 1, 10); err == nil {
		t.Error("cluster: platform-level rates should be rejected")
	}
	if _, err := replicateTwoLevel(twoLevelConfig(0, 0, 4), streamRunner, 1, 0); err == nil {
		t.Error("two-level: n=0 should be rejected")
	}
}
