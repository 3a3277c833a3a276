package engine

import (
	"math"
	"testing"

	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/platform"
)

// Node-level pattern tests: the per-node fault process under the
// platform-level (combined compute+verify) billing, on Hera/XScale
// costs.

// heraCluster splits the Hera/XScale silent rate, boosted by boost,
// evenly over n nodes.
func heraCluster(n int, boost float64) ([]Node, core.Params) {
	cfg, _ := platform.ByName("Hera/XScale")
	p := core.FromConfig(cfg)
	p.Lambda *= boost
	return UniformNodes(n, p.Lambda, 0), p
}

// clusterPattern builds the node-level pattern engine over Hera/XScale
// costs: node i draws from the substream (seed, "cluster/node-<i>").
func clusterPattern(t testing.TB, nodes []Node, seed uint64) (*PatternEngine, *PerNodeFaults) {
	t.Helper()
	_, p := heraCluster(1, 1)
	fp, err := NewPerNodeFaults(nodes, seed, "cluster")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewPatternEngine(PatternConfig{
		Plan:          Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8},
		Costs:         Costs{C: p.C, V: p.V, R: p.R},
		Faults:        fp,
		Recorder:      NewSumRecorder(energy.Model{Kappa: p.Kappa, Pidle: p.Pidle, Pio: p.Pio}),
		CombineVerify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, fp
}

func TestUniformSplit(t *testing.T) {
	nodes := UniformNodes(8, 8e-4, 4e-4)
	if len(nodes) != 8 {
		t.Fatalf("nodes %d", len(nodes))
	}
	var silent, fail, share float64
	for _, n := range nodes {
		silent += n.SilentRate
		fail += n.FailStopRate
		share += n.SpeedShare
	}
	if math.Abs(silent-8e-4) > 1e-18 || math.Abs(fail-4e-4) > 1e-18 {
		t.Errorf("rates don't sum: %g, %g", silent, fail)
	}
	if math.Abs(share-1) > 1e-12 {
		t.Errorf("shares sum to %g", share)
	}
}

func TestValidateNodes(t *testing.T) {
	good, _ := heraCluster(4, 1)
	if err := ValidateNodes(good); err != nil {
		t.Fatal(err)
	}
	if err := ValidateNodes(nil); err == nil {
		t.Error("empty node list should fail")
	}
	bad := UniformNodes(4, 1e-6, 0)
	bad[0].SpeedShare = 0.5 // shares no longer sum to 1
	if err := ValidateNodes(bad); err == nil {
		t.Error("bad speed shares should fail")
	}
	bad = UniformNodes(2, 1e-6, 0)
	bad[1].SilentRate = -1
	if err := ValidateNodes(bad); err == nil {
		t.Error("negative node rate should fail")
	}
}

func TestPerNodeErrorBalance(t *testing.T) {
	// Identical nodes must absorb statistically equal error counts.
	nodes, _ := heraCluster(4, 300)
	s, fp := clusterPattern(t, nodes, 5)
	silent := 0
	for i := 0; i < 20000; i++ {
		silent += s.RunPattern().SilentErrors
	}
	perNode := fp.PerNodeErrors()
	total := 0
	for _, c := range perNode {
		total += c
	}
	if total == 0 {
		t.Fatal("no errors recorded")
	}
	want := float64(total) / float64(len(perNode))
	for i, c := range perNode {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("node %d absorbed %d errors, want ≈ %.0f", i, c, want)
		}
	}
	if silent != total {
		t.Errorf("silent %d vs per-node sum %d", silent, total)
	}
}

func TestHeterogeneousRates(t *testing.T) {
	// One flaky node carrying most of the error rate must absorb most of
	// the errors.
	nodes, p := heraCluster(4, 300)
	lam := p.Lambda
	nodes[0].SilentRate = lam * 0.7
	for i := 1; i < 4; i++ {
		nodes[i].SilentRate = lam * 0.1
	}
	s, fp := clusterPattern(t, nodes, 11)
	for i := 0; i < 10000; i++ {
		s.RunPattern()
	}
	perNode := fp.PerNodeErrors()
	total := 0
	for _, c := range perNode {
		total += c
	}
	if total == 0 {
		t.Fatal("no errors")
	}
	frac := float64(perNode[0]) / float64(total)
	if math.Abs(frac-0.7) > 0.05 {
		t.Errorf("flaky node absorbed %.2f of errors, want ≈ 0.70", frac)
	}
}
