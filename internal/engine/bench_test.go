// Benchmarks for the unified engine: the abstract pattern executor, the
// full-stack application executor, the composed scenarios, and the
// parallel replication path. BENCH_engine.json at the repo root pins a
// baseline of these numbers; CI runs them in -benchtime=1x smoke mode.
package engine

import (
	"fmt"
	"testing"

	"respeed/internal/rngx"
)

// benchPattern builds the abstract pattern engine with frequent errors
// so re-execution paths are exercised (shared with the allocation pins).
func benchPattern(b testing.TB) *PatternEngine {
	b.Helper()
	rng := rngx.NewStream(42, "bench")
	p, err := NewPatternEngine(PatternConfig{
		Plan:     Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8},
		Costs:    Costs{C: 6, V: 1.5, R: 6, LambdaS: 1e-4},
		Faults:   NewAggregateFaults(1e-4, 0, rng),
		Recorder: NewSumRecorder(testModel()),
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkPatternEngineRun(b *testing.B) {
	p := benchPattern(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := p.RunPattern(); res.Attempts < 1 {
			b.Fatal("no attempt")
		}
	}
}

func BenchmarkReplicatePatternParallel(b *testing.B) {
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	costs := Costs{C: 6, V: 1.5, R: 6, LambdaS: 1e-4}
	// Warm the shared executor and lane-scratch pools: this benchmark is
	// alloc-gated in CI's -benchtime=1x smoke mode, where one cold run
	// would otherwise charge pool construction to the steady state.
	if _, err := ReplicatePatternParallel(plan, costs, testModel(), 1, 1000, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplicatePatternParallel(plan, costs, testModel(), uint64(i+1), 1000, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppRun(b *testing.B) {
	sc := testScenario()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenario measures each composed scenario end-to-end: the
// base aggregate composition, the cluster+two-level composition, and
// the partial+fail-stop composition.
func BenchmarkScenario(b *testing.B) {
	build := map[string]func() Scenario{
		"aggregate":        testScenario,
		"cluster-twolevel": perNodeBenchScenario,
		"partial-failstop": func() Scenario {
			sc := testScenario()
			sc.Costs.LambdaF = 5e-4
			sc.Partial = &Partial{Segments: 4, Coverage: 0.8, Cost: 0.4}
			return sc
		},
	}
	for _, name := range []string{"aggregate", "cluster-twolevel", "partial-failstop"} {
		sc := build[name]()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sc.Run(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// perNodeBenchScenario is the cluster-twolevel composition: per-node
// fault processes under the memory+disk tier.
func perNodeBenchScenario() Scenario {
	sc := testScenario()
	sc.Costs.LambdaS = 0
	sc.Nodes = UniformNodes(4, 2e-3, 5e-4)
	sc.TwoLevel = &TwoLevelSpec{MemC: 1.5, DiskC: 6, DiskR: 12, Every: 3}
	return sc
}

// BenchmarkReplicateScenario measures 50-run pooled scenario
// replications: the aggregate composition and the per-node two-level
// one. Both rows are alloc-gated.
func BenchmarkReplicateScenario(b *testing.B) {
	for _, c := range []struct {
		name string
		sc   Scenario
	}{{"aggregate", testScenario()}, {"per-node", perNodeBenchScenario()}} {
		b.Run(c.name, func(b *testing.B) {
			// Warm the shared executor and scenario scratch pool
			// (alloc-gated in CI smoke mode; see
			// BenchmarkReplicatePatternParallel).
			if _, err := ReplicateScenario(c.sc, 1, 50, 0); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReplicateScenario(c.sc, uint64(i+1), 50, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPerNodeFaults measures the per-node sampling path (one
// direct scan per window) as node count grows.
func BenchmarkPerNodeFaults(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("nodes-%d", n), func(b *testing.B) {
			fp, err := NewPerNodeFaults(UniformNodes(n, 2e-3, 5e-4), 42, "bench")
			if err != nil {
				b.Fatal(err)
			}
			p, err := NewPatternEngine(PatternConfig{
				Plan:          Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
				Costs:         Costs{C: 6, V: 1.5, R: 6},
				Faults:        fp,
				Recorder:      NewSumRecorder(testModel()),
				CombineVerify: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.RunPattern()
			}
		})
	}
}
