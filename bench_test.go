// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment↔bench index), plus
// micro-benchmarks of the solver and simulators.
//
// Run: go test -bench=. -benchmem
package respeed_test

import (
	"testing"

	"respeed"
)

// benchOpts keeps per-iteration work bounded so -bench completes in
// seconds while still exercising the full experiment code paths.
func benchOpts() respeed.ExperimentOpts {
	return respeed.ExperimentOpts{Seed: 42, Replications: 2000, Points: 21, Workers: 0}
}

// runExperiment is the common driver: one full experiment per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := respeed.ExperimentByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	opts := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 && len(res.Figures) == 0 && len(res.Notes) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- Section 4.2 tables ---

func BenchmarkTableRho8(b *testing.B)    { runExperiment(b, "table-rho8") }
func BenchmarkTableRho3(b *testing.B)    { runExperiment(b, "table-rho3") }
func BenchmarkTableRho1775(b *testing.B) { runExperiment(b, "table-rho1775") }
func BenchmarkTableRho14(b *testing.B)   { runExperiment(b, "table-rho14") }

// --- Figures 2–14 ---

func BenchmarkFigure2(b *testing.B)  { runExperiment(b, "figure-2") }
func BenchmarkFigure3(b *testing.B)  { runExperiment(b, "figure-3") }
func BenchmarkFigure4(b *testing.B)  { runExperiment(b, "figure-4") }
func BenchmarkFigure5(b *testing.B)  { runExperiment(b, "figure-5") }
func BenchmarkFigure6(b *testing.B)  { runExperiment(b, "figure-6") }
func BenchmarkFigure7(b *testing.B)  { runExperiment(b, "figure-7") }
func BenchmarkFigure8(b *testing.B)  { runExperiment(b, "figure-8") }
func BenchmarkFigure9(b *testing.B)  { runExperiment(b, "figure-9") }
func BenchmarkFigure10(b *testing.B) { runExperiment(b, "figure-10") }
func BenchmarkFigure11(b *testing.B) { runExperiment(b, "figure-11") }
func BenchmarkFigure12(b *testing.B) { runExperiment(b, "figure-12") }
func BenchmarkFigure13(b *testing.B) { runExperiment(b, "figure-13") }
func BenchmarkFigure14(b *testing.B) { runExperiment(b, "figure-14") }

// --- Section 5 and beyond-paper studies ---

func BenchmarkTheorem2(b *testing.B)       { runExperiment(b, "theorem2-scaling") }
func BenchmarkValidityWindow(b *testing.B) { runExperiment(b, "validity-window") }
func BenchmarkMonteCarloValidation(b *testing.B) {
	runExperiment(b, "validate-montecarlo")
}
func BenchmarkCombinedValidation(b *testing.B) { runExperiment(b, "validate-combined") }
func BenchmarkAblationExactVsFirstOrder(b *testing.B) {
	runExperiment(b, "ablation-exact-vs-firstorder")
}
func BenchmarkGainsSummary(b *testing.B) { runExperiment(b, "gains-summary") }

// --- Micro-benchmarks ---

// BenchmarkSolve measures the paper's O(K²) procedure — quoted as
// "computable in constant time" for constant K; this pins the constant.
func BenchmarkSolve(b *testing.B) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := respeed.Solve(cfg, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveExact measures the exact numeric cross-validator.
func BenchmarkSolveExact(b *testing.B) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := respeed.SolveExact(cfg, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpectedTime measures one exact model evaluation.
func BenchmarkExpectedTime(b *testing.B) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	p := respeed.ParamsFor(cfg)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = p.ExpectedTime(2764, 0.4, 0.8)
	}
	_ = sink
}

// BenchmarkSimulatePatterns measures Monte-Carlo replication throughput.
func BenchmarkSimulatePatterns(b *testing.B) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	cfg.Platform.Lambda *= 100
	plan := respeed.Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := respeed.SimulatePatterns(cfg, plan, 1000, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatternTrace measures a fully traced full-stack execution —
// the Figure 1 schedule reproduction path.
func BenchmarkPatternTrace(b *testing.B) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	p := respeed.ParamsFor(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := respeed.NewTrace(0)
		rep, err := respeed.RunWorkload(respeed.ExecConfig{
			Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
			Costs:     respeed.Costs{C: p.C, V: p.V, R: p.R, LambdaS: 2e-3},
			Model:     respeed.PowerModelFor(cfg),
			TotalWork: 500,
			Trace:     rec,
		}, respeed.NewHeatWorkload(128, 0.25), uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Patterns == 0 {
			b.Fatal("no patterns executed")
		}
	}
}

// BenchmarkRunWorkloadHeat measures full-stack execution throughput without
// tracing.
func BenchmarkRunWorkloadHeat(b *testing.B) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	p := respeed.ParamsFor(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := respeed.RunWorkload(respeed.ExecConfig{
			Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
			Costs:     respeed.Costs{C: p.C, V: p.V, R: p.R, LambdaS: 1e-3, LambdaF: 5e-4},
			Model:     respeed.PowerModelFor(cfg),
			TotalWork: 500,
		}, respeed.NewHeatWorkload(256, 0.25), uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension studies ---

func BenchmarkCombinedBiCrit(b *testing.B)       { runExperiment(b, "combined-bicrit") }
func BenchmarkContinuousSpeeds(b *testing.B)     { runExperiment(b, "continuous-speeds") }
func BenchmarkVerificationAblation(b *testing.B) { runExperiment(b, "verification-ablation") }
func BenchmarkClusterAggregation(b *testing.B)   { runExperiment(b, "cluster-aggregation") }
func BenchmarkParetoFrontier(b *testing.B)       { runExperiment(b, "pareto-frontier") }
func BenchmarkApplicationPlans(b *testing.B)     { runExperiment(b, "application-plans") }

// BenchmarkSimulateParallel measures the chunked parallel Monte-Carlo
// path (deterministic across worker counts).
func BenchmarkSimulateParallel(b *testing.B) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	cfg.Platform.Lambda *= 100
	plan := respeed.Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := respeed.SimulatePatternsParallel(cfg, plan, 1000, uint64(i+1), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanApplication measures end-to-end planning.
func BenchmarkPlanApplication(b *testing.B) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := respeed.PlanApplication(cfg, 3, 7*24*3600); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartialVerification(b *testing.B) { runExperiment(b, "partial-verification") }

func BenchmarkFigure1Traces(b *testing.B)  { runExperiment(b, "figure-1-traces") }
func BenchmarkWasteBreakdown(b *testing.B) { runExperiment(b, "waste-breakdown") }

func BenchmarkSensitivityW(b *testing.B)    { runExperiment(b, "sensitivity-w") }
func BenchmarkBaselinePeriods(b *testing.B) { runExperiment(b, "baseline-periods") }

func BenchmarkPairGrid(b *testing.B) { runExperiment(b, "pair-grid") }

func BenchmarkEnergyComponents(b *testing.B) { runExperiment(b, "energy-components") }

func BenchmarkTwoLevelK(b *testing.B) { runExperiment(b, "twolevel-k") }

func BenchmarkSpeedDesign(b *testing.B) { runExperiment(b, "speed-design") }
