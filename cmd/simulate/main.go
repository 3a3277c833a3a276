// Command simulate validates the analytical model against Monte-Carlo
// sampled executions: the abstract renewal process (Propositions 1–5)
// and, with -exec, the full-stack simulator driving a real workload
// through fault injection, digest verification, checkpointing and
// recovery.
//
// Usage:
//
//	simulate [-config "Hera/XScale"] [-rho 3] [-n 100000] [-boost 50] [-seed 42]
//	simulate -exec [-workload heat] [-trace]
//	simulate -scenario cluster-twolevel|partial-failstop [-reps 100]
//	simulate -spec examples/spec/weibull-failstop.json [-reps 100]
//
// Scenario mode runs the unified engine's composed scenarios — policy
// combinations the original siloed simulators could not express:
// a multi-node cluster under two-level (memory+disk) checkpointing, or
// partial verifications with fail-stop errors in the mix. Spec mode
// runs the same engine from a declarative JSON scenario document (CSV
// fault-trace references resolve relative to the spec file).
package main

import (
	"flag"
	"fmt"
	"os"

	"respeed"
	"respeed/internal/tablefmt"
)

func main() {
	configName := flag.String("config", "Hera/XScale", "configuration name")
	rho := flag.Float64("rho", 3, "performance bound")
	n := flag.Int("n", 100000, "Monte-Carlo replications")
	boost := flag.Float64("boost", 50, "error-rate multiplier (λ×boost) so errors are frequent")
	seed := flag.Uint64("seed", 42, "random seed")
	execMode := flag.Bool("exec", false, "run the full-stack executable simulator instead")
	wlName := flag.String("workload", "heat", "exec workload: heat | stream | matvec")
	showTrace := flag.Bool("trace", false, "print the execution schedule (exec mode)")
	scenarioName := flag.String("scenario", "", "run a composed engine scenario: cluster-twolevel | partial-failstop")
	specPath := flag.String("spec", "", "run a declarative scenario spec from a JSON file")
	reps := flag.Int("reps", 100, "scenario replications")
	flag.Parse()

	cfg, ok := respeed.ConfigByName(*configName)
	if !ok {
		fmt.Fprintf(os.Stderr, "simulate: unknown configuration %q\n", *configName)
		os.Exit(1)
	}
	cfg.Platform.Lambda *= *boost

	if *specPath != "" {
		runSpec(cfg, *specPath, *seed, *reps)
		return
	}
	if *scenarioName != "" {
		runScenario(cfg, *scenarioName, *seed, *reps)
		return
	}
	if *execMode {
		runExec(cfg, *wlName, *seed, *showTrace)
		return
	}

	p := respeed.ParamsFor(cfg)
	sol, err := respeed.Solve(cfg, *rho)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v (try a larger -rho or smaller -boost)\n", err)
		os.Exit(2)
	}
	b := sol.Best
	plan := respeed.Plan{W: b.W, Sigma1: b.Sigma1, Sigma2: b.Sigma2}
	fmt.Printf("%s at λ×%g, ρ=%g: plan W=%.1f σ=(%g,%g), %d replications\n\n",
		cfg.Name(), *boost, *rho, b.W, b.Sigma1, b.Sigma2, *n)

	est, err := respeed.SimulatePatterns(cfg, plan, *n, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
	wantT := p.ExpectedTime(plan.W, plan.Sigma1, plan.Sigma2)
	wantE := p.ExpectedEnergy(plan.W, plan.Sigma1, plan.Sigma2)

	tab := tablefmt.New("quantity", "analytical", "simulated", "±CI95", "rel.err")
	tab.AddRowValues("T(W,σ1,σ2) [s]", wantT, est.Time.Mean, est.Time.CI95,
		relErr(est.Time.Mean, wantT))
	tab.AddRowValues("E(W,σ1,σ2) [mW·s]", wantE, est.Energy.Mean, est.Energy.CI95,
		relErr(est.Energy.Mean, wantE))
	tab.AddRowValues("T/W", wantT/plan.W, est.TimePerWork.Mean, est.TimePerWork.CI95,
		relErr(est.TimePerWork.Mean, wantT/plan.W))
	tab.AddRowValues("E/W", wantE/plan.W, est.EnergyPerWork.Mean, est.EnergyPerWork.CI95,
		relErr(est.EnergyPerWork.Mean, wantE/plan.W))
	fmt.Println(tab.String())
	fmt.Printf("mean attempts per pattern: %.4f\n", est.MeanAttempts)
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

// runScenario executes one of the engine's composed scenarios: policy
// combinations that required the unified simulation core.
func runScenario(cfg respeed.Config, name string, seed uint64, reps int) {
	p := respeed.ParamsFor(cfg)
	sc := respeed.Scenario{
		Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     respeed.Costs{C: p.C, V: p.V, R: p.R},
		Model:     respeed.PowerModelFor(cfg),
		TotalWork: 500,
	}
	switch name {
	case "cluster-twolevel":
		// 4-node platform + memory/disk checkpoint tier.
		sc.Nodes = respeed.UniformScenarioNodes(4, 2e-3, 5e-4)
		sc.TwoLevel = &respeed.TwoLevelSpec{MemC: p.C / 4, DiskC: p.C, DiskR: 2 * p.R, Every: 3}
	case "partial-failstop":
		// Intermediate partial verifications + fail-stop errors.
		sc.Costs.LambdaS, sc.Costs.LambdaF = 2e-3, 5e-4
		sc.Partial = &respeed.PartialExec{Segments: 4, Coverage: 0.8, Cost: p.V / 4}
	default:
		fmt.Fprintf(os.Stderr, "simulate: unknown scenario %q (use cluster-twolevel or partial-failstop)\n", name)
		os.Exit(1)
	}
	mk := func() respeed.Workload { return respeed.NewStreamWorkload(7, 64) }

	rep, err := respeed.RunScenario(sc, mk, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("scenario %s on %s (one run, seed %d):\n", name, cfg.Name(), seed)
	fmt.Printf("  makespan        %.1f s\n", rep.Makespan)
	fmt.Printf("  energy          %.1f mW·s\n", rep.Energy)
	fmt.Printf("  patterns        %d committed (attempts %d)\n", rep.Patterns, rep.Attempts)
	fmt.Printf("  silent errors   %d injected, %d detected\n", rep.SilentInjected, rep.SilentDetected)
	fmt.Printf("  fail-stops      %d\n", rep.FailStops)
	if sc.TwoLevel != nil {
		fmt.Printf("  mem/disk ckpts  %d / %d (recoveries %d / %d, patterns lost %d)\n",
			rep.MemCommits, rep.DiskCommits, rep.MemRecoveries, rep.DiskRecoveries, rep.PatternsLost)
	}
	if sc.Partial != nil {
		fmt.Printf("  partial checks  %d (%d detections)\n", rep.PartialChecks, rep.PartialDetections)
	}
	if rep.PerNodeErrors != nil {
		fmt.Printf("  per-node errors %v\n", rep.PerNodeErrors)
	}
	fmt.Printf("  state digest    %016x\n", uint64(rep.StateDigest))

	est, err := respeed.ReplicateScenario(sc, mk, seed, reps, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n%d replications:\n", reps)
	fmt.Printf("  makespan        %.1f ± %.1f s (CI95 %.1f)\n", est.Time.Mean, est.Time.StdDev, est.Time.CI95)
	fmt.Printf("  energy          %.1f ± %.1f mW·s\n", est.Energy.Mean, est.Energy.StdDev)
	fmt.Printf("  mean attempts   %.2f per run\n", est.MeanAttempts)
}

// runSpec executes a declarative scenario spec file: the same composed
// engine as -scenario, driven by a JSON document instead of a named
// preset.
func runSpec(cfg respeed.Config, path string, seed uint64, reps int) {
	s, err := respeed.ParseScenarioSpecFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
	sc, err := respeed.CompileSpec(s, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
	hash, err := respeed.SpecHash(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
	name := s.Name
	if name == "" {
		name = "(unnamed)"
	}

	rep, err := respeed.RunScenario(sc, nil, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("spec %s [%s] on %s (one run, seed %d):\n", name, hash, cfg.Name(), seed)
	fmt.Printf("  makespan        %.1f s\n", rep.Makespan)
	fmt.Printf("  energy          %.1f mW·s\n", rep.Energy)
	fmt.Printf("  patterns        %d committed (attempts %d)\n", rep.Patterns, rep.Attempts)
	fmt.Printf("  silent errors   %d injected, %d detected\n", rep.SilentInjected, rep.SilentDetected)
	fmt.Printf("  fail-stops      %d\n", rep.FailStops)
	if sc.TwoLevel != nil {
		fmt.Printf("  mem/disk ckpts  %d / %d (recoveries %d / %d, patterns lost %d)\n",
			rep.MemCommits, rep.DiskCommits, rep.MemRecoveries, rep.DiskRecoveries, rep.PatternsLost)
	}
	if sc.Partial != nil {
		fmt.Printf("  partial checks  %d (%d detections)\n", rep.PartialChecks, rep.PartialDetections)
	}
	if rep.PerNodeErrors != nil {
		fmt.Printf("  per-node errors %v\n", rep.PerNodeErrors)
	}
	fmt.Printf("  state digest    %016x\n", uint64(rep.StateDigest))

	est, err := respeed.ReplicateScenario(sc, nil, seed, reps, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n%d replications:\n", reps)
	fmt.Printf("  makespan        %.1f ± %.1f s (CI95 %.1f)\n", est.Time.Mean, est.Time.StdDev, est.Time.CI95)
	fmt.Printf("  energy          %.1f ± %.1f mW·s\n", est.Energy.Mean, est.Energy.StdDev)
	fmt.Printf("  mean attempts   %.2f per run\n", est.MeanAttempts)
}

func runExec(cfg respeed.Config, wlName string, seed uint64, showTrace bool) {
	var wl respeed.Workload
	switch wlName {
	case "heat":
		wl = respeed.NewHeatWorkload(512, 0.25)
	case "stream":
		wl = respeed.NewStreamWorkload(seed, 128)
	case "matvec":
		wl = respeed.NewMatVecWorkload(256)
	default:
		fmt.Fprintf(os.Stderr, "simulate: unknown workload %q\n", wlName)
		os.Exit(1)
	}
	p := respeed.ParamsFor(cfg)
	var rec *respeed.Trace
	if showTrace {
		rec = respeed.NewTrace(400)
	}
	rep, err := respeed.RunWorkload(respeed.ExecConfig{
		Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     respeed.Costs{C: p.C, V: p.V, R: p.R, LambdaS: 2e-3, LambdaF: 5e-4},
		Model:     respeed.PowerModelFor(cfg),
		TotalWork: 1000,
		Trace:     rec,
	}, wl, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s on %s:\n", wl.Name(), cfg.Name())
	fmt.Printf("  makespan        %.1f s\n", rep.Makespan)
	fmt.Printf("  energy          %.1f mW·s\n", rep.Energy)
	fmt.Printf("  patterns        %d (attempts %d)\n", rep.Patterns, rep.Attempts)
	fmt.Printf("  silent errors   %d injected, %d detected\n", rep.SilentInjected, rep.SilentDetected)
	fmt.Printf("  fail-stops      %d\n", rep.FailStops)
	fmt.Printf("  progress        %.1f work units\n", rep.FinalProgress)
	fmt.Printf("  state digest    %016x\n", uint64(rep.StateDigest))
	fmt.Printf("  checkpoints     %s\n", rep.CkptStats)
	if showTrace {
		fmt.Println("\nschedule (first 400 events):")
		fmt.Print(rec.Render())
		fmt.Println("\ntimeline:")
		fmt.Print(respeed.GanttTrace(rec.Events(), 100))
	}
}
