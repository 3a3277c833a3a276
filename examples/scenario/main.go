// scenario demonstrates the unified simulation engine: the four
// fault-injection simulators share one simulation core whose
// policies — fault process, checkpoint tier, verification discipline —
// compose freely. It runs two compositions the original siloed
// simulators could not express:
//
//  1. cluster-twolevel: a 4-node platform (independent per-node Poisson
//     error processes) protected by two-level memory+disk checkpointing;
//  2. partial-failstop: intermediate partial verifications with
//     fail-stop errors in the mix.
//
// Both drive a real state-carrying workload; the final state digest
// must match an error-free run — the engine's end-to-end correctness
// invariant.
package main

import (
	"fmt"
	"log"

	"respeed"
)

func main() {
	cfg, ok := respeed.ConfigByName("Hera/XScale")
	if !ok {
		log.Fatal("config not found")
	}
	p := respeed.ParamsFor(cfg)

	base := respeed.Scenario{
		Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     respeed.Costs{C: p.C, V: p.V, R: p.R},
		Model:     respeed.PowerModelFor(cfg),
		TotalWork: 500,
	}
	mk := func() respeed.Workload { return respeed.NewStreamWorkload(7, 64) }

	// Reference: the same workload with no errors at all.
	clean, err := respeed.RunScenario(base, mk, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("error-free reference: makespan %.1f s, digest %016x\n\n",
		clean.Makespan, uint64(clean.StateDigest))

	// Composition 1: per-node faults + memory/disk checkpoint tier.
	cluster := base
	cluster.Nodes = respeed.UniformScenarioNodes(4, 2e-3, 5e-4)
	cluster.TwoLevel = &respeed.TwoLevelSpec{MemC: p.C / 4, DiskC: p.C, DiskR: 2 * p.R, Every: 3}

	// Composition 2: partial verifications + fail-stop errors.
	partial := base
	partial.Costs.LambdaS, partial.Costs.LambdaF = 2e-3, 5e-4
	partial.Partial = &respeed.PartialExec{Segments: 4, Coverage: 0.8, Cost: p.V / 4}

	for _, c := range []struct {
		name string
		sc   respeed.Scenario
	}{
		{"cluster-twolevel", cluster},
		{"partial-failstop", partial},
	} {
		rep, err := respeed.RunScenario(c.sc, mk, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (seed 7):\n", c.name)
		fmt.Printf("  makespan %.1f s, energy %.0f mW·s\n", rep.Makespan, rep.Energy)
		fmt.Printf("  %d patterns committed in %d attempts; %d SDCs (all detected: %v), %d fail-stops\n",
			rep.Patterns, rep.Attempts, rep.SilentInjected,
			rep.SilentDetected == rep.SilentInjected, rep.FailStops)
		if c.sc.TwoLevel != nil {
			fmt.Printf("  tier: %d memory / %d disk commits, %d/%d recoveries, %d patterns lost to disk rollbacks\n",
				rep.MemCommits, rep.DiskCommits, rep.MemRecoveries, rep.DiskRecoveries, rep.PatternsLost)
		}
		if c.sc.Partial != nil {
			fmt.Printf("  %d partial checks caught %d corruptions early\n",
				rep.PartialChecks, rep.PartialDetections)
		}
		if rep.PerNodeErrors != nil {
			fmt.Printf("  errors per node: %v\n", rep.PerNodeErrors)
		}
		okDigest := rep.StateDigest == clean.StateDigest
		fmt.Printf("  final digest matches error-free run: %v\n\n", okDigest)
		if !okDigest {
			log.Fatal("state diverged — verified checkpointing must preserve the final state")
		}

		// Replicated estimate, deterministic in (seed, n) for any
		// worker count.
		est, err := respeed.ReplicateScenario(c.sc, mk, 7, 200, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  200 replications: makespan %.1f ± %.1f s, energy %.0f ± %.0f mW·s, %.2f attempts/run\n\n",
			est.Time.Mean, est.Time.CI95, est.Energy.Mean, est.Energy.CI95, est.MeanAttempts)
	}
}
