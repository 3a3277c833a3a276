package engine

import (
	"respeed/internal/detect"
	"respeed/internal/energy"
	"respeed/internal/rngx"
)

// TwoLevelConfig configures two-level checkpointing, the multi-level
// setting of the paper's reference [Benoit, Cavelan, Robert, Sun,
// IPDPS 2016]: cheap in-memory checkpoints after every pattern handle
// silent errors, expensive disk checkpoints every DiskEvery patterns
// survive fail-stop crashes (which wipe memory). A fail-stop error
// therefore rolls the execution back up to DiskEvery−1 committed
// patterns — the trade-off the disk interval k optimizes.
//
// It is the aggregate-rate, memory+disk case of Scenario, billed with a
// SumRecorder (plain running sum) instead of Scenario's MeterRecorder.
type TwoLevelConfig struct {
	// Plan is the per-pattern policy (W, σ1, σ2). Re-executions after
	// any error run at σ2, including the catch-up re-execution of
	// patterns lost to a disk rollback.
	Plan Plan
	// Costs supplies V, R (memory-level recovery) and the error rates;
	// Costs.C is ignored — the two-level costs below replace it.
	Costs Costs
	// MemC is the in-memory checkpoint cost (seconds); DiskC the disk
	// checkpoint cost; DiskR the disk recovery cost.
	MemC, DiskC, DiskR float64
	// DiskEvery is k ≥ 1: a disk checkpoint follows every k-th pattern.
	DiskEvery int
	// Model prices energy. Memory checkpoints bill I/O power like disk
	// ones (the paper's single Pio abstraction).
	Model energy.Model
	// TotalWork is the application size in work units; it must be a
	// positive multiple of Plan.W (two-level rollback bookkeeping works
	// in whole patterns).
	TotalWork float64
	// Detector verifies state; nil selects FNV-64a.
	Detector detect.Detector
}

// scenario expresses the configuration as a Scenario running wl.
func (c TwoLevelConfig) scenario(wl *Runner) Scenario {
	return Scenario{
		Plan:      c.Plan,
		Costs:     c.Costs,
		Model:     c.Model,
		TotalWork: c.TotalWork,
		TwoLevel: &TwoLevelSpec{
			MemC: c.MemC, DiskC: c.DiskC, DiskR: c.DiskR, Every: c.DiskEvery,
		},
		Detector:    c.Detector,
		NewWorkload: func() *Runner { return wl },
	}
}

// Validate checks the configuration.
func (c TwoLevelConfig) Validate() error { return c.scenario(nil).Validate() }

// TwoLevelReport summarizes a two-level execution.
type TwoLevelReport struct {
	// Makespan is the total wall-clock seconds; Energy the total mW·s.
	Makespan, Energy float64
	// Patterns is the application's pattern count; Executions counts
	// every pattern execution including re-executions and disk-rollback
	// catch-up work.
	Patterns, Executions int
	// MemCommits, DiskCommits count checkpoints by level.
	MemCommits, DiskCommits int
	// SilentErrors and FailStops count errors; MemRecoveries and
	// DiskRecoveries the rollbacks by level.
	SilentErrors, FailStops       int
	MemRecoveries, DiskRecoveries int
	// PatternsLost is the total committed patterns re-done because a
	// fail-stop wiped the memory level.
	PatternsLost int
	// StateDigest fingerprints the final state.
	StateDigest detect.Digest
}

// Run executes workload wl to completion under two-level checkpointing,
// drawing faults from stream.
func (c TwoLevelConfig) Run(wl *Runner, stream *rngx.Stream) (TwoLevelReport, error) {
	sc := c.scenario(wl)
	if err := sc.Validate(); err != nil {
		return TwoLevelReport{}, err
	}
	rep, err := sc.runAggregate(stream, nil, NewSumRecorder(c.Model))
	return TwoLevelReport{
		Makespan:       rep.Makespan,
		Energy:         rep.Energy,
		Patterns:       int(c.TotalWork / c.Plan.W),
		Executions:     rep.Attempts,
		MemCommits:     rep.MemCommits,
		DiskCommits:    rep.DiskCommits,
		SilentErrors:   rep.SilentInjected,
		FailStops:      rep.FailStops,
		MemRecoveries:  rep.MemRecoveries,
		DiskRecoveries: rep.DiskRecoveries,
		PatternsLost:   rep.PatternsLost,
		StateDigest:    rep.StateDigest,
	}, err
}
