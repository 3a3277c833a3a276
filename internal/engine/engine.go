// Package engine is the unified simulation core behind every
// fault-injection simulator in this repository. It decomposes a
// resilient execution into orthogonal, composable policies:
//
//   - FaultProcess samples when errors strike: a single aggregate
//     platform process (AggregateFaults, the paper's model) or N
//     independent per-node Poisson processes resolved by a direct scan
//     for each window's earliest arrivals (PerNodeFaults).
//   - Tier decides where checkpoints go and what a rollback costs:
//     SingleLevel (one verified store, the paper's C/R) or TwoLevel
//     (memory + disk via package ckpt, with disk rollbacks that lose
//     committed patterns).
//   - Recorder advances the clock and bills energy: SumRecorder (plain
//     accumulation) or MeterRecorder (energy.Meter with per-activity
//     breakdown).
//   - Detection comes from package detect (guaranteed digests plus
//     sampled-window partial verifications).
//
// Two executors drive these policies. PatternEngine replays the
// abstract renewal process of one pattern (durations and energies only,
// no application state) — the statistical workhorse behind PatternSim
// and the cluster simulator. App drives a real state-carrying workload
// through the full protocol — fault injection flips bits in real state,
// verification compares digests against a clean replica, checkpoints
// store real bytes — backing ExecSim, TwoLevelSim, and composed
// Scenarios (multi-node + two-level, partial verification + fail-stop)
// that the four original siloed simulators could not express.
//
// Every executor is deterministic given its seed material and preserves
// the legacy simulators' exact float-operation and RNG-draw order, so
// the sim and cluster wrappers reproduce their historical reports
// bit-for-bit (see the golden tests in those packages).
package engine

import (
	"fmt"

	"respeed/internal/stats"
)

// Plan fixes the execution policy of a pattern: its size and speed pair.
type Plan struct {
	// W is the pattern size in work units (seconds at speed 1).
	W float64
	// Sigma1 is the first-execution speed, Sigma2 the re-execution speed.
	Sigma1, Sigma2 float64
}

// Validate rejects non-positive plans.
func (pl Plan) Validate() error {
	if !(pl.W > 0) || !(pl.Sigma1 > 0) || !(pl.Sigma2 > 0) {
		return fmt.Errorf("engine: invalid plan %+v", pl)
	}
	return nil
}

// Costs fixes the resilience costs and error rates of the platform.
type Costs struct {
	// C, V, R in seconds (V at full speed: verifying at σ takes V/σ).
	C, V, R float64
	// LambdaS and LambdaF are the silent and fail-stop error rates
	// (per second); either may be zero.
	LambdaS, LambdaF float64
}

// Validate rejects negative costs and rates.
func (c Costs) Validate() error {
	if c.C < 0 || c.V < 0 || c.R < 0 || c.LambdaS < 0 || c.LambdaF < 0 {
		return fmt.Errorf("engine: invalid costs %+v", c)
	}
	return nil
}

// PatternResult is the realized outcome of one simulated pattern.
type PatternResult struct {
	// Time is the wall-clock seconds from pattern start to committed
	// checkpoint.
	Time float64
	// Energy is the consumed energy in mW·s.
	Energy float64
	// Attempts counts executions of the pattern (1 = no errors).
	Attempts int
	// SilentErrors and FailStopErrors count the errors that struck.
	SilentErrors, FailStopErrors int
}

// Estimate is the aggregated outcome of replicated simulations.
type Estimate struct {
	// Time and Energy summarize the per-replication realizations.
	Time, Energy stats.Summary
	// TimePerWork and EnergyPerWork are the simulated overheads T/W and
	// E/W directly comparable to the analytical formulas.
	TimePerWork, EnergyPerWork stats.Summary
	// MeanAttempts is the average number of executions per replication.
	MeanAttempts float64
	// Patterns is the replication count.
	Patterns int
}

// PatternSizes splits totalWork into pattern sizes of at most w work
// units each, with the last pattern possibly short. The subtraction
// loop reproduces ExecSim's historical remaining-work arithmetic so the
// size sequence is bit-identical to the pre-engine simulator.
func PatternSizes(totalWork, w float64) []float64 {
	var sizes []float64
	for remaining := totalWork; remaining > 1e-9; {
		s := w
		if s > remaining {
			s = remaining
		}
		sizes = append(sizes, s)
		remaining -= s
	}
	return sizes
}

// WholePatterns returns n patterns of exactly w work units each — the
// two-level layout, where rollback bookkeeping works in whole patterns.
func WholePatterns(n int, w float64) []float64 {
	sizes := make([]float64, n)
	for i := range sizes {
		sizes[i] = w
	}
	return sizes
}
