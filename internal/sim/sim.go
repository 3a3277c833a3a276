// Package sim is the Monte-Carlo simulation substrate: it executes the
// paper's periodic verified-checkpoint patterns under injected errors and
// measures the realized time and energy, validating the analytical
// expectations of Propositions 1–5 against sampled executions.
//
// Since the engine unification, this package is a thin façade over
// internal/engine: the simulators here are configurations of the shared
// simulation core, preserved for API stability. New compositions
// (per-node faults + two-level checkpointing, partial verification +
// fail-stop, ...) are expressed directly as engine.Scenario values.
//
// Two simulators are provided:
//
//   - PatternSim replays the abstract renewal process (durations and
//     energies only, no application state). It is fast enough for 10⁵–10⁶
//     pattern replications per configuration and is the statistical
//     workhorse behind the validation experiments.
//
//   - ExecSim (exec.go) drives a real state-carrying workload through the
//     full stack — fault injection flips bits in real state, verification
//     compares digests against a clean replica, checkpoints store real
//     bytes, recovery restores them — demonstrating that the protocol is
//     not just a formula but an executable system.
//
// Both simulators are deterministic given a seed and are not safe for
// concurrent use; run one instance per goroutine (package sweep does).
package sim

import (
	"fmt"

	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/faults"
	"respeed/internal/rngx"
	"respeed/internal/trace"
)

// Plan fixes the execution policy of a pattern: its size and speed pair.
type Plan = engine.Plan

// Costs fixes the resilience costs and error rates of the platform.
type Costs = engine.Costs

// PatternResult is the realized outcome of one simulated pattern.
type PatternResult = engine.PatternResult

// Estimate is the aggregated outcome of replicated pattern simulations.
type Estimate = engine.Estimate

// PatternSim samples the renewal process of one pattern policy. It is a
// configuration of engine.PatternEngine: aggregate fault process, plain
// summing energy recorder.
type PatternSim struct {
	eng    *engine.PatternEngine
	faults *engine.AggregateFaults
}

// NewPatternSim builds a simulator. rec may be nil to disable tracing.
func NewPatternSim(plan Plan, costs Costs, model energy.Model, rng *rngx.Stream, rec *trace.Recorder) (*PatternSim, error) {
	af := engine.NewAggregateFaults(costs.LambdaS, costs.LambdaF, rng)
	eng, err := engine.NewPatternEngine(engine.PatternConfig{
		Plan:     plan,
		Costs:    costs,
		Faults:   af,
		Recorder: engine.NewSumRecorder(model),
		Trace:    rec,
	})
	if err != nil {
		return nil, err
	}
	return &PatternSim{eng: eng, faults: af}, nil
}

// Clock returns the current simulation time in seconds.
func (s *PatternSim) Clock() float64 { return s.eng.Clock() }

// Energy returns the total energy consumed so far in mW·s.
func (s *PatternSim) Energy() float64 { return s.eng.Energy() }

// Injector exposes the fault injector (for stats in experiments).
func (s *PatternSim) Injector() *faults.Injector { return s.faults.Injector() }

// RunPattern executes one pattern to its committed checkpoint and
// returns the realized time and energy (see engine.PatternEngine).
func (s *PatternSim) RunPattern() PatternResult { return s.eng.RunPattern() }

// Replicate runs n independent patterns and aggregates the outcomes.
func Replicate(plan Plan, costs Costs, model energy.Model, rng *rngx.Stream, n int) (Estimate, error) {
	if n < 1 {
		return Estimate{}, fmt.Errorf("sim: replication count must be ≥ 1")
	}
	s, err := NewPatternSim(plan, costs, model, rng, nil)
	if err != nil {
		return Estimate{}, err
	}
	return engine.ReplicatePattern(s.eng, plan.W, n)
}
