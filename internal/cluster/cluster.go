// Package cluster models the platform the paper abstracts away: N nodes
// executing a divisible-load pattern in parallel, each subject to its
// own silent and fail-stop error processes. The paper treats "the
// platform" as one machine with an aggregated speed and a single
// aggregated error rate λ; this package simulates the node-level reality
// and lets the test suite verify the
// aggregation argument: N independent per-node Poisson error processes
// of rate λ/N are statistically indistinguishable (at pattern
// granularity) from one aggregate process of rate λ, because a pattern
// fails as soon as ANY node is struck.
//
// Since the engine unification this package is a thin façade over
// internal/engine: Sim is engine.PatternEngine configured with
// engine.PerNodeFaults and the cluster's combined compute+verify
// billing.
package cluster

import (
	"fmt"

	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/sim"
)

// Node is one machine of the cluster.
type Node = engine.Node

// Config describes a cluster execution.
type Config struct {
	// Nodes is the machine list. Speed shares must sum to ≈1.
	Nodes []Node
	// Plan is the pattern policy in aggregate terms: W work units at
	// aggregate speed σ1/σ2, exactly as in the paper.
	Plan sim.Plan
	// Costs are the platform-level resilience costs; per-node error
	// rates live on the nodes, so Costs.LambdaS/LambdaF must be zero.
	Costs sim.Costs
	// Model prices aggregate energy (the paper's platform-level κ, Pidle,
	// Pio).
	Model energy.Model
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Plan.Validate(); err != nil {
		return err
	}
	if c.Costs.LambdaS != 0 || c.Costs.LambdaF != 0 {
		return fmt.Errorf("cluster: error rates belong on nodes, not Costs")
	}
	if err := c.Costs.Validate(); err != nil {
		return err
	}
	return engine.ValidateNodes(c.Nodes)
}

// Uniform builds n identical nodes that together provide the aggregate
// speed, with the platform rates split evenly — the decomposition the
// paper's aggregate model implies.
func Uniform(n int, totalSilentRate, totalFailStopRate float64) []Node {
	return engine.UniformNodes(n, totalSilentRate, totalFailStopRate)
}

// Sim executes patterns on the cluster. Not safe for concurrent use.
type Sim struct {
	eng    *engine.PatternEngine
	faults *engine.PerNodeFaults

	patterns  int
	attempts  int
	silent    int
	failstops int
}

// NewSim builds a cluster simulator; each node gets an independent
// substream of seed.
func NewSim(cfg Config, seed uint64) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fp, err := engine.NewPerNodeFaults(cfg.Nodes, seed, "cluster")
	if err != nil {
		return nil, err
	}
	eng, err := engine.NewPatternEngine(engine.PatternConfig{
		Plan:     cfg.Plan,
		Costs:    cfg.Costs,
		Faults:   fp,
		Recorder: engine.NewSumRecorder(cfg.Model),
		// Platform-level billing: compute+verify is one aggregate
		// Compute segment (the historical cluster accounting).
		CombineVerify: true,
	})
	if err != nil {
		return nil, err
	}
	return &Sim{eng: eng, faults: fp}, nil
}

// Clock returns the simulation time; Energy the consumed energy.
func (s *Sim) Clock() float64  { return s.eng.Clock() }
func (s *Sim) Energy() float64 { return s.eng.Energy() }

// RunPattern executes one pattern to its committed checkpoint, exactly
// mirroring sim.PatternSim's semantics but with node-level error
// processes.
func (s *Sim) RunPattern() sim.PatternResult {
	res := s.eng.RunPattern()
	s.patterns++
	s.attempts += res.Attempts
	s.silent += res.SilentErrors
	s.failstops += res.FailStopErrors
	return res
}

// Stats summarizes cluster activity.
type Stats struct {
	Patterns, Attempts int
	Silent, FailStops  int
	PerNodeErrors      []int
}

// Stats returns the counters. The PerNodeErrors slice is a copy.
func (s *Sim) Stats() Stats {
	return Stats{
		Patterns: s.patterns, Attempts: s.attempts,
		Silent: s.silent, FailStops: s.failstops,
		PerNodeErrors: s.faults.PerNodeErrors(),
	}
}

// Replicate runs n patterns and aggregates, mirroring sim.Replicate.
func Replicate(cfg Config, seed uint64, n int) (sim.Estimate, error) {
	if n < 1 {
		return sim.Estimate{}, fmt.Errorf("cluster: replication count must be ≥ 1")
	}
	s, err := NewSim(cfg, seed)
	if err != nil {
		return sim.Estimate{}, err
	}
	return engine.ReplicatePattern(s.eng, cfg.Plan.W, n)
}
